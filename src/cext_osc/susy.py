"""Supersymmetric hierarchy built from cyclically shifted oscillator algebras.

Each member Hamiltonian is the structure function evaluated at a shifted
number operator; the supercharges are block matrices over the shifted
algebras' ladder operators, and together they satisfy the two-generator
superalgebra relations member by member, decided in integers by
:func:`superalgebra_gap`.  Only :func:`verify_sqm`, the float realization, loads NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraParams, InadmissibleParams, Ladder, WindowViolation, _valid_tol


def cyclic_shift(p: AlgebraParams, mu: int) -> AlgebraParams:
    """The algebra with parameters alpha'_nu = alpha_{nu + mu mod lambda}.

    The shifted vector still sums to zero; Fock existence is re-validated
    (it holds automatically whenever all 1 + alpha_nu > 0).
    """
    if mu < 0:
        raise ValueError(f"shift must be >= 0, got {mu}")
    mu %= p.lam
    return AlgebraParams(alphas=p.alphas[mu:] + p.alphas[:mu])


@dataclass(frozen=True)
class SusyHierarchy:
    """The lambda+1 member Hamiltonians and the lambda shifted algebras, all exact.

    ``members[mu]`` is the mu-th member's spectrum, the ladder n -> F(n + mu) of period
    lambda, exact at every n; ``shifted[mu]`` is ``cyclic_shift(base, mu)``.
    The mu-th factorization is the 2 x 2 block system
    H = diag(H_mu, H_{mu+1}) - E_mu, Q = [[0, 0], [a, 0]], Q+ = [[0, a+], [0, 0]]
    with a, a+ the ladder of ``shifted[mu]`` and E_mu = ``ground_energies[mu]``.
    No operator is stored; :func:`verify_sqm` builds the K x K blocks it reads.
    """

    base: AlgebraParams
    omegas: tuple[Fraction, ...]
    ground_energies: tuple[Fraction, ...]
    members: tuple[Ladder, ...]
    shifted: tuple[AlgebraParams, ...]
    trunc: int

    def __post_init__(self):
        # a missing or short member would make every check compare less, and pass
        if not (self.trunc >= 2 * self.lam and len(self.members) == self.lam + 1
                and all(len(m.firsts) == self.lam for m in self.members)):
            raise ValueError(f"need {self.lam + 1} members of lambda firsts, K >= {2 * self.lam}")

    @property
    def lam(self) -> int:
        return self.base.lam


def build_hierarchy(p: AlgebraParams, trunc: int = 60) -> SusyHierarchy:
    """Assemble the hierarchy for a parameter point inside the SUSY window.

    Member mu is the ladder F(N + mu), its firsts a slice of one pass over n < 2 lambda;
    with the shifted algebras this realizes the factorization chain whose mu-th
    ground energy is the partial spacing sum F(mu) = omega_0 + ... + omega_{mu-1},
    read from the same pass (F(lambda) = lambda). Raises :class:`WindowViolation`
    outside the window, naming the offending spacing.
    """
    lam = p.lam
    if trunc < 2 * lam:
        raise InadmissibleParams(f"truncation {trunc} too small, need >= {2 * lam}")
    omegas = tuple(1 + a for a in p.alphas)
    for mu, w in enumerate(omegas):
        if w <= 0:
            raise WindowViolation(f"omega_{mu} = {w} <= 0")
    f = [p.structure_function(n) for n in range(2 * lam)]
    return SusyHierarchy(
        base=p, omegas=omegas, ground_energies=tuple(f[:lam + 1]),
        members=tuple(Ladder(tuple(f[mu:mu + lam]), Fraction(lam)) for mu in range(lam + 1)),
        shifted=tuple(cyclic_shift(p, mu) for mu in range(lam)), trunc=trunc,
    )


def _block_gap(h: SusyHierarchy, mu: int, j: int) -> Fraction:
    """Member mu + j against E_mu + F_q(n + j) on n < K - 1, q = ``shifted[mu]``."""
    q, ground = h.shifted[mu], h.ground_energies[mu]
    target = Ladder(tuple(ground + q.structure_function(nu + j) for nu in range(q.lam)), q.lam)
    return h.members[mu + j].gap(target, h.trunc - 1)


def superalgebra_gap(h: SusyHierarchy) -> Fraction:
    """Exact worst residual of {Q, Q+} = H over all members, on levels n < K - 1.

    As K >= 2 lambda, that window spans every first and a period: a zero holds at every n.
    With q = ``shifted[mu]``, a+ a = F_q(N) and a a+ = F_q(N + 1), so it reads
    H_mu(n) = E_mu + F_q(n) and H_{mu+1}(n) = E_mu + F_q(n + 1), two ladders of
    period lambda. Both give H_{mu+1}(n) = H_mu(n + 1), so [H, Q] = 0 = [H, Q+];
    Q's one block lies below the diagonal, so Q^2 = (Q+)^2 = 0 by its shape.
    """
    return max(_block_gap(h, mu, j) for mu in range(h.lam) for j in (0, 1))


def shift_flags(h: SusyHierarchy) -> tuple[bool, bool]:
    """Exactly: (last member == first + total spacing, cyclic_shift(shifted[-1], 1) == base)."""
    w, first = sum(h.omegas, Fraction(0)), h.members[0]
    raised = Ladder(tuple(x + w for x in first.firsts), first.period)
    return not h.members[h.lam].gap(raised, h.trunc), cyclic_shift(h.shifted[-1], 1) == h.base


@dataclass(frozen=True)
class SqmReport:
    """Residuals of the superalgebra relations, per hierarchy member."""

    per_mu: tuple[dict[str, float], ...]
    hierarchy_shift_exact: bool
    shift_periodic: bool
    path_agreement: tuple[float, ...]
    tol: float

    @property
    def max_residual(self) -> float:
        worst = max(max(d.values()) for d in self.per_mu)
        return max(worst, max(self.path_agreement))

    @property
    def all_pass(self) -> bool:
        return (
            self.max_residual < self.tol
            and self.hierarchy_shift_exact
            and self.shift_periodic
        )


def verify_sqm(h: SusyHierarchy, tol: float = 1e-12) -> SqmReport:
    """Check the superalgebra relations for every member, on the interior window.

    Per mu: Q^2 = 0, (Q+)^2 = 0, [H, Q] = 0, [H, Q+] = 0, {Q, Q+} = H.
    Globally: the two exact :func:`shift_flags`, and the two construction
    paths for each member agree.

    The float realization of :func:`superalgebra_gap`: it builds each
    ``shifted[mu]`` ladder with :func:`~cext_osc.fockrep.build_operators` and
    works on K x K blocks. With upper = H_mu - E_mu and lower = H_{mu+1} - E_mu
    as vectors, [H, Q] is ``lower[:, None] * a - a * upper`` and {Q, Q+} - H
    is a+ a - upper and a a+ - lower. Q has one nonzero block, below the
    diagonal, so Q Q and Q+ Q+ vanish block by block and their residuals are
    exactly 0.0. A tol outside [0, inf) raises ValueError.
    """
    import numpy as np

    from .fockrep import _interior_max, build_operators

    _valid_tol(tol)
    lam, trunc = h.lam, h.trunc
    cut = trunc - 1
    members = np.array([m.floats(trunc) for m in h.members])
    per_mu = []
    # second construction route: ladder products of the shifted algebras
    agreement = []
    for mu in range(lam):
        ops = build_operators(h.shifted[mu], trunc)
        a, a_dag = ops.a, ops.a_dag
        ground = float(h.ground_energies[mu])
        upper, lower = members[mu] - ground, members[mu + 1] - ground
        ata, aat = a_dag @ a, a @ a_dag
        per_mu.append({
            # Q has only its lower-left block, so Q Q and Q+ Q+ are exactly zero
            "supercharge_nilpotent": 0.0,
            "adjoint_nilpotent": 0.0,
            "commutes_q": _interior_max(lower[:, None] * a - a * upper, cut),
            "commutes_q_dag": _interior_max(upper[:, None] * a_dag - a_dag * lower, cut),
            "anticommutator_closes": max(
                _interior_max(ata - np.diag(upper), cut),
                _interior_max(aat - np.diag(lower), cut)),
        })
        if mu == 0:
            agreement.append(_interior_max(ata - np.diag(members[0]), cut))
        agreement.append(_interior_max(
            aat + ground * np.eye(trunc) - np.diag(members[mu + 1]), cut))
    shift_exact, periodic = shift_flags(h)
    return SqmReport(
        per_mu=tuple(per_mu),
        hierarchy_shift_exact=shift_exact,
        shift_periodic=periodic,
        path_agreement=tuple(agreement),
        tol=tol,
    )


def check_interlacing(h: SusyHierarchy, count: int) -> bool:
    """Exact check of the interlaced eigenvalue ladder of all members.

    The n-th eigenvalue of member mu must equal k * Omega + E_nu, the partial
    spacing sum, where n + mu = lambda * k + nu: a ladder of period Omega = E_lambda
    as stored. The window that :func:`build_hierarchy` enforces makes each
    member increase with n, so no sort is needed. Above count lambda, True holds at every n.
    """
    lam, g = h.lam, h.ground_energies
    # a count below 1 would compare nothing and pass on any hierarchy
    if not 1 <= count <= h.trunc - lam:
        raise ValueError(f"count must be in 1..{h.trunc - lam}, got {count}")
    ladder = [*g[:lam], *(g[lam] + e for e in g[:lam])]  # its levels m < 2 lambda
    return not any(member.gap(Ladder(tuple(ladder[mu:mu + lam]), g[lam]), count)
                   for mu, member in enumerate(h.members))


def projection_shift_identity(h: SusyHierarchy, tol: float = 1e-12) -> bool:
    """Verify each member against its shifted algebra's bosonic Hamiltonian.

    Member mu must equal E_mu plus H0 of q = ``shifted[mu]`` minus half the spacing-weighted
    projector sum. As H0 = (F_q(N) + F_q(N + 1)) / 2, that is H0 - sum (1 + alpha_nu) P_nu / 2
    = F_q(N) exactly: the upper block of :func:`superalgebra_gap`. For lambda = 3 the rewrites
    in terms of H0 of ``shifted[0]``, the ladder with firsts E(nu), are checked as well; all
    on levels n < K - 1; a worst residual >= ``tol`` fails, one outside [0, inf) raises.
    """
    _valid_tol(tol)
    worst = max(_block_gap(h, mu, 0) for mu in range(h.lam))
    if h.lam == 3:
        a, e = h.base.alphas, [h.shifted[0].energy(nu) for nu in range(3)]
        rewrites = [[e[nu] - (1 + a[nu]) / 2 for nu in range(3)],
                    [e[nu] + (1 + a[nu]) / 2 for nu in range(3)],
                    [e[nu] + (3 + a[(nu + 1) % 3] - a[(nu + 2) % 3]) / 2 for nu in range(3)]]
        worst = max(worst, *(h.members[mu].gap(Ladder(tuple(r), 3), h.trunc - 1)
                             for mu, r in enumerate(rewrites)))
    return worst < tol
