"""Supersymmetric hierarchy built from cyclically shifted oscillator algebras.

Each member Hamiltonian is the structure function evaluated at a shifted
number operator; the supercharges are block matrices over the shifted
algebras' ladder operators, and together they satisfy the two-generator
superalgebra relations member by member, decided in integers by
:func:`superalgebra_gap`.  Only :func:`verify_sqm`, the float realization, loads NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraParams, InadmissibleParams, WindowViolation


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

    ``diagonals[mu][n]`` is the exact eigenvalue F(n + mu) of the mu-th
    member on level n, and ``shifted[mu]`` is ``cyclic_shift(base, mu)``.
    The mu-th factorization is the 2 x 2 block system
    H = diag(H_mu, H_{mu+1}) - E_mu, Q = [[0, 0], [a, 0]], Q+ = [[0, a+], [0, 0]]
    with a, a+ the ladder of ``shifted[mu]`` and E_mu = ``ground_energies[mu]``.
    No operator is stored; :func:`verify_sqm` builds the K x K blocks it reads.
    """

    base: AlgebraParams
    omegas: tuple[Fraction, ...]
    ground_energies: tuple[Fraction, ...]
    diagonals: tuple[tuple[Fraction, ...], ...]
    shifted: tuple[AlgebraParams, ...]
    trunc: int

    @property
    def lam(self) -> int:
        return self.base.lam


def build_hierarchy(p: AlgebraParams, trunc: int = 60) -> SusyHierarchy:
    """Assemble the hierarchy for a parameter point inside the SUSY window.

    Member mu is the diagonal F(N + mu), a slice of one pass over n < K + lambda;
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
    f = [p.structure_function(n) for n in range(trunc + lam)]
    return SusyHierarchy(
        base=p, omegas=omegas, ground_energies=tuple(f[:lam + 1]),
        diagonals=tuple(tuple(f[mu:mu + trunc]) for mu in range(lam + 1)),
        shifted=tuple(cyclic_shift(p, mu) for mu in range(lam)), trunc=trunc,
    )


def _worst_gap(values, targets, d: int) -> Fraction:
    """Exact max |values[n] - targets[n] / d|, targets integers; equal entries make no Fraction."""
    return max((abs(v - Fraction(t, d)) for v, t in zip(values, targets)
                if v.numerator * d != t * v.denominator), default=Fraction(0))


def superalgebra_gap(h: SusyHierarchy) -> Fraction:
    """Exact worst residual of {Q, Q+} = H over all members, on levels n < K - 1.

    With q = ``shifted[mu]``, a+ a = F_q(N) and a a+ = F_q(N + 1), so it reads
    H_mu(n) = E_mu + F_q(n) and H_{mu+1}(n) = E_mu + F_q(n + 1), compared in
    integers. Both give H_{mu+1}(n) = H_mu(n + 1), so [H, Q] = 0 = [H, Q+];
    Q's one block lies below the diagonal, so Q^2 = (Q+)^2 = 0 by its shape.
    """
    cut, worst = h.trunc - 1, Fraction(0)
    for mu, q in enumerate(h.shifted):
        ground = h.ground_energies[mu]
        d = math.lcm(ground.denominator, *(b.denominator for b in q.betas))
        e, betas = int(ground * d), [int(b * d) for b in q.betas]
        f = [e + n * d + betas[n % q.lam] for n in range(cut + 1)]  # d (E_mu + F_q(n))
        worst = max(worst, _worst_gap(h.diagonals[mu], f[:cut], d),
                    _worst_gap(h.diagonals[mu + 1], f[1:], d))
    return worst


def shift_flags(h: SusyHierarchy) -> tuple[bool, bool]:
    """Exactly: (last member == first + total spacing, shift by lambda == base)."""
    w = sum(h.omegas, Fraction(0))
    # x - y == w, cross-multiplied over the common denominator of x, y and w
    shift_exact = all((x.numerator * y.denominator - y.numerator * x.denominator) * w.denominator
                      == w.numerator * x.denominator * y.denominator
                      for x, y in zip(h.diagonals[h.lam], h.diagonals[0]))
    return shift_exact, cyclic_shift(h.base, h.lam) == h.base


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
    exactly 0.0.
    """
    import numpy as np

    from .fockrep import _interior_max, build_operators

    lam, trunc = h.lam, h.trunc
    cut = trunc - 1
    members = np.array(h.diagonals, dtype=float)
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
    spacing sum, where n + mu = lambda * k + nu; both sides are integers over the
    ground energies' common denominator. The window that :func:`build_hierarchy`
    enforces makes each member increase with n, so no sort is needed.
    """
    lam, ground = h.lam, h.ground_energies
    # a count below 1 would compare nothing and pass on any hierarchy
    if not 1 <= count <= h.trunc - lam:
        raise ValueError(f"count must be in 1..{h.trunc - lam}, got {count}")
    d = math.lcm(*(g.denominator for g in ground))
    e = [int(g * d) for g in ground]
    targets = [m // lam * e[lam] + e[m % lam] for m in range(count + lam)]
    return not any(_worst_gap(h.diagonals[mu], targets[mu:mu + count], d)
                   for mu in range(lam + 1))


def _h0_gap(member, q: AlgebraParams, offsets, cut: int) -> Fraction:
    """Exact max over n < cut of |member[n] - H0(n) - offsets[n % lambda]|, H0 that of q."""
    d = 2 * math.lcm(*(x.denominator for x in (*q.betas, *offsets)))
    betas, extra = [int(b * d) for b in q.betas], [int(x * d) for x in offsets]
    f = [n * d + betas[n % q.lam] for n in range(cut + 1)]  # d F(n), even
    return _worst_gap(member, [(f[n] + f[n + 1]) // 2 + extra[n % q.lam] for n in range(cut)], d)


def projection_shift_identity(h: SusyHierarchy, tol: float = 1e-12) -> bool:
    """Verify each member against its shifted algebra's bosonic Hamiltonian.

    Member mu must equal H0 of ``shifted[mu]`` minus half the
    spacing-weighted projector sum plus the ground energy; for lambda = 3
    the explicit rewrites in terms of the base bosonic Hamiltonian are
    checked as well.  Each side is diagonal, with H0 = (F(n) + F(n + 1)) / 2,
    and compared in integers on levels n < K - 1; a worst residual >= ``tol`` fails.
    """
    lam, cut, ground = h.lam, h.trunc - 1, h.ground_energies
    worst = max(_h0_gap(h.diagonals[mu], q, [ground[mu] - (1 + a) / 2 for a in q.alphas], cut)
                for mu, q in enumerate(h.shifted))
    if lam == 3:
        a = h.base.alphas
        combos = [
            [-(1 + a[nu]) / 2 for nu in range(3)],
            [(1 + a[nu]) / 2 for nu in range(3)],
            [(3 + a[(nu + 1) % 3] - a[(nu + 2) % 3]) / 2 for nu in range(3)],
        ]
        worst = max(worst, *(
            _h0_gap(h.diagonals[mu], h.shifted[0], combos[mu], cut) for mu in range(3)))
    # the rule "fail when worst >= tol" as written: a NaN tol fails nothing
    return not worst >= tol
