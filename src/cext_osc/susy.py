"""Supersymmetric hierarchy built from cyclically shifted oscillator algebras.

Each member Hamiltonian is the structure function evaluated at a shifted
number operator; the supercharges are block matrices over the shifted
algebras' ladder operators, and together they satisfy the two-generator
superalgebra relations member by member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, InadmissibleParams, WindowViolation, new_params
from .fockrep import OperatorSet, _interior_max, build_operators


def cyclic_shift(p: AlgebraParams, mu: int) -> AlgebraParams:
    """The algebra with parameters alpha'_nu = alpha_{nu + mu mod lambda}.

    The shifted vector still sums to zero; Fock existence is re-validated
    (it holds automatically whenever all 1 + alpha_nu > 0).
    """
    if mu < 0:
        raise ValueError(f"shift must be >= 0, got {mu}")
    lam = p.lam
    head = [p.alphas[(nu + mu) % lam] for nu in range(lam - 1)]
    return new_params(lam, head)


@dataclass(frozen=True)
class SusyHierarchy:
    """The lambda+1 member Hamiltonians and lambda supercharge pairs, stored once.

    ``diagonals[mu][n]`` is the exact eigenvalue F(n + mu) of the mu-th
    member on level n. The mu-th factorization is the 2 x 2 block system
    H = diag(H_mu, H_{mu+1}) - E_mu, Q = [[0, 0], [a, 0]], Q+ = [[0, a+], [0, 0]]
    with a, a+ from ``shifted_ops[mu]`` and E_mu = ``ground_energies[mu]``;
    only these K x K blocks are stored, never a 2K x 2K matrix.
    """

    base: AlgebraParams
    shifted: tuple[AlgebraParams, ...]
    omegas: tuple[Fraction, ...]
    ground_energies: tuple[Fraction, ...]
    diagonals: tuple[tuple[Fraction, ...], ...]
    shifted_ops: tuple[OperatorSet, ...]
    trunc: int

    @property
    def lam(self) -> int:
        return self.base.lam


def build_hierarchy(p: AlgebraParams, trunc: int = 60) -> SusyHierarchy:
    """Assemble the hierarchy for a parameter point inside the SUSY window.

    Member mu is the diagonal F(N + mu); together with the shifted ladder
    matrices this realizes the factorization chain whose mu-th ground energy
    is the partial spacing sum. Raises :class:`WindowViolation` outside the
    window, naming the offending spacing.
    """
    lam = p.lam
    if trunc < 2 * lam:
        raise InadmissibleParams(f"truncation {trunc} too small, need >= {2 * lam}")
    omegas = tuple(1 + a for a in p.alphas)
    for mu, w in enumerate(omegas):
        if w <= 0:
            raise WindowViolation(f"omega_{mu} = {w} <= 0")
    shifted = tuple(cyclic_shift(p, mu) for mu in range(lam))
    shifted_ops = tuple(build_operators(q, trunc) for q in shifted)
    ground = [Fraction(0)]
    for w in omegas:
        ground.append(ground[-1] + w)
    diagonals = tuple(
        tuple(p.structure_function(n + mu) for n in range(trunc))
        for mu in range(lam + 1)
    )
    return SusyHierarchy(
        base=p, shifted=shifted, omegas=omegas, ground_energies=tuple(ground),
        diagonals=diagonals, shifted_ops=shifted_ops, trunc=trunc,
    )


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
    Globally: the last member equals the first shifted by the total spacing
    (exact rational check), shifting by lambda returns the base algebra, and
    the two construction paths for each member agree.

    Everything is evaluated on the K x K blocks of :class:`SusyHierarchy`:
    with upper = H_mu - E_mu and lower = H_{mu+1} - E_mu as vectors, [H, Q] is
    ``lower[:, None] * a - a * upper`` and {Q, Q+} - H is a+ a - upper and
    a a+ - lower. Q has one nonzero block, below the diagonal, so Q Q and
    Q+ Q+ vanish block by block and their residuals are exactly 0.0.
    """
    lam, trunc = h.lam, h.trunc
    cut = trunc - 1
    members = np.array(h.diagonals, dtype=float)
    per_mu = []
    # second construction route: ladder products of the shifted algebras
    agreement = []
    for mu in range(lam):
        a, a_dag = h.shifted_ops[mu].a, h.shifted_ops[mu].a_dag
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
    big_omega = sum(h.omegas, Fraction(0))
    shift_exact = all(
        h.diagonals[lam][n] == h.diagonals[0][n] + big_omega for n in range(trunc)
    )
    periodic = cyclic_shift(h.base, lam) == h.base
    return SqmReport(
        per_mu=tuple(per_mu),
        hierarchy_shift_exact=shift_exact,
        shift_periodic=periodic,
        path_agreement=tuple(agreement),
        tol=tol,
    )


def check_interlacing(h: SusyHierarchy, count: int) -> bool:
    """Exact check of the interlaced eigenvalue ladder of all members.

    The n-th eigenvalue of member mu must equal k * Omega + the partial
    spacing sum, where n + mu = lambda * k + nu.
    """
    lam = h.lam
    if count > h.trunc - lam:
        raise ValueError(f"count must be <= {h.trunc - lam}")
    big_omega = sum(h.omegas, Fraction(0))
    for mu in range(lam + 1):
        diag = sorted(h.diagonals[mu][:count])
        for n in range(count):
            k, nu = divmod(n + mu, lam)
            expect = k * big_omega + sum(h.omegas[:nu], Fraction(0))
            if diag[n] != expect:
                return False
    return True


def projection_shift_identity(h: SusyHierarchy, tol: float = 1e-12) -> bool:
    """Verify each member against its shifted algebra's bosonic Hamiltonian.

    Member mu must equal H0 of the mu-th shifted algebra minus half the
    spacing-weighted projector sum plus the ground energy; for lambda = 3
    the explicit rewrites in terms of the base bosonic Hamiltonian are
    checked as well.
    """
    lam, trunc = h.lam, h.trunc
    cut = trunc - 1
    members = np.array(h.diagonals, dtype=float)
    projectors = h.shifted_ops[0].projectors
    for mu in range(lam):
        ops = h.shifted_ops[mu]
        combo = sum(
            float(1 + h.shifted[mu].alphas[nu]) * projectors[nu] for nu in range(lam)
        )
        rhs = ops.h0 - combo / 2 + float(h.ground_energies[mu]) * np.eye(trunc)
        if _interior_max(rhs - np.diag(members[mu]), cut) >= tol:
            return False
    if lam == 3:
        a = h.base.alphas
        h0_base = h.shifted_ops[0].h0
        combos = [
            sum(-float(1 + a[nu]) / 2 * projectors[nu] for nu in range(3)),
            sum(float(1 + a[nu]) / 2 * projectors[nu] for nu in range(3)),
            sum(
                float(3 + a[(nu + 1) % 3] - a[(nu + 2) % 3]) / 2 * projectors[nu]
                for nu in range(3)
            ),
        ]
        for mu in range(3):
            rhs = h0_base + combos[mu]
            if _interior_max(rhs - np.diag(members[mu]), cut) >= tol:
                return False
    return True
