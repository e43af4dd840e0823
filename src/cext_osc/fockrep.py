"""Truncated Fock-space matrices for the algebra generators and relation checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, InadmissibleParams, UnsupportedLambda


class NegativeStructureValue(ValueError):
    """F(n) < 0 somewhere below the truncation: no real ladder matrix elements."""


@dataclass(frozen=True)
class OperatorSet:
    """Dense K x K complex matrices for N, a, a+, T, P_mu and H0.

    ``interior`` is the largest row/column index (exclusive bound K-1) up to
    which single-ladder product identities are free of truncation artifacts;
    the last row/column of products like a a+ is polluted by the cutoff.
    """

    params: AlgebraParams
    trunc: int
    n_op: np.ndarray
    a: np.ndarray
    a_dag: np.ndarray
    t: np.ndarray
    projectors: tuple[np.ndarray, ...]
    h0: np.ndarray

    @property
    def interior(self) -> int:
        return self.trunc - 1


def build_operators(p: AlgebraParams, trunc: int) -> OperatorSet:
    """Build all generator matrices at truncation ``trunc`` (>= 2*lambda).

    a+ has subdiagonal sqrt(F(n+1)); a is its conjugate transpose; T is the
    diagonal cyclic-group generator exp(2 pi i n / lambda); H0 is assembled
    from the matrix product (a a+ + a+ a)/2 rather than from the closed-form
    energies so spectrum checks stay independent.
    """
    lam = p.lam
    if trunc < 2 * lam:
        raise InadmissibleParams(f"truncation {trunc} too small, need >= {2 * lam}")
    fvals = [p.structure_function(n) for n in range(trunc)]
    for n in range(1, trunc):
        if fvals[n] < 0:
            raise NegativeStructureValue(f"F({n}) = {fvals[n]} < 0")
    a_dag = np.zeros((trunc, trunc), dtype=complex)
    for n in range(trunc - 1):
        a_dag[n + 1, n] = math.sqrt(float(fvals[n + 1]))
    a = a_dag.conj().T
    n_op = np.diag(np.arange(trunc, dtype=float)).astype(complex)
    # exp(2 pi i n / lambda) depends on n mod lambda only; reducing first keeps
    # the argument small, so the phase carries no round-off that grows with n
    phases = np.exp(2j * np.pi * (np.arange(trunc) % lam) / lam)
    t = np.diag(phases)
    projectors = tuple(
        np.diag((np.arange(trunc) % lam == mu).astype(complex)) for mu in range(lam)
    )
    h0 = (a @ a_dag + a_dag @ a) / 2
    return OperatorSet(
        params=p, trunc=trunc, n_op=n_op, a=a, a_dag=a_dag, t=t,
        projectors=projectors, h0=h0,
    )


def normalization_constant(p: AlgebraParams, n: int) -> Fraction:
    """Exact norm-squared of (a+)^n |0>: the product F(1) F(2) ... F(n)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prod = Fraction(1)
    for i in range(1, n + 1):
        prod *= p.structure_function(i)
    return prod


def normalization_constant_gamma(p: AlgebraParams, n: int) -> float:
    """Closed-form normalization constant via gamma functions (lambda = 3 only).

    Evaluated in floating point with lgamma; agrees with the exact product
    to ~1e-10 relative for moderate n.
    """
    if p.lam != 3:
        raise UnsupportedLambda(f"gamma closed form requires lambda=3, got {p.lam}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    b1 = float((p.betas[1] + 1) / 3)
    b2 = float((p.betas[2] + 2) / 3)
    k, mu = divmod(n, 3)
    log = n * math.log(3.0) - math.lgamma(b1) - math.lgamma(b2) + math.lgamma(k + 1)
    if mu == 0:
        log += math.lgamma(k + b1) + math.lgamma(k + b2)
    elif mu == 1:
        log += math.lgamma(k + 1 + b1) + math.lgamma(k + b2)
    else:
        log += math.lgamma(k + 1 + b1) + math.lgamma(k + 1 + b2)
    return math.exp(log)


@dataclass(frozen=True)
class RelationReport:
    """Per-relation maximum absolute residuals over the interior window."""

    residuals: dict[str, float]
    tol: float

    @property
    def failures(self) -> dict[str, float]:
        return {k: v for k, v in self.residuals.items() if v >= self.tol}

    @property
    def all_pass(self) -> bool:
        return not self.failures

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _interior_max(m: np.ndarray, cut: int) -> float:
    return float(np.max(np.abs(m[:cut, :cut]))) if cut > 0 else 0.0


def verify_relations(ops: OperatorSet, p: AlgebraParams, tol: float = 1e-12) -> RelationReport:
    """Check every defining relation of the algebra on the truncated matrices.

    Residuals are maxima of |lhs - rhs| restricted to the interior window;
    failures are reported, never raised.
    """
    lam = p.lam
    cut = ops.interior
    eye = np.eye(ops.trunc, dtype=complex)
    f_diag = np.diag([float(p.structure_function(n)) for n in range(ops.trunc)]).astype(complex)
    f_shift = np.diag([float(p.structure_function(n + 1)) for n in range(ops.trunc)]).astype(complex)
    g_comb = eye + sum(
        float(p.alphas[mu]) * ops.projectors[mu] for mu in range(lam)
    )
    res: dict[str, float] = {}
    res["number_ladder"] = _interior_max(
        ops.n_op @ ops.a_dag - ops.a_dag @ ops.n_op - ops.a_dag, cut)
    res["deformed_commutator"] = _interior_max(
        ops.a @ ops.a_dag - ops.a_dag @ ops.a - g_comb, cut)
    res["ladder_twist"] = _interior_max(
        ops.a_dag @ ops.t - np.exp(-2j * np.pi / lam) * (ops.t @ ops.a_dag), cut)
    res["cyclic_order"] = _interior_max(
        np.linalg.matrix_power(ops.t, lam) - eye, cut)
    res["lowering_product"] = _interior_max(ops.a_dag @ ops.a - f_diag, cut)
    res["raising_product"] = _interior_max(ops.a @ ops.a_dag - f_shift, cut)
    res["projector_algebra"] = max(
        _interior_max(
            ops.projectors[mu] @ ops.projectors[nu]
            - (ops.projectors[mu] if mu == nu else 0), cut)
        for mu in range(lam) for nu in range(lam)
    )
    res["projector_resolution"] = _interior_max(sum(ops.projectors) - eye, cut)
    res["cyclic_unitary"] = _interior_max(ops.t @ ops.t.conj().T - eye, cut)
    return RelationReport(residuals=res, tol=tol)
