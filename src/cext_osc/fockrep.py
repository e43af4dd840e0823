"""Truncated Fock-space operators for the algebra generators and relation checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, InadmissibleParams, UnsupportedLambda


@dataclass(frozen=True)
class OperatorSet:
    """The generators at truncation K, each stored as what it is.

    ``a`` and ``a_dag`` are dense K x K complex matrices with one band each;
    ``t`` (the phases of T) and ``h0`` are the length-K diagonals of the
    diagonal generators.  N and the projectors P_mu are not stored: they are
    fixed by K and lambda (``n`` and ``n % lambda == mu``).

    ``interior`` is the largest row/column index (exclusive bound K-1) up to
    which single-ladder product identities are free of truncation artifacts;
    the last row/column of products like a a+ is polluted by the cutoff.
    """

    params: AlgebraParams
    trunc: int
    a: np.ndarray
    a_dag: np.ndarray
    t: np.ndarray
    h0: np.ndarray

    @property
    def interior(self) -> int:
        return self.trunc - 1


def build_operators(p: AlgebraParams, trunc: int) -> OperatorSet:
    """Build the generators at truncation ``trunc`` (>= 2*lambda).

    a+ has subdiagonal sqrt(F(n+1)), real because an admissible point has
    F(lambda k + mu) = lambda k + F(mu) > 0 above the vacuum; a is its
    conjugate transpose; T is the
    diagonal cyclic-group generator exp(2 pi i n / lambda); H0 is the diagonal
    of (a a+ + a+ a)/2, taken from the ladder entries rather than from the
    closed-form energies so spectrum checks stay independent.
    """
    lam = p.lam
    if trunc < 2 * lam:
        raise InadmissibleParams(f"truncation {trunc} too small, need >= {2 * lam}")
    sub = [math.sqrt(float(p.structure_function(n))) for n in range(1, trunc)]
    a_dag = np.diag(sub, -1).astype(complex)
    a = a_dag.conj().T
    # exp(2 pi i n / lambda) depends on n mod lambda only; reducing first keeps
    # the argument small, so the phase carries no round-off that grows with n
    t = np.exp(2j * np.pi * (np.arange(trunc) % lam) / lam)
    h0 = (np.einsum("ij,ji->i", a, a_dag) + np.einsum("ij,ji->i", a_dag, a)).real / 2
    return OperatorSet(params=p, trunc=trunc, a=a, a_dag=a_dag, t=t, h0=h0)


def _projector_sum(values, trunc: int) -> np.ndarray:
    """The diagonal of sum_mu values[mu] P_mu: level n gets values[n % lambda]."""
    return np.array(values, dtype=float)[np.arange(trunc) % len(values)]


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
    """Max |entry| on the interior window; a 1-D ``m`` stands for a diagonal."""
    window = m[:cut] if m.ndim == 1 else m[:cut, :cut]
    return float(np.max(np.abs(window))) if cut > 0 else 0.0


def verify_relations(ops: OperatorSet, p: AlgebraParams, tol: float = 1e-12) -> RelationReport:
    """Check every defining relation of the algebra on the truncated operators.

    Residuals are maxima of |lhs - rhs| restricted to the interior window;
    failures are reported, never raised.  A diagonal generator multiplies
    elementwise: D X is ``d[:, None] * X``, X D is ``X * d``.  N and the P_mu
    are built here from ``n`` and ``n % lambda``, so ``projector_algebra`` and
    ``projector_resolution`` hold by construction and read exactly 0.
    """
    lam, trunc = p.lam, ops.trunc
    cut = ops.interior
    a, a_dag, t = ops.a, ops.a_dag, ops.t
    level = np.arange(trunc)
    f = np.array([float(p.structure_function(n)) for n in range(trunc + 1)])
    projectors = [(level % lam == mu).astype(float) for mu in range(lam)]
    aat, ata = a @ a_dag, a_dag @ a
    res: dict[str, float] = {}
    res["number_ladder"] = _interior_max(level[:, None] * a_dag - a_dag * level - a_dag, cut)
    res["deformed_commutator"] = _interior_max(
        aat - ata - np.diag(1 + _projector_sum(p.alphas, trunc)), cut)
    res["ladder_twist"] = _interior_max(
        a_dag * t - np.exp(-2j * np.pi / lam) * (t[:, None] * a_dag), cut)
    res["cyclic_order"] = _interior_max(t**lam - 1, cut)
    res["lowering_product"] = _interior_max(ata - np.diag(f[:-1]), cut)
    res["raising_product"] = _interior_max(aat - np.diag(f[1:]), cut)
    res["projector_algebra"] = max(
        _interior_max(
            projectors[mu] * projectors[nu] - (projectors[mu] if mu == nu else 0), cut)
        for mu in range(lam) for nu in range(lam)
    )
    res["projector_resolution"] = _interior_max(sum(projectors) - 1, cut)
    res["cyclic_unitary"] = _interior_max(t * t.conj() - 1, cut)
    return RelationReport(residuals=res, tol=tol)
