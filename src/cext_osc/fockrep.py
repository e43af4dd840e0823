"""Truncated Fock-space operators for the algebra generators and relation checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraParams, InadmissibleParams


@dataclass(frozen=True)
class OperatorSet:
    """The generators at truncation K, each stored as what it is.

    ``a`` and ``a_dag`` are dense K x K complex matrices with one band each;
    ``t`` holds the phases of the diagonal generator T.  N and the projectors
    P_mu are not stored: they are fixed by K and lambda (``n`` and
    ``n % lambda == mu``).
    """

    params: AlgebraParams
    trunc: int
    a: np.ndarray
    a_dag: np.ndarray
    t: np.ndarray


def build_operators(p: AlgebraParams, trunc: int) -> OperatorSet:
    """Build the generators at truncation ``trunc`` (>= 2*lambda).

    a+ has subdiagonal sqrt(F(n+1)), real because an admissible point has
    F(lambda k + mu) = lambda k + F(mu) > 0 above the vacuum; a is its
    conjugate transpose; T is the diagonal cyclic-group generator
    exp(2 pi i n / lambda).
    """
    lam = p.lam
    if trunc < 2 * lam:
        raise InadmissibleParams(f"truncation {trunc} too small, need >= {2 * lam}")
    sub = [math.sqrt(f) for f in _structure_floats(p, trunc)[1:]]
    a_dag = np.diag(sub, -1).astype(complex)
    a = a_dag.conj().T
    # exp(2 pi i n / lambda) depends on n mod lambda only; reducing first keeps
    # the argument small, so the phase carries no round-off that grows with n
    t = np.exp(2j * np.pi * (np.arange(trunc) % lam) / lam)
    return OperatorSet(params=p, trunc=trunc, a=a, a_dag=a_dag, t=t)


def _structure_floats(p: AlgebraParams, count: int) -> list[float]:
    """float(F(n)) for n < count as the int quotient (n d + d beta) / d, correctly rounded."""
    d = math.lcm(*(b.denominator for b in p.betas))
    nums = [int(b * d) for b in p.betas]
    return [(n * d + nums[n % p.lam]) / d for n in range(count)]


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
    """Closed-form normalization constant, the exp of :func:`log_normalization_constant_gamma`.

    Agrees with the exact product to ~1e-10 relative; overflows a float from n = 171 on.
    """
    return math.exp(log_normalization_constant_gamma(p, n))


def log_normalization_constant_gamma(p: AlgebraParams, n: int) -> float:
    """Log of the normalization constant via gamma functions, at any lambda and finite at any n.

    F(lambda j + mu) = lambda (j + F(mu) / lambda), so with n = lambda k + r the
    product is lambda^n k! prod_{mu >= 1} Gamma(c_mu + F(mu)/lambda) / Gamma(F(mu)/lambda),
    where c_mu = k + [mu <= r] counts the i <= n with i = mu mod lambda.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    lam = p.lam
    k, r = divmod(n, lam)
    log = n * math.log(lam) + math.lgamma(k + 1)
    for mu in range(1, lam):
        b = float(p.structure_function(mu) / lam)
        log += math.lgamma(k + (mu <= r) + b) - math.lgamma(b)
    return log


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
    return float(np.max(np.abs(window)))


def verify_relations(ops: OperatorSet, p: AlgebraParams, tol: float = 1e-12) -> RelationReport:
    """Check the defining relations of the algebra on the truncated operators.

    Residuals are maxima of |lhs - rhs| over the interior window n < K - 1,
    where the last row and column of a product such as a a+ are polluted by
    the cutoff; failures are reported, never raised.  A diagonal generator
    multiplies elementwise: D X is ``d[:, None] * X``, X D is ``X * d``.

    The projector relations P_mu P_nu = delta_{mu nu} P_mu and sum P_mu = 1
    are not checked: P_mu is the indicator of n mod lambda = mu, so they
    hold by construction and read no stored state.
    """
    lam, trunc = p.lam, ops.trunc
    cut = trunc - 1
    a, a_dag, t = ops.a, ops.a_dag, ops.t
    level = np.arange(trunc)
    f = np.array(_structure_floats(p, trunc + 1))
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
    res["cyclic_unitary"] = _interior_max(t * t.conj() - 1, cut)
    return RelationReport(residuals=res, tol=tol)
