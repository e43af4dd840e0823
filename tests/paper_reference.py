"""Closed forms of the paper that no command reads, kept as references for the tests.

The Fock-state norms and the position of the lowest doubly-degenerate level
are printed results of the paper, not quantities the library computes: the
acceptance criteria and ``tests/test_spectrum.py`` compare the library's
spectra and the exact products against them.
"""

import math
from fractions import Fraction


def normalization_constant(p, n):
    """Exact norm-squared of (a+)^n |0>: the product F(1) F(2) ... F(n)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prod = Fraction(1)
    for i in range(1, n + 1):
        prod *= p.structure_function(i)
    return prod


def normalization_constant_gamma(p, n):
    """Closed-form normalization constant, the exp of :func:`log_normalization_constant_gamma`.

    Agrees with the exact product to ~1e-10 relative; overflows a float from n = 171 on.
    """
    return math.exp(log_normalization_constant_gamma(p, n))


def log_normalization_constant_gamma(p, n):
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


def lowest_double_position(t):
    """1-based position of the lowest doubly-degenerate group of a lambda=3 a/b/c label."""
    if t.variant not in ("a", "b", "c"):
        raise ValueError(f"{t.label} has no doubly-degenerate level")
    n, m = t.n, t.m
    if t.family == "I":
        return n + 1 if t.variant == "a" else n + 2
    if t.family == "II":
        return {"a": 2 * m + n, "b": n, "c": 2 * m + n - 1}[t.variant]
    return {"a": 2 * m + n + 1, "b": n + 1, "c": 2 * m + n}[t.variant]
