import random
from fractions import Fraction

import pytest

from cext_osc import new_params
from cext_osc.spectrum import random_admissible_params

# (alpha0, alpha1) -> taxonomy label, from the worked examples of the
# level-diagram figures.
CAPTION_CASES = [
    (0, 6, "I.1.2"),
    (0, 9, "I.2.2"),
    (10, 4, "II.1.2.2"),
    (10, 7, "II.2.2.2"),
    (18, -12, "III.1.2.2"),
    (21, -15, "III.2.2.2"),
    (0, 10, "I.2.a"),
    (0, 8, "I.2.b"),
    (10, 6, "II.2.2.a"),
    (10, 2, "II.2.2.b"),
    (8, 4, "II.2.2.c"),
    (24, -14, "III.2.2.a"),
    (24, -16, "III.2.2.b"),
    (20, -12, "III.2.2.c"),
    (2, 8, "I.2.abc"),
    (8, 2, "II.1.2.abc"),
    (14, -10, "III.1.1.abc"),
]


def params3(a0, a1):
    return new_params(3, [Fraction(a0), Fraction(a1)])


def reference_energy(p, n):
    """E(n) = n + 1/2 + (beta_mu + beta_{mu+1}) / 2 with beta_lambda = 0, mu = n mod lambda.

    Built from ``p.betas`` alone, independent of ``AlgebraParams.energy``.
    """
    mu = n % p.lam
    upper = p.betas[mu + 1] if mu + 1 < p.lam else 0
    return n + Fraction(1, 2) + (p.betas[mu] + upper) / 2


@pytest.fixture
def rng():
    return random.Random(20240826)


def sample_points(rng, count, lam=3, **kwargs):
    return [random_admissible_params(rng, lam=lam, **kwargs) for _ in range(count)]


def random_susy_params(rng, lam=3, max_numer=24, max_denom=8):
    """Random point inside the supersymmetric window for any lambda.

    Draws positive rational spacings, rescales them to sum to lambda, and
    sets alpha_mu = omega_mu - 1; every such point is admissible and every
    1 + alpha_mu is positive.
    """
    raw = [Fraction(rng.randint(1, max_numer), rng.randint(1, max_denom))
           for _ in range(lam)]
    total = sum(raw)
    omegas = [lam * r / total for r in raw]
    return new_params(lam, [w - 1 for w in omegas[:-1]])
