"""Exact-rational parameters of cyclic-group-extended oscillator algebras.

All scalar data (deformation parameters, structure-function values, level
energies) live in ``fractions.Fraction`` so that equalities used downstream
for degeneracy detection and region classification are decidable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

RationalLike = Fraction | int | str
MAX_EXPONENT = 3000  # largest |exponent| of a decimal string; 10**3000 has 9966 bits
# The strings parse_rational takes: an optional sign, ASCII digits, then '/q' or an optional
# decimal part and exponent.  This is Fraction's grammar less what only some Python versions
# accept ('_' in numbers, blanks around '/') and less digits other than 0-9.
_RATIONAL = re.compile(r"[-+]?(?=\.?[0-9])[0-9]*"
                       r"(?:/[0-9]+|(?:\.[0-9]*)?(?:[eE](?P<exp>[-+]?[0-9]+))?)")


class ExistenceViolation(ValueError):
    """The Fock space does not exist: F(mu) <= 0 for the given subspace index."""

    def __init__(self, mu: int, value: Fraction):
        self.mu = mu
        self.value = value
        super().__init__(f"F({mu}) = {value} <= 0: bosonic Fock space does not exist")


class UnsupportedLambda(ValueError):
    """Operation only defined for a specific cyclic-group order."""


class InadmissibleParams(ValueError):
    """Parameters outside the admissible domain."""


class WindowViolation(ValueError):
    """Some spacing 1 + alpha_mu is <= 0: no supersymmetric hierarchy."""


def _as_fraction(x: RationalLike) -> Fraction:
    # a bool is an int to Python, but True as a deformation parameter is a mistake
    if isinstance(x, (float, bool)):
        raise TypeError(
            f"refusing {type(x).__name__} {x!r}: pass Fraction, int, or a 'p/q' string"
        )
    if isinstance(x, str):
        return parse_rational(x)
    return x if isinstance(x, Fraction) else Fraction(x)


def _float(x: Fraction) -> float:
    """``float(x)``; an exact value beyond the float range is an input error, not a fault."""
    try:
        return float(x)
    except OverflowError:
        raise InadmissibleParams("an energy of this point is beyond the float range") from None


def _valid_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:  # a NaN fails this test too
        raise InadmissibleParams(f"tol must be a finite number >= 0, got {tol}")


@dataclass(frozen=True)
class Ladder:
    """Levels L(lambda k + nu) = firsts[nu] + k * period, lambda = len(firsts); F is one."""

    firsts: tuple[Fraction, ...]
    period: Fraction

    def __post_init__(self):
        if not self.firsts:  # lambda = 0: at() would divide by zero and gap() compare nothing
            raise ValueError("a ladder needs at least one first value")

    def at(self, n: int) -> Fraction:
        k, nu = divmod(n, len(self.firsts))
        return self.firsts[nu] + k * self.period

    def floats(self, count: int) -> list[float]:
        """float(at(n)) for n < count: int quotients over one denominator, correctly rounded."""
        d = math.lcm(self.period.denominator, *(f.denominator for f in self.firsts))
        nums, step, lam = [int(f * d) for f in self.firsts], int(self.period * d), len(self.firsts)
        return [(nums[n % lam] + n // lam * step) / d for n in range(count)]

    def gap(self, other: Ladder, cut: int) -> Fraction:
        """Exact max |L(n) - other(n)| over n < cut; ValueError if lengths differ or cut < 1."""
        if cut < 1:  # the window would be empty, and any two ladders would pass
            raise ValueError(f"cut must be >= 1, got {cut}")
        lam = len(self.firsts)
        if len(other.firsts) != lam:  # the shorter would compare fewer residues, and pass
            raise ValueError(f"ladders of {lam} and {len(other.firsts)} firsts")
        if self == other:  # no Fraction arithmetic in the common, passing case
            return Fraction(0)
        # per residue nu the difference is affine in k: its max lies at k = 0 or at the last k
        step, worst = self.period - other.period, Fraction(0)
        for nu in range(min(lam, cut)):
            diff = self.firsts[nu] - other.firsts[nu]
            worst = max(worst, abs(diff), abs(diff + (cut - 1 - nu) // lam * step))
        return worst


@dataclass(frozen=True)
class AlgebraParams:
    """Parameter vector (alpha_0, ..., alpha_{lambda-1}) with zero sum.

    ``alphas`` is the only stored state: ``lam`` is its length, ``betas[mu]``
    the partial sum ``alpha_0 + ... + alpha_{mu-1}`` (so ``betas[0] = 0``) and
    ``integer_form`` the alphas over one denominator, all derived on first use;
    the structure function is ``F(n) = n + betas[n % lam]``.  Use
    :func:`new_params` to build from the independent head parameters.  Entries
    follow :func:`new_params`'s rule and are stored as a tuple of ``Fraction``;
    a float or bool raises ``TypeError``.
    """

    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(map(_as_fraction, self.alphas)))
        if self.lam < 2:
            raise InadmissibleParams(f"lambda must be >= 2, got {self.lam}")
        d, nums = self.integer_form
        if sum(nums) != 0:
            raise InadmissibleParams(f"sum of alphas must vanish, got {sum(self.alphas)}")
        partial = 0  # d * beta_mu
        for mu in range(1, self.lam):
            partial += nums[mu - 1]
            if mu * d + partial <= 0:  # d * F(mu) <= 0
                raise ExistenceViolation(mu, mu + Fraction(partial, d))

    @cached_property
    def lam(self) -> int:
        """lambda, the order of the cyclic group: the number of alphas."""
        return len(self.alphas)

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(d, (d alpha_0, ..., d alpha_{lambda-1})), d the lcm of the alphas' denominators."""
        d = math.lcm(*(a.denominator for a in self.alphas))
        return d, tuple(a.numerator * (d // a.denominator) for a in self.alphas)

    @cached_property
    def betas(self) -> tuple[Fraction, ...]:
        """Partial sums beta_mu = alpha_0 + ... + alpha_{mu-1}, mu < lambda."""
        d, nums = self.integer_form
        return tuple(Fraction(b, d) for b in accumulate(nums[:-1], initial=0))

    def structure_function(self, n: int) -> Fraction:
        """F(n) = n + beta_{n mod lambda}; solves F(n+1) - F(n) = G(n), F(0) = 0."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return n + self.betas[n % self.lam]

    def structure_ladder(self) -> Ladder:
        """F as a ladder: firsts F(0), ..., F(lambda - 1), period lambda."""
        return Ladder(tuple(mu + b for mu, b in enumerate(self.betas)), Fraction(self.lam))

    def g_function(self, n: int) -> Fraction:
        """G(n) = 1 + alpha_{n mod lambda}, the deformed commutator eigenvalue."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return 1 + self.alphas[n % self.lam]

    def gamma_coeffs(self) -> tuple[Fraction, ...]:
        """Energy offsets per subspace: gamma_mu = (beta_mu + beta_{mu+1}) / 2.

        The wrap-around term uses beta_lambda = 0, which reproduces the
        closed lambda=3 expressions (alpha_0/2, (2 alpha_0 + alpha_1)/2,
        (alpha_0 + alpha_1)/2) exactly.
        """
        betas = self.betas + (Fraction(0),)
        return tuple((betas[mu] + betas[mu + 1]) / 2 for mu in range(self.lam))

    @cached_property
    def _ground(self) -> tuple[Fraction, ...]:
        """Ground energies E(0), ..., E(lambda-1), computed on first use.

        Not a dataclass field, so equality, hashing and ``repr`` ignore it,
        and ``dataclasses.replace`` builds an instance without it.
        """
        return tuple(mu + Fraction(1, 2) + g for mu, g in enumerate(self.gamma_coeffs()))

    def energy(self, n: int) -> Fraction:
        """Oscillator-Hamiltonian eigenvalue of level n: n + 1/2 + gamma_{n mod lambda}.

        Level lambda*k + mu sits at E(mu) + lambda*k, an integer shift of its
        subspace's ground level.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        mu = n % self.lam
        ground = self._ground[mu]
        return ground + (n - mu) if n >= self.lam else ground


def new_params(lam: int, alphas_head: Sequence[RationalLike]) -> AlgebraParams:
    """Build an admissible parameter vector from its lambda-1 free entries.

    The last entry is fixed by the zero-sum constraint; Fock-space existence
    (F(mu) > 0 for mu = 1 .. lambda-1) is validated and the first failing
    subspace reported via :class:`ExistenceViolation`.
    """
    if lam < 2:
        raise InadmissibleParams(f"lambda must be >= 2, got {lam}")
    head = tuple(_as_fraction(a) for a in alphas_head)
    if len(head) != lam - 1:
        raise InadmissibleParams(
            f"expected {lam - 1} head parameters for lambda={lam}, got {len(head)}"
        )
    return AlgebraParams(alphas=head + (-sum(head, Fraction(0)),))


@dataclass(frozen=True)
class KappaPair:
    """The complex constant kappa_1 (kappa_2 = kappa_1* implied), lambda = 3.

    The imaginary part carries an irrational factor, so the stored field is
    ``im_kappa1_sqrt3`` = sqrt(3) * Im(kappa_1), keeping the map to the
    alpha parameters rational-exact.
    """

    re_kappa1: Fraction
    im_kappa1_sqrt3: Fraction


def kappa_to_alpha(k: KappaPair) -> AlgebraParams:
    """alpha_0 = 2 Re k1, alpha_1 = -Re k1 - sqrt(3) Im k1 (lambda = 3)."""
    a0 = 2 * k.re_kappa1
    a1 = -k.re_kappa1 - k.im_kappa1_sqrt3
    return new_params(3, [a0, a1])


def alpha_to_kappa(p: AlgebraParams) -> KappaPair:
    """Inverse of :func:`kappa_to_alpha`; defined for lambda = 3 only."""
    if p.lam != 3:
        raise UnsupportedLambda(f"kappa map requires lambda=3, got {p.lam}")
    re = p.alphas[0] / 2
    im_sqrt3 = -p.alphas[1] - re
    return KappaPair(re_kappa1=re, im_kappa1_sqrt3=im_sqrt3)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or finite-decimal strings without float round-off.

    ``_RATIONAL`` is the grammar, the same on every supported Python; blanks may surround
    the text.  A decimal exponent beyond +-MAX_EXPONENT is refused before 10**exponent is built.
    """
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise InadmissibleParams(f"cannot parse rational {text!r}")
    exponent = (match["exp"] or "").lstrip("+-").lstrip("0")
    # its length first: int() of a 5000-digit exponent is slow, or refused by Python
    if len(exponent) > len(str(MAX_EXPONENT)) or int(exponent or 0) > MAX_EXPONENT:
        raise InadmissibleParams(f"the exponent of {text!r} is beyond +-{MAX_EXPONENT}")
    try:
        return Fraction(match[0])
    except (ValueError, ZeroDivisionError) as exc:  # a value past the int-to-str limit, or 'p/0'
        raise InadmissibleParams(f"cannot parse rational {text!r}") from exc
