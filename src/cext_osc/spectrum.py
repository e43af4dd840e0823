"""Exact spectrum analysis of the bosonic oscillator Hamiltonian.

Level energies are rational, so degeneracy means rational equality, never an
epsilon test. For lambda = 3 the full named taxonomy of spectrum types is
decided by integer/rational window arithmetic on (alpha_0, alpha_1); the
exact order key of the lambda ground levels provides the independent cross-check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .algebra import AlgebraParams, InadmissibleParams, UnsupportedLambda, new_params

NONDEG_VARIANTS = ("1", "2")
DEG_VARIANTS = ("a", "b", "c", "abc")


class NotPeriodic(ValueError):
    """The spectrum is degenerate or not spaced with period lambda."""


class InvariantViolation(AssertionError):
    """An internal invariant failed: a fault of the program, not of its input.

    Raised explicitly, so ``python -O`` does not strip the check.
    """


def _invariant(holds: bool, what: str) -> None:
    if not holds:
        raise InvariantViolation(what)


@dataclass(frozen=True)
class DegeneracyPattern:
    """Levels of a spectrum prefix grouped by exact energy, ascending."""

    groups: tuple[tuple[Fraction, tuple[int, ...]], ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(g[1]) for g in self.groups)


@dataclass(frozen=True)
class PatternDescriptor:
    """Parameter-free shape of a spectrum prefix: per-group sorted level indices.

    Two parameter points share a descriptor iff their first ``prefix`` levels
    interleave and degenerate identically.
    """

    lam: int
    groups: tuple[tuple[int, ...], ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    @property
    def index_order(self) -> tuple[int, ...]:
        return tuple(i for g in self.groups for i in g)


@dataclass(frozen=True)
class SpectrumType:
    """One label of the closed lambda=3 taxonomy, with its integer indices.

    family "I" carries a single index n (m is None); families "II" and "III"
    carry (m, n). variant is "1"/"2" for nondegenerate subclasses, "a"/"b"/"c"
    for the doubly-degenerate types, "abc" for the triply-degenerate ones.
    """

    family: str
    variant: str
    n: int
    m: int | None = None

    def __post_init__(self):
        if self.family not in ("I", "II", "III"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.variant not in NONDEG_VARIANTS + DEG_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise ValueError(f"index n must be >= 1, got {self.n}")
        if self.family == "I":
            if self.m is not None:
                raise ValueError("family I has no m index")
            if self.variant == "c":
                raise ValueError("family I has no c variant")
        elif self.m is None or self.m < 1:
            raise ValueError(f"family {self.family} needs m >= 1, got {self.m}")

    @property
    def label(self) -> str:
        if self.family == "I":
            if self.variant in NONDEG_VARIANTS:
                return f"I.{self.variant}.{self.n}"
            return f"I.{self.n}.{self.variant}"
        if self.variant in NONDEG_VARIANTS:
            return f"{self.family}.{self.variant}.{self.m}.{self.n}"
        return f"{self.family}.{self.m}.{self.n}.{self.variant}"

    def __str__(self) -> str:
        return self.label


def levels(p: AlgebraParams, count: int) -> list[Fraction]:
    """Energies of the first ``count`` levels; level lambda*k + mu is E(mu) + lambda*k."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [p.energy(n) for n in range(count)]


def degeneracy_pattern(p: AlgebraParams, count: int) -> DegeneracyPattern:
    """Group the first ``count`` levels by exact energy, ascending.

    Only the ground levels are evaluated. Over their common denominator
    ``scale`` they are integers ``base[mu]``, and level n = lambda*k + mu has
    the integer key ``base[mu] + (n - mu) * scale``; the keys are sorted and
    grouped, and each group's energy is one ``Fraction(key, scale)``.
    """
    lam = p.lam
    ground = levels(p, min(count, lam))
    scale = math.lcm(*(e.denominator for e in ground))
    base = [e.numerator * (scale // e.denominator) for e in ground]
    by_key: dict[int, list[int]] = {}
    for n in range(count):
        mu = n % lam
        by_key.setdefault(base[mu] + (n - mu) * scale, []).append(n)
    groups = tuple((Fraction(key, scale), tuple(by_key[key])) for key in sorted(by_key))
    return DegeneracyPattern(groups=groups)


def classify_oracle(p: AlgebraParams, count: int = 30) -> PatternDescriptor:
    """Brute-force shape descriptor: sort exact energies, group exact ties.

    Makes no use of the classification windows; exists to cross-validate
    :func:`classify3` (and as the only classifier for lambda != 3).
    """
    pat = degeneracy_pattern(p, count)
    return PatternDescriptor(lam=p.lam, groups=tuple(g for _, g in pat.groups))


def classify3(p: AlgebraParams) -> SpectrumType:
    """Assign the unique lambda=3 taxonomy label by exact window arithmetic.

    Steps: (i) the ground-level comparison splits the admissible plane into
    the three general classes and the two boundary lines between them;
    (ii) rational inequalities locate the integer indices; (iii) equality on
    a window boundary selects the degenerate variant.
    """
    if p.lam != 3:
        raise UnsupportedLambda(f"named taxonomy requires lambda=3, got {p.lam}")
    # every window line is a0 or a1 against a multiple of 6 plus an even integer:
    # decide each on A = d a0, B = d a1, and ceil, floor and "is an integer" by divmod by 6d
    d, (A, B, _) = p.integer_form
    six = 6 * d

    if A < 2 * d:
        # class I: E0 < E1 < E2. The n-th cell is 6n - a0 - 8 < a1 <= 6n - a0 - 2.
        n = -(-(A + B + 2 * d) // six)
        _invariant(n >= 1, "class I: index n < 1")
        if B == (6 * n - 2) * d - A:
            return SpectrumType("I", "a", n=n)
        if B == (6 * n - 4) * d:
            return SpectrumType("I", "b", n=n)
        return SpectrumType("I", "1" if B < (6 * n - 4) * d else "2", n=n)

    if B >= -4 * d:
        # class II plus its feeding boundary lines (a0 = 2 and a1 = -4).
        # Columns a0 = 6c + 2 host the c-types (m = c + 1) and, jointly with
        # rows a1 = 6r - 10, the triply-degenerate points.
        c, off_col = divmod(A - 2 * d, six)
        r, off_row = divmod(B + 10 * d, six)
        if not off_col and not off_row:
            if c == 0:
                _invariant(r >= 2, "I.abc: index n < 1")
                return SpectrumType("I", "abc", n=r - 1)
            return SpectrumType("II", "abc", m=c, n=r)
        if not off_col:
            return SpectrumType("II", "c", m=c + 1, n=r)
        m = (A + 4 * d) // six
        if not off_row:
            return SpectrumType("II", "b", m=m, n=r)
        a_line = (6 * m + 6 * r - 8) * d - A
        if B == a_line:
            return SpectrumType("II", "a", m=m, n=r)
        return SpectrumType("II", "1" if B < a_line else "2", m=m, n=r)

    # class III: a0 > 2 and -2 - a0 < a1 < -4. Strips in a1 are separated by
    # the b-lines a1 = -4 - 6n; bands in a0 by the c-lines a0 = 6s - 4.
    n = -((B + 4 * d) // six)  # ceil((-4 - a1) / 6)
    on_b = (B + 4 * d) % six == 0
    s, off_c = divmod(A + 4 * d, six)
    if not off_c:
        variant, m = ("abc", s - 1 - n) if on_b else ("c", s - n)
    elif on_b:
        variant, m = "b", s - n
    else:
        a_line = (6 * (s - n) - 2) * d - A
        variant = "a" if B == a_line else "2" if B < a_line else "1"
        m = s - n + (variant == "1")
    if m < 1:  # the message is built only when the invariant fails
        raise InvariantViolation(f"III.{variant}: index m < 1")
    return SpectrumType("III", variant, m=m, n=n)


def representative_params(t: SpectrumType) -> AlgebraParams:
    """A canonical interior point of the parameter window carrying label ``t``.

    Every window is a product of the printed exact inequalities, so a fixed
    rational choice along each free direction lands strictly inside (or, for
    degenerate variants, exactly on the defining line/point).
    """
    n = Fraction(t.n)
    m = Fraction(t.m) if t.m is not None else None
    if t.family == "I":
        table = {
            "1": (Fraction(1, 2), 6 * n - 6),
            "2": (Fraction(1, 2), 6 * n - Fraction(13, 4)),
            "a": (Fraction(1, 2), 6 * n - Fraction(5, 2)),
            "b": (Fraction(1, 2), 6 * n - 4),
            "abc": (Fraction(2), 6 * n - 4),
        }
    elif t.family == "II":
        table = {
            "1": (6 * m - 1, 6 * n - Fraction(17, 2)),
            "2": (6 * m - 1, 6 * n - Fraction(11, 2)),
            "a": (6 * m - 1, 6 * n - 7),
            "b": (6 * m - 1, 6 * n - 10),
            "c": (6 * m - 4, 6 * n - 7),
            "abc": (6 * m + 2, 6 * n - 10),
        }
    else:
        table = {
            "1": (6 * m + 6 * n - 7, Fraction(1, 2) - 6 * n),
            "2": (6 * m + 6 * n - 1, -6 * n - Fraction(5, 2)),
            "a": (6 * m + 6 * n - 1, -6 * n - 1),
            "b": (6 * m + 6 * n - 1, -6 * n - 4),
            "c": (6 * m + 6 * n - 4, -6 * n - 1),
            "abc": (6 * m + 6 * n + 2, -6 * n - 4),
        }
    a0, a1 = table[t.variant]
    return new_params(3, [a0, a1])


# Wide-box labels rarely repeat: a small cache keeps the hot labels and bounds memory.
@lru_cache(maxsize=512)
def expected_prefix(t: SpectrumType, count: int = 30) -> PatternDescriptor:
    """The level-index interleaving that label ``t`` prescribes for its window.

    Evaluated at the canonical window point; the ordering and tie structure
    of exact energies is constant across each window, so this is the exact
    chain the taxonomy prints for ``t``.
    """
    return classify_oracle(representative_params(t), count)


def order_key(p: AlgebraParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact key of the order and the ties of the whole spectrum of ``p``.

    With e_mu = E(mu) for mu < lambda and lo = min e, write e_mu - lo =
    lambda q_mu + r_mu, q_mu integer and 0 <= r_mu < lambda; rank_mu is the
    index of r_mu among the distinct r, so ties are kept. Level lambda k + mu
    sits at lo + lambda (q_mu + k) + r_mu, so any two levels compare and tie
    as their pairs (q_mu + k, rank_mu): equal keys give equal descriptors at
    every prefix length. Conversely, comparing each subspace with a lowest
    one, mu_0, recovers the key: q_mu + 1 levels of mu_0 lie at or below
    level mu, and the levels at quotient max q order and tie the r_mu.
    In integers, with (d, d alpha) = ``p.integer_form`` and beta_lambda = 0:
    G_mu = 2d e_mu = d (2 mu + 1) + d beta_mu + d beta_{mu+1}, and dividing G_mu - min G
    by 2d lambda gives the same q, and r scaled by 2d, so the same ranks.  Any common
    denominator d does: scaling d scales G and the modulus alike.
    """
    d, nums = p.integer_form
    db = list(accumulate(nums, initial=0))  # d beta_0, ..., d beta_lambda = 0
    g = [d * (2 * mu + 1) + db[mu] + db[mu + 1] for mu in range(p.lam)]
    lo = min(g)
    q, r = zip(*(divmod(x - lo, 2 * d * p.lam) for x in g))
    rank = {v: i for i, v in enumerate(sorted(set(r)))}
    return q, tuple(rank[v] for v in r)


# The lambda = 3 keys.  On the windows of one label, q - const is (0, n, n)
# in family I, (0, m + n, n) in II and (n, m + n, 0) in III, and the ranks
# are constant: each e_mu is affine in (m, n) with slopes in 3Z, and the
# family fixes the lowest subspace.  Rows that share ranks differ in q at
# every (m, n), so the decoder solves n and m from q in each row with the
# key's ranks and keeps the one row that gives q back.
_KEY_ROWS = {  # ranks: (family, variant, const) of each label with those ranks
    (0, 1, 2): (("I", "1", (0, -1, -1)), ("II", "2", (0, -1, -1))),
    (0, 2, 1): (("I", "2", (0, -1, 0)), ("II", "1", (0, -2, -1))),
    (0, 0, 1): (("I", "a", (0, 0, 0)), ("II", "a", (0, -1, -1))),
    (0, 1, 0): (("I", "b", (0, -1, 0)), ("II", "b", (0, -2, -1)), ("III", "b", (0, -1, 0))),
    (0, 0, 0): (("I", "abc", (0, 0, 0)), ("II", "abc", (0, -1, -1)),
                ("III", "abc", (0, 0, 0))),
    (0, 1, 1): (("II", "c", (0, -2, -1)),), (1, 2, 0): (("III", "1", (-1, -2, 0)),),
    (2, 1, 0): (("III", "2", (-1, -1, 0)),), (1, 1, 0): (("III", "a", (-1, -1, 0)),),
    (1, 0, 0): (("III", "c", (-1, -1, 0)),),
}


def label_from_key(key: tuple[tuple[int, ...], tuple[int, ...]]) -> SpectrumType:
    """The lambda=3 label whose windows have the order key ``key``.

    A key that no admissible lambda=3 point has raises :class:`InvariantViolation`.
    """
    q, rank = key
    for family, variant, const in _KEY_ROWS.get(tuple(rank), ()) if len(q) == 3 else ():
        d = tuple(a - c for a, c in zip(q, const))
        n = d[0] if family == "III" else d[2]
        m = d[1] - n  # 0 in family I
        shape = (n, m + n, 0) if family == "III" else (0, m + n, n)
        if d == shape and n >= 1 and (m == 0 if family == "I" else m >= 1):
            return SpectrumType(family, variant, n=n, m=m or None)
    raise InvariantViolation(f"order key {key} is no lambda=3 label's")


def oracle_agrees(p: AlgebraParams, t: SpectrumType) -> bool:
    """True iff the whole spectrum of ``p`` is ordered and tied as label ``t`` prescribes."""
    if p.lam != 3:
        raise UnsupportedLambda(f"named taxonomy requires lambda=3, got {p.lam}")
    return label_from_key(order_key(p)) == t


@dataclass(frozen=True)
class PeriodReport:
    """Cyclic spacing structure of a nondegenerate periodic spectrum."""

    omegas: tuple[Fraction, ...]
    ground_order: tuple[int, ...]

    @property
    def big_omega(self) -> Fraction:
        return sum(self.omegas, Fraction(0))


def period3_omegas(p: AlgebraParams, t: SpectrumType) -> tuple[Fraction, ...] | None:
    """Closed-form level spacings for the three period-three labels, else None."""
    a0, a1 = p.alphas[0], p.alphas[1]
    if t == SpectrumType("I", "1", n=1):
        return ((a0 + a1 + 2) / 2, (2 - a0) / 2, (2 - a1) / 2)
    if t == SpectrumType("II", "1", n=1, m=1):
        return ((a1 + 4) / 2, (a0 - 2) / 2, (4 - a0 - a1) / 2)
    if t == SpectrumType("III", "1", n=1, m=1):
        return ((-a1 - 4) / 2, (a0 + a1 + 2) / 2, (8 - a0) / 2)
    return None


def detect_period(p: AlgebraParams, count: int = 30) -> PeriodReport:
    """Spacings of the spectrum if it repeats with period lambda.

    Level lambda*k + mu sits at E(mu) + lambda*k, so the lambda ground levels
    decide: sorted, with ``lowest + lambda`` appended, their gaps are the
    spacings. A gap that is not positive is an exact degeneracy or a subspace
    starting a period or more above the ground, and raises
    :class:`NotPeriodic`. ``count`` is accepted for callers that pass a
    prefix length and is not read. For lambda=3 the spacings are
    cross-checked against the closed forms of the periodic taxonomy labels.
    """
    lam = p.lam
    ground = sorted((p.energy(mu), mu) for mu in range(lam))
    chain = [e for e, _ in ground] + [ground[0][0] + lam]
    omegas = tuple(b - a for a, b in zip(chain, chain[1:]))
    if any(w <= 0 for w in omegas):
        raise NotPeriodic("ground levels are degenerate or a period or more apart")
    if lam == 3:
        _invariant(omegas == period3_omegas(p, classify3(p)),
                   "period detector disagrees with closed forms")
    return PeriodReport(omegas=omegas, ground_order=tuple(mu for _, mu in ground))


def susy_window(p: AlgebraParams) -> bool:
    """True iff every spacing 1 + alpha_mu is positive.

    Equivalent to the printed chain of parameter restrictions for the
    supersymmetric hierarchy at any lambda.
    """
    return all(1 + a > 0 for a in p.alphas)


def random_admissible_params(
    rng: random.Random,
    lam: int = 3,
    max_numer: int = 30,
    max_denom: int = 12,
) -> AlgebraParams:
    """Draw a uniform-ish random admissible rational parameter vector.

    A draw that breaks Fock existence is redrawn; lambda < 2, max_numer < 0
    (no first entry exists) and max_denom < 1 raise :class:`InadmissibleParams`.
    """
    if lam < 2:
        raise InadmissibleParams(f"lambda must be >= 2, got {lam}")
    if max_numer < 0 or max_denom < 1:
        raise InadmissibleParams(
            f"need max_numer >= 0 and max_denom >= 1, got {max_numer} and {max_denom}")
    while True:
        head, num, den = [], 0, 1  # num / den == sum(head), den > 0
        for mu in range(lam - 1):
            q = rng.randint(1, max_denom)
            # k >= floor((-(mu + 1) - sum(head)) * q), all in integers
            k = rng.randint(((-(mu + 1) * den - num) * q) // den, max_numer * q)
            # existence needs F(mu+1) = mu + 1 + sum(head) + k / q > 0
            if ((mu + 1) * den + num) * q + k * den <= 0:
                break
            head.append(Fraction(k, q))
            num, den = num * q + k * den, den * q
        else:
            return AlgebraParams(alphas=(*head, Fraction(-num, den)))
