"""Fraction references for the integer hot path of a point.

Each function decides in ``Fraction`` arithmetic what the library decides in
integers over the alphas' common denominator: the random draw, the validation
of a parameter vector and the lambda=3 window classification.  They are kept
as plain rational arithmetic, written from the printed inequalities, so that
``tests/test_integer_form.py`` can hold the integer code against them.
"""

import math
from fractions import Fraction

from cext_osc import ExistenceViolation, InadmissibleParams, SpectrumType
from cext_osc.spectrum import InvariantViolation


def reference_draw(rng, lam=3, max_numer=30, max_denom=12):
    """The alphas ``random_admissible_params`` draws, with the same ``rng`` calls."""
    while True:
        head, total = [], Fraction(0)  # total == sum(head)
        for mu in range(lam - 1):
            q = rng.randint(1, max_denom)
            a = Fraction(rng.randint(math.floor((-(mu + 1) - total) * q), max_numer * q), q)
            # existence needs F(mu+1) = mu + 1 + sum(head) + a > 0
            if mu + 1 + total + a <= 0:
                break
            head.append(a)
            total += a
        else:
            return (*head, -total)


def reference_validate(alphas):
    """Raise what ``AlgebraParams(alphas=alphas)`` must raise; return None if it is valid."""
    alphas = tuple(Fraction(a) for a in alphas)
    if len(alphas) < 2:
        raise InadmissibleParams(f"lambda must be >= 2, got {len(alphas)}")
    if sum(alphas) != 0:
        raise InadmissibleParams(f"sum of alphas must vanish, got {sum(alphas)}")
    beta = Fraction(0)
    for mu in range(1, len(alphas)):
        beta += alphas[mu - 1]
        if mu + beta <= 0:
            raise ExistenceViolation(mu, mu + beta)


def _check(holds, what):
    if not holds:
        raise InvariantViolation(what)


def reference_classify3(a0, a1):
    """The lambda=3 label of (a0, a1) from the paper's window inequalities, in Fractions."""
    a0, a1 = Fraction(a0), Fraction(a1)
    if a0 < 2:
        # class I: the n-th cell is 6n - a0 - 8 < a1 <= 6n - a0 - 2
        n = math.ceil((a0 + a1 + 2) / 6)
        _check(n >= 1, "class I: index n < 1")
        if a1 == 6 * n - a0 - 2:
            return SpectrumType("I", "a", n=n)
        if a1 == 6 * n - 4:
            return SpectrumType("I", "b", n=n)
        return SpectrumType("I", "1" if a1 < 6 * n - 4 else "2", n=n)

    if a1 >= -4:
        # class II: columns a0 = 6c + 2 and rows a1 = 6r - 10
        col, row = (a0 - 2) / 6, (a1 + 10) / 6
        if col.denominator == 1 and row.denominator == 1:
            c, r = int(col), int(row)
            if c == 0:
                _check(r >= 2, "I.abc: index n < 1")
                return SpectrumType("I", "abc", n=r - 1)
            return SpectrumType("II", "abc", m=c, n=r)
        if col.denominator == 1:
            return SpectrumType("II", "c", m=int(col) + 1, n=math.floor(row))
        m = math.floor((a0 + 4) / 6)
        if row.denominator == 1:
            return SpectrumType("II", "b", m=m, n=int(row))
        n = math.floor(row)
        a_line = 6 * m + 6 * n - a0 - 8
        if a1 == a_line:
            return SpectrumType("II", "a", m=m, n=n)
        return SpectrumType("II", "1" if a1 < a_line else "2", m=m, n=n)

    # class III: strips between the b-lines a1 = -4 - 6n, bands between the c-lines a0 = 6s - 4
    w = (-4 - a1) / 6
    on_b = w.denominator == 1
    n = int(w) if on_b else math.floor(w) + 1
    sfrac = (a0 + 4) / 6
    on_c = sfrac.denominator == 1
    s = math.floor(sfrac)
    if on_c and on_b:
        _check(s - 1 - n >= 1, "III.abc: index m < 1")
        return SpectrumType("III", "abc", m=s - 1 - n, n=n)
    if on_c:
        _check(s - n >= 1, "III.c: index m < 1")
        return SpectrumType("III", "c", m=s - n, n=n)
    if on_b:
        _check(s - n >= 1, "III.b: index m < 1")
        return SpectrumType("III", "b", m=s - n, n=n)
    a_line = 6 * (s - n) - a0 - 2
    if a1 == a_line:
        _check(s - n >= 1, "III.a: index m < 1")
        return SpectrumType("III", "a", m=s - n, n=n)
    if a1 < a_line:
        _check(s - n >= 1, "III.2: index m < 1")
        return SpectrumType("III", "2", m=s - n, n=n)
    _check(s - n + 1 >= 1, "III.1: index m < 1")
    return SpectrumType("III", "1", m=s - n + 1, n=n)
