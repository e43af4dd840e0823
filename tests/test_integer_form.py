"""The integer form of a point against the Fraction references.

Drawing, validating and classifying a lambda=3 point run on integers over the
alphas' common denominator.  Each must give what the same arithmetic in
``Fraction`` gives: the same points and ``rng`` state, the same exception with
the same fields and message, the same label or the same invariant failure.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cext_osc import AlgebraParams, ExistenceViolation, classify3
from cext_osc.spectrum import InvariantViolation, random_admissible_params

from conftest import params3
from fraction_reference import reference_classify3, reference_draw, reference_validate
from test_spectrum import admissible_params, boundary_line_points, unchecked_params3

# the CLI's box, and the ten times wider one the benchmark draws one point in five from
BOXES = [(30, 12), (300, 12)]


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type, message and fields of what it raises."""
    try:
        return "ok", fn(*args)
    except (ValueError, InvariantViolation) as exc:
        fields = (exc.mu, exc.value) if isinstance(exc, ExistenceViolation) else None
        return type(exc), str(exc), fields


class TestIntegerForm:
    @given(admissible_params(max_value=50, max_denominator=30))
    def test_is_the_alphas_over_their_lcm(self, p):
        d, nums = p.integer_form
        assert d == math.lcm(*(alpha.denominator for alpha in p.alphas))
        assert nums == tuple(alpha * d for alpha in p.alphas)

    def test_ignored_by_equality_hash_and_repr(self):
        # validation fills the cache; a point built past validation has none yet
        warm = params3(Fraction(1, 3), Fraction(-7, 4))
        cold = unchecked_params3(Fraction(1, 3), Fraction(-7, 4))
        assert "integer_form" in vars(warm) and "integer_form" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)


class TestDraw:
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=300),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_same_points_and_rng_state(self, lam, max_numer, max_denom, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            p = random_admissible_params(rng, lam=lam, max_numer=max_numer, max_denom=max_denom)
            assert p.alphas == reference_draw(ref, lam, max_numer, max_denom)
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("max_numer,max_denom", BOXES)
    def test_cli_boxes(self, max_numer, max_denom):
        rng, ref = random.Random(27), random.Random(27)
        for _ in range(2000):
            p = random_admissible_params(rng, max_numer=max_numer, max_denom=max_denom)
            assert p.alphas == reference_draw(ref, 3, max_numer, max_denom)
        assert rng.getstate() == ref.getstate()


class TestValidation:
    @given(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6),
                    min_size=0, max_size=7), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_as_fraction_rule(self, entries, close):
        # closing the sum makes most vectors reach the existence check
        if close and entries:
            entries = [*entries[:-1], -sum(entries[:-1], Fraction(0))]
        expected = outcome(reference_validate, entries)
        got = outcome(AlgebraParams, tuple(entries))
        if expected[0] == "ok":
            assert got[0] == "ok" and got[1].alphas == tuple(entries)
        else:
            assert got == expected


def line_points():
    """Points on the window lines of every class, at random scales and offsets."""
    k = st.integers(min_value=-12, max_value=12)
    t = st.fractions(min_value=-80, max_value=80, max_denominator=60)
    return st.one_of(
        st.tuples(k.map(lambda c: Fraction(6 * c + 2)), t),     # class II c-columns
        st.tuples(k.map(lambda s: Fraction(6 * s - 4)), t),     # class III c-lines, II m-steps
        st.tuples(t, k.map(lambda r: Fraction(6 * r - 10))),    # class II b-rows
        st.tuples(t, k.map(lambda n: Fraction(-4 - 6 * n))),    # class III b-lines
        st.tuples(t, k).map(lambda x: (x[0], 6 * x[1] - x[0] - 2)),  # I and III a-lines
        st.tuples(t, k).map(lambda x: (x[0], 6 * x[1] - x[0] - 8)),  # II a-lines
        st.tuples(t, k).map(lambda x: (x[0], Fraction(6 * x[1] - 4))),  # I b-lines
        st.tuples(k, k).map(lambda x: (Fraction(6 * x[0] + 2), Fraction(6 * x[1] - 10))),
    )


class TestClassify3:
    @pytest.mark.parametrize("max_numer,max_denom", BOXES)
    def test_cli_boxes(self, max_numer, max_denom):
        rng = random.Random(270)
        for _ in range(3000):
            p = random_admissible_params(rng, max_numer=max_numer, max_denom=max_denom)
            assert classify3(p) == reference_classify3(*p.alphas[:2]), p.alphas

    def test_criterion_5_boundary_lines(self):
        for a0, a1 in boundary_line_points(5):
            assert classify3(params3(a0, a1)) == reference_classify3(a0, a1), (a0, a1)

    @given(st.one_of(line_points(), st.tuples(
        *[st.fractions(min_value=-300, max_value=300, max_denominator=24)] * 2)))
    @settings(max_examples=1000, deadline=None)
    def test_same_label_or_invariant_anywhere(self, point):
        # on the window lines and off them; outside the admissible domain both
        # fail the same invariant with the same text
        a0, a1 = point
        got = outcome(classify3, unchecked_params3(a0, a1))
        assert got == outcome(reference_classify3, a0, a1), (a0, a1)
