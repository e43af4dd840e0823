import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cext_osc
from cext_osc import (
    AlgebraParams,
    ExistenceViolation,
    InadmissibleParams,
    Ladder,
    new_params,
)
from cext_osc.algebra import MAX_EXPONENT, parse_rational

from conftest import params3, reference_energy, streaming_gap


def iterate_structure(alphas, n):
    """Independent oracle: integrate F(k+1) = F(k) + G(k) from F(0) = 0."""
    lam = len(alphas)
    f = Fraction(0)
    for k in range(n):
        f += 1 + alphas[k % lam]
    return f


def admissible_heads(max_mag=20):
    a0 = st.fractions(min_value=Fraction(-1), max_value=max_mag, max_denominator=9)
    return a0.flatmap(
        lambda x: st.tuples(
            st.just(x),
            st.fractions(min_value=-2 - x, max_value=max_mag, max_denominator=9),
        )
    ).filter(lambda t: t[0] > -1 and t[1] > -2 - t[0])


class TestConstruction:
    def test_harmonic(self):
        p = new_params(3, [0, 0])
        assert p.alphas == (0, 0, 0)
        assert p.betas == (0, 0, 0)

    def test_figure_point(self):
        p = params3(0, 6)
        assert p.alphas == (0, 6, -6)
        assert p.betas == (0, 0, 6)

    def test_existence_violation_names_first_mu(self):
        with pytest.raises(ExistenceViolation) as exc:
            new_params(3, [-1, 0])
        assert exc.value.mu == 1

    def test_existence_second_subspace(self):
        with pytest.raises(ExistenceViolation) as exc:
            new_params(3, [0, -3])
        assert exc.value.mu == 2

    def test_lambda_too_small(self):
        with pytest.raises(InadmissibleParams):
            new_params(1, [])

    def test_head_length_checked(self):
        with pytest.raises(InadmissibleParams):
            new_params(3, [1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            new_params(3, [0.5, 0])

    def test_bools_rejected(self):
        with pytest.raises(TypeError, match="refusing bool"):
            new_params(3, [True, 0])

    def test_general_lambda(self):
        p = new_params(5, [1, Fraction(1, 2), 0, Fraction(-1, 2)])
        assert sum(p.alphas) == 0
        assert len(p.betas) == 5


class TestDirectConstruction:
    """``AlgebraParams(alphas=...)`` validates what the vector itself can get wrong."""

    def test_alphas_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(AlgebraParams)] == ["alphas"]
        assert not hasattr(AlgebraParams, "alpha")
        assert not hasattr(cext_osc, "Rational")

    def test_lam_and_betas_derived(self):
        p = AlgebraParams(alphas=(Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)))
        assert p.lam == 3
        assert p.betas == (0, Fraction(1, 2), Fraction(5, 6))
        assert p == new_params(3, [Fraction(1, 2), Fraction(1, 3)])

    def test_nonzero_sum_rejected(self):
        with pytest.raises(InadmissibleParams, match="sum of alphas"):
            AlgebraParams(alphas=(Fraction(1), Fraction(0), Fraction(0)))

    @pytest.mark.parametrize("alphas", [(), (Fraction(0),)])
    def test_fewer_than_two_entries_rejected(self, alphas):
        with pytest.raises(InadmissibleParams, match="lambda must be >= 2"):
            AlgebraParams(alphas=alphas)

    @pytest.mark.parametrize("alphas", [
        (0.1, 0.2, -0.30000000000000004),  # summed in floats this is 0
        (0.5, -0.5),
        (True, -1),
        (Fraction(1), False, -1),
    ])
    def test_float_and_bool_entries_rejected(self, alphas):
        # the rule of new_params: exact rationals only
        with pytest.raises(TypeError, match="refusing"):
            AlgebraParams(alphas=alphas)

    def test_any_sequence_gives_a_tuple_of_fractions(self):
        p = AlgebraParams(alphas=[1, -1])
        assert p.alphas == (1, -1) and type(p.alphas) is tuple
        assert all(type(a) is Fraction for a in p.alphas)
        assert p == new_params(2, [1]) and hash(p) == hash(new_params(2, [1]))
        assert len({p, new_params(2, [1])}) == 1

    def test_string_entries(self):
        p = AlgebraParams(alphas=("1/2", "-1/2"))
        assert p == new_params(2, [Fraction(1, 2)])
        assert p.energy(1) == Fraction(3, 2) + Fraction(1, 4)
        assert new_params(2, [" 1/2 "]) == p
        # a string that is no rational is an input error, as parse_rational makes it
        for build in (lambda: new_params(3, ["1/0", 0]),
                      lambda: AlgebraParams(alphas=("1/0", "0")),
                      lambda: new_params(3, ["x", 0])):
            with pytest.raises(InadmissibleParams, match="cannot parse rational"):
                build()

    def test_existence_violation_names_first_mu(self):
        # F(1) = 1/2 > 0, F(2) = 2 - 3 = -1, F(3) = 3 - 4 = -1
        with pytest.raises(ExistenceViolation) as exc:
            AlgebraParams(alphas=(Fraction(-1, 2), Fraction(-5, 2), Fraction(-1), Fraction(4)))
        assert exc.value.mu == 2
        assert exc.value.value == -1


class TestStructureFunction:
    def test_undeformed(self):
        p = new_params(3, [0, 0])
        assert p.structure_function(5) == 5

    @pytest.mark.parametrize("n,expected", [(2, 8), (3, 3)])
    def test_deformed_against_iteration(self, n, expected):
        p = params3(0, 6)
        assert iterate_structure(p.alphas, n) == expected
        assert p.structure_function(n) == expected

    def test_g_values(self):
        p = params3(0, 6)
        # G(n) = 1 + alpha_{n mod lambda}, the step F(n+1) - F(n), read past the first period
        assert p.structure_function(8) - p.structure_function(7) == 1 + p.alphas[1] == 7
        assert p.structure_function(2) - p.structure_function(1) == 1 + p.alphas[1]
        assert p.structure_function(3) - p.structure_function(2) == 1 + p.alphas[2] == -5

    @given(admissible_heads(), st.integers(min_value=0, max_value=40))
    def test_difference_law(self, head, n):
        p = new_params(3, list(head))
        assert p.structure_function(0) == 0
        assert p.structure_function(n + 1) - p.structure_function(n) == 1 + p.alphas[n % p.lam]
        assert p.structure_function(n) == iterate_structure(p.alphas, n)


@st.composite
def ladder_pairs(draw):
    """Two ladders of one length lambda = 1..7, the second with moved firsts and maybe period."""
    lam = draw(st.integers(1, 7))
    value = st.fractions(-20, 20, max_denominator=12)
    firsts = draw(st.lists(value, min_size=lam, max_size=lam))
    period = draw(value)
    others = list(firsts)
    for nu in draw(st.lists(st.integers(0, lam - 1), max_size=lam)):
        others[nu] += draw(value)
    other_period = period + draw(st.sampled_from([0, 0, Fraction(1, 7), -3]) | value)
    cut = draw(st.integers(1, 3 * lam + 5))
    return Ladder(tuple(firsts), period), Ladder(tuple(others), other_period), cut


class TestLadder:
    @given(ladder_pairs())
    def test_gap_is_the_streamed_max(self, pair):
        # the levels of the first ladder, written out without Ladder.at
        one, other, cut = pair
        lam = len(one.firsts)
        member = [one.firsts[n % lam] + n // lam * one.period for n in range(cut)]
        want = streaming_gap(member, other.firsts, other.period, cut)
        assert one.gap(other, cut) == want == other.gap(one, cut)
        assert type(one.gap(other, cut)) is Fraction

    def test_equal_firsts_other_period(self):
        # residue 0 reads k = 0, 1, 2 below cut 5, residue 1 reads k = 0, 1
        assert Ladder((0, 1), 2).gap(Ladder((0, 1), 3), 5) == 2
        assert Ladder((0, 1), 2).gap(Ladder((0, 1), 2), 5) == 0

    def test_cut_below_lambda_reads_fewer_residues(self):
        one, other = Ladder((0, 1, 2), 3), Ladder((0, 1, 7), 3)
        assert one.gap(other, 2) == 0 and one.gap(other, 3) == 5

    @pytest.mark.parametrize("cut", [0, -3])
    def test_empty_window_rejected(self, cut):
        # n < cut reads no level, so any two ladders would pass
        with pytest.raises(ValueError, match=f"cut must be >= 1, got {cut}"):
            Ladder((0, 1), 2).gap(Ladder((5, 7), 9), cut)
        with pytest.raises(ValueError, match="cut must be >= 1"):
            Ladder((0, 1), 2).gap(Ladder((0, 1), 2), cut)

    @pytest.mark.parametrize("lengths", [(2, 1), (1, 2), (3, 1)])
    def test_lengths_must_agree(self, lengths):
        # the shorter ladder would compare fewer residues, and pass
        one, other = (Ladder((Fraction(0),) * n, Fraction(2)) for n in lengths)
        with pytest.raises(ValueError, match="ladders of"):
            one.gap(other, 10)

    def test_empty_firsts_rejected(self):
        # lambda = 0: at() would divide by zero and gap() would compare nothing
        with pytest.raises(ValueError, match="at least one first value"):
            Ladder((), Fraction(3))

    @pytest.mark.parametrize("lam", range(2, 8))
    def test_structure_ladder_is_f(self, lam):
        p = new_params(lam, [Fraction(mu, lam + 1) - Fraction(1, 3) for mu in range(lam - 1)])
        ladder = p.structure_ladder()
        assert ladder.period == lam and len(ladder.firsts) == lam
        assert [ladder.at(n) for n in range(5 * lam)] == [
            p.structure_function(n) for n in range(5 * lam)]


class TestGammaAndEnergy:
    def test_gamma_trivial(self):
        assert new_params(3, [0, 0]).gamma_coeffs() == (0, 0, 0)

    def test_gamma_examples(self):
        assert params3(0, 6).gamma_coeffs() == (0, 3, 3)
        assert params3(10, 4).gamma_coeffs() == (5, 12, 7)

    def test_gamma_closed_form(self):
        p = params3(10, 4)
        a0, a1 = p.alphas[0], p.alphas[1]
        assert p.gamma_coeffs() == (a0 / 2, (2 * a0 + a1) / 2, (a0 + a1) / 2)

    def test_energy_examples(self):
        assert new_params(3, [0, 0]).energy(4) == Fraction(9, 2)
        assert params3(0, 6).energy(0) == Fraction(1, 2)
        assert params3(0, 6).energy(1) == Fraction(9, 2)

    @given(admissible_heads(), st.integers(min_value=0, max_value=40))
    def test_energy_is_structure_midpoint(self, head, n):
        p = new_params(3, list(head))
        mid = (p.structure_function(n) + p.structure_function(n + 1)) / 2
        assert p.energy(n) == mid

    @given(admissible_heads())
    def test_gamma_alternating_identity(self, head):
        g = new_params(3, list(head)).gamma_coeffs()
        assert g[0] - g[1] + g[2] == 0

    def test_energy_midpoint_general_lambda(self):
        p = new_params(4, [Fraction(1, 3), Fraction(-1, 4), 2])
        for n in range(12):
            mid = (p.structure_function(n) + p.structure_function(n + 1)) / 2
            assert p.energy(n) == mid


class TestGroundLevelCache:
    """The ground levels are computed once, on first use, and never leak between points."""

    def test_one_gamma_call_on_first_use(self, monkeypatch):
        calls = []
        gamma = AlgebraParams.gamma_coeffs
        monkeypatch.setattr(AlgebraParams, "gamma_coeffs",
                            lambda self: calls.append(self) or gamma(self))
        p = new_params(4, [Fraction(1, 3), Fraction(-1, 4), 2])
        assert calls == []
        energies = [p.energy(n) for n in range(40)]
        assert len(calls) == 1
        assert energies == [reference_energy(p, n) for n in range(40)]

    def test_warm_equals_cold(self):
        warm, cold = params3(Fraction(1, 3), 7), params3(Fraction(1, 3), 7)
        warm.energy(11)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy])
    def test_survives_pickle_and_copy(self, clone):
        p = params3(Fraction(5, 2), -3)
        p.energy(0)
        q = clone(p)
        assert q == p
        assert hash(q) == hash(p)
        assert [q.energy(n) for n in range(12)] == [reference_energy(p, n) for n in range(12)]

    def test_replace_recomputes(self):
        p = params3(0, 6)
        p.energy(0)
        other = params3(10, 4)
        q = dataclasses.replace(p, alphas=other.alphas)
        assert [q.energy(n) for n in range(12)] == [reference_energy(other, n) for n in range(12)]
        assert q.energy(1) != p.energy(1)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            params3(0, 6).energy(-1)


class TestRationalParsing:
    @pytest.mark.parametrize("text,expected", [
        ("1/3", Fraction(1, 3)),
        ("-7/2", Fraction(-7, 2)),
        ("4", Fraction(4)),
        ("0.25", Fraction(1, 4)),
        ("+5", Fraction(5)), (" -3/4\t", Fraction(-3, 4)), ("\u00a01/3\u2003", Fraction(1, 3)),
        (".5", Fraction(1, 2)), ("5.", Fraction(5)), ("-.5e+2", Fraction(-50)),
        ("007/010", Fraction(7, 10)), ("1E-0003", Fraction(1, 1000)),
    ])
    def test_exact(self, text, expected):
        assert parse_rational(text) == expected

    def test_bad_input(self):
        with pytest.raises(InadmissibleParams):
            parse_rational("one half")

    @pytest.mark.parametrize("text", [
        # Fraction reads these on some Python versions only
        "1_000", "1e1_0", "1 / 2", "1/ 2", "1 /2", "\u0661\u0662", "\uff11/2",
        # and these on none
        "", "+", ".", "1e", "1/", "/2", "1.5/2", "1/2e3", "0x10", "inf", "nan", "1/0", "--1",
    ])
    def test_grammar_refuses(self, text):
        with pytest.raises(InadmissibleParams, match="cannot parse rational"):
            parse_rational(text)

    @pytest.mark.parametrize("exponent", [MAX_EXPONENT, -MAX_EXPONENT])
    def test_exponent_at_cap(self, exponent):
        assert parse_rational(f"1e{exponent}") == Fraction(10) ** exponent
        assert parse_rational(f" 2.5E{exponent} ") == Fraction(5, 2) * Fraction(10) ** exponent

    @pytest.mark.parametrize("text", [
        f"1e{MAX_EXPONENT + 1}", f"1e-{MAX_EXPONENT + 1}", f"0.5E+{MAX_EXPONENT + 1}",
        "1e99999999", f"1e{'9' * 5000}",
    ], ids=lambda text: text[:16])
    def test_exponent_past_cap_is_refused(self, text):
        # refused before 10**exponent is built, so it returns at once
        with pytest.raises(InadmissibleParams):
            parse_rational(text)
        with pytest.raises(InadmissibleParams):
            new_params(3, [text, "0"])
