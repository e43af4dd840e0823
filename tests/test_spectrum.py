import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cext_osc
from cext_osc import (
    AlgebraParams,
    NotPeriodic,
    PeriodReport,
    SpectrumType,
    UnsupportedLambda,
    classify3,
    classify_oracle,
    degeneracy_pattern,
    detect_period,
    expected_prefix,
    levels,
    new_params,
    representative_params,
    susy_window,
)
from cext_osc.spectrum import (
    DEG_VARIANTS,
    NONDEG_VARIANTS,
    InvariantViolation,
    label_from_key,
    oracle_agrees,
    order_key,
    period3_omegas,
    random_admissible_params,
)

from conftest import CAPTION_CASES, params3, reference_energy
from paper_reference import lowest_double_position

def variant_types(max_index):
    """Every label with indices m, n <= ``max_index``."""
    return [
        SpectrumType("I", v, n=n)
        for v in ("1", "2", "a", "b", "abc") for n in range(1, max_index + 1)
    ] + [
        SpectrumType(fam, v, n=n, m=m)
        for fam in ("II", "III")
        for v in ("1", "2", "a", "b", "c", "abc")
        for m in range(1, max_index + 1) for n in range(1, max_index + 1)
    ]


ALL_VARIANT_TYPES = variant_types(10)


def boundary_line_points(max_index=5):
    """Exact samples on every degenerate line of the lambda=3 plane."""
    offs = [Fraction(1, 3), Fraction(3, 2), Fraction(11, 7)]
    pts = []
    for n in range(1, max_index + 1):
        for d in offs:
            a0 = -1 + d  # inside (-1, 2) for these offsets
            pts += [(a0, 6 * n - a0 - 2), (a0, 6 * n - 4)]
        pts.append((Fraction(2), Fraction(6 * n - 4)))
        for m in range(1, max_index + 1):
            for d in offs:
                a0 = 6 * m - 4 + 2 * d  # inside (6m-4, 6m+2)
                pts += [
                    (a0, 6 * m + 6 * n - a0 - 8),
                    (a0, Fraction(6 * n - 10)),
                ]
                a1 = 6 * n - 10 + 2 * d  # inside (6n-10, 6n-4)
                pts.append((Fraction(6 * m - 4), a1))
                b0 = 6 * m + 6 * n - 4 + 2 * d  # inside the class-III band
                pts += [
                    (b0, 6 * m - b0 - 2),
                    (b0, Fraction(-4 - 6 * n)),
                ]
                a1 = -4 - 6 * n + d  # inside (-4-6n, 2-6n)
                pts.append((Fraction(6 * m + 6 * n - 4), a1))
            pts.append((Fraction(6 * m + 2), Fraction(6 * n - 10)))
            pts.append((Fraction(6 * m + 6 * n + 2), Fraction(-4 - 6 * n)))
    admissible = []
    for a0, a1 in pts:
        if a0 > -1 and a1 > -2 - a0:
            admissible.append((a0, a1))
    return admissible


def prefix_detect_period(p, count):
    """Reference: period of the sorted first ``count`` levels, spacing by spacing.

    Exact when ``count`` is a multiple of lambda and long enough to reach the
    repeating part of the spectrum.
    """
    lam = p.lam
    energies = sorted(reference_energy(p, n) for n in range(count))
    spacings = [b - a for a, b in zip(energies, energies[1:])]
    if any(s <= 0 or spacings[i % lam] != s for i, s in enumerate(spacings)):
        raise NotPeriodic("reference: spacings do not repeat")
    return PeriodReport(omegas=tuple(spacings[:lam]),
                        ground_order=tuple(sorted(range(lam),
                                                  key=lambda mu: reference_energy(p, mu))))


def reference_order_key(p):
    """The order key in Fractions: divmod of the exact ground-level gaps by lambda."""
    ground = [reference_energy(p, mu) for mu in range(p.lam)]
    lo = min(ground)
    q, r = zip(*(divmod(e - lo, p.lam) for e in ground))
    rank = {v: i for i, v in enumerate(sorted(set(r)))}
    return q, tuple(rank[v] for v in r)


def reference_groups(p, count):
    """Levels 0 .. count-1 grouped by their reference energy, ascending."""
    by_energy = {}
    for n in range(count):
        by_energy.setdefault(reference_energy(p, n), []).append(n)
    return tuple((e, tuple(by_energy[e])) for e in sorted(by_energy))


@st.composite
def admissible_params(draw, lams=st.integers(min_value=2, max_value=7), max_value=30,
                      max_denominator=12):
    """Any lambda: beta_mu > -mu for mu >= 1 is Fock-space existence, F(mu) > 0."""
    lam = draw(lams)
    betas = [Fraction(0)] + [
        draw(st.fractions(min_value=-mu, max_value=max_value, max_denominator=max_denominator)
             .filter(lambda b, mu=mu: b > -mu))
        for mu in range(1, lam)]
    return new_params(lam, [b1 - b0 for b0, b1 in zip(betas, betas[1:])])


def unchecked_params3(a0, a1):
    """A lambda=3 point built without AlgebraParams' validation, so it may lie outside the domain."""
    p = object.__new__(AlgebraParams)
    object.__setattr__(p, "alphas", (Fraction(a0), Fraction(a1), -Fraction(a0) - Fraction(a1)))
    return p


def period_or_none(detect, p, count):
    try:
        return detect(p, count)
    except NotPeriodic:
        return None


def neighbours(t):
    """Labels one step from ``t``: n +- 1, m +- 1, or another variant."""
    steps = [(t.n - 1, t.m, t.variant), (t.n + 1, t.m, t.variant)]
    if t.m is not None:
        steps += [(t.n, t.m - 1, t.variant), (t.n, t.m + 1, t.variant)]
    steps += [(t.n, t.m, v) for v in NONDEG_VARIANTS + DEG_VARIANTS if v != t.variant]
    for n, m, v in steps:
        try:
            yield SpectrumType(t.family, v, n=n, m=m)
        except ValueError:
            continue


class TestLevels:
    def test_harmonic(self):
        assert levels(new_params(3, [0, 0]), 3) == [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]

    def test_deformed_index_order(self):
        assert levels(params3(0, 6), 4) == [
            Fraction(1, 2), Fraction(9, 2), Fraction(11, 2), Fraction(7, 2)]

    def test_triple_point_coincidence(self):
        # the triple line makes levels 1 and 2 exactly degenerate
        lv = levels(params3(2, 8), 3)
        assert lv[0] == Fraction(3, 2)
        assert lv[1] == lv[2] == Fraction(15, 2)


class TestDegeneracyPattern:
    def test_harmonic_singletons(self):
        pat = degeneracy_pattern(new_params(3, [0, 0]), 5)
        assert pat.multiplicities == (1, 1, 1, 1, 1)

    def test_first_double_group(self):
        pat = degeneracy_pattern(params3(0, 10), 9)
        doubles = [(i, g) for i, (_, g) in enumerate(pat.groups) if len(g) == 2]
        assert doubles[0][0] == 2  # third group
        assert doubles[0][1] == (1, 6)

    def test_triple_groups(self):
        pat = degeneracy_pattern(params3(2, 8), 12)
        assert pat.multiplicities == (1, 1, 3, 3, 2, 2)
        assert pat.groups[2][1] == (1, 2, 6)
        assert pat.groups[3][1] == (4, 5, 9)

    def test_energies_strictly_increase(self, rng):
        for _ in range(20):
            p = random_admissible_params(rng)
            pat = degeneracy_pattern(p, 30)
            energies = [e for e, _ in pat.groups]
            assert energies == sorted(energies)
            assert all(e1 != e2 for e1, e2 in zip(energies, energies[1:]))
            all_idx = sorted(i for _, g in pat.groups for i in g)
            assert all_idx == list(range(30))
            assert max(pat.multiplicities) <= 3

    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    def test_matches_sorted_energies(self, lam):
        rng = random.Random(10 + lam)
        pts = [random_admissible_params(rng, lam=lam, max_numer=3) for _ in range(20)]
        if lam == 3:
            pts += [representative_params(t) for t in ALL_VARIANT_TYPES[::7]]
        for p in pts:
            count = 20 * lam + 1
            assert degeneracy_pattern(p, count).groups == reference_groups(p, count), p.alphas

    @given(admissible_params(), st.integers(min_value=1, max_value=300))
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_reference(self, p, count):
        assert [p.energy(n) for n in range(count)] == [reference_energy(p, n) for n in range(count)]
        assert degeneracy_pattern(p, count).groups == reference_groups(p, count)


class TestSpectrumType:
    def test_family_I_has_no_c_variant(self):
        # class I has a- and b-type boundary lines only
        with pytest.raises(ValueError):
            SpectrumType("I", "c", n=2)


class TestClassify3:
    @pytest.mark.parametrize("a0,a1,label", CAPTION_CASES)
    def test_figure_captions(self, a0, a1, label):
        assert classify3(params3(a0, a1)).label == label

    def test_harmonic_is_first_window(self):
        assert classify3(new_params(3, [0, 0])).label == "I.1.1"

    def test_rejects_other_lambda(self):
        with pytest.raises(UnsupportedLambda):
            classify3(new_params(2, [Fraction(1, 2)]))

    @pytest.mark.parametrize("a0,a1,branch", [
        (-5, -5, "class I"),
        (2, -4, "I.abc"),
        (2, -10, "III.abc"),
        (2, -5, "III.c"),
        (3, -10, "III.b"),
        (3, -5, "III.a"),
        (3, -7, "III.2"),
        (3, Fraction(-21, 2), "III.1"),
    ])
    def test_out_of_domain_raises_invariant_violation(self, a0, a1, branch):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(branch)}:"):
            classify3(unchecked_params3(a0, a1))

    @pytest.mark.parametrize("t", ALL_VARIANT_TYPES)
    def test_representative_round_trip(self, t):
        assert classify3(representative_params(t)) == t

    def test_boundary_lines_classified(self):
        for a0, a1 in boundary_line_points():
            t = classify3(params3(a0, a1))
            assert t.variant in ("a", "b", "c", "abc"), (a0, a1, t.label)

    @given(st.fractions(min_value=-1, max_value=40, max_denominator=10),
           st.fractions(min_value=-60, max_value=40, max_denominator=10))
    @settings(max_examples=300, deadline=None)
    def test_total_on_admissible_plane(self, a0, a1):
        if a0 <= -1 or a1 <= -2 - a0:
            return
        t = classify3(params3(a0, a1))
        assert t.label


class TestExpectedPrefix:
    def test_harmonic_chain(self):
        d = expected_prefix(SpectrumType("I", "1", n=1), 6)
        assert d.index_order == (0, 1, 2, 3, 4, 5)
        assert d.multiplicities == (1,) * 6

    def test_second_class_periodic_chain(self):
        d = expected_prefix(SpectrumType("II", "1", n=1, m=1), 6)
        assert d.index_order == (0, 2, 1, 3, 5, 4)

    def test_third_class_periodic_chain(self):
        d = expected_prefix(SpectrumType("III", "1", n=1, m=1), 6)
        assert d.index_order == (2, 0, 1, 5, 3, 4)

    def test_printed_chain_class_I(self):
        # E0 < E3 < E1 < E2 < E6 < E4 < E5 < E9 < ... for the n=2 window
        d = expected_prefix(SpectrumType("I", "1", n=2), 9)
        assert d.index_order[:7] == (0, 3, 1, 2, 6, 4, 5)

    def test_triple_chain(self):
        d = expected_prefix(SpectrumType("I", "abc", n=2), 9)
        assert d.groups[:4] == ((0,), (3,), (1, 2, 6), (4, 5))


class TestOracleAgreement:
    def test_random_sample(self, rng):
        for _ in range(500):
            p = random_admissible_params(rng)
            t = classify3(p)
            assert expected_prefix(t, 30) == classify_oracle(p, 30), (p.alphas, t.label)

    def test_boundary_lines(self):
        for a0, a1 in boundary_line_points():
            p = params3(a0, a1)
            t = classify3(p)
            assert expected_prefix(t, 30) == classify_oracle(p, 30), (a0, a1, t.label)


class TestOracleAgrees:
    def test_long_label_neighbours_fail(self):
        # I.1.10, I.2.10 and I.10.a share I.1.11's first 30 levels
        p = params3(0, 60)
        t = classify3(p)
        assert t == SpectrumType("I", "1", n=11)
        assert oracle_agrees(p, t)
        for near in (SpectrumType("I", "1", n=10), SpectrumType("I", "2", n=10),
                     SpectrumType("I", "a", n=10)):
            assert expected_prefix(near, 30) == classify_oracle(p, 30)
            assert not oracle_agrees(p, near), near.label

    def test_neighbours_distinct(self):
        labels = [t for t in ALL_VARIANT_TYPES if t.n <= 4 and (t.m or 0) <= 4]
        for t in labels:
            p = representative_params(t)
            assert oracle_agrees(p, t), t.label
            for near in neighbours(t):
                assert not oracle_agrees(p, near), (t.label, near.label)

    def test_reads_no_prefix(self, monkeypatch):
        def no_prefix(*args):
            raise AssertionError("the oracle read a spectrum prefix")

        for name in ("classify_oracle", "degeneracy_pattern", "expected_prefix",
                     "representative_params"):
            monkeypatch.setattr(f"cext_osc.spectrum.{name}", no_prefix)
        p = params3(0, 60)
        assert oracle_agrees(p, SpectrumType("I", "1", n=11))
        assert not oracle_agrees(p, SpectrumType("I", "1", n=10))


class TestOrderKey:
    def test_examples(self):
        # E = (1/2, 9/2, 11/2): I.1.2, levels 0 < 3 < 1 < 2
        assert order_key(params3(0, 6)) == ((0, 1, 1), (0, 1, 2))
        # E = (3/2, 15/2, 15/2): levels 1 and 2 tie, two periods above level 0
        assert order_key(params3(2, 8)) == ((0, 2, 2), (0, 0, 0))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_iff_long_prefix_descriptors_equal(self, data):
        # narrow boxes, so that many pairs share a key
        lam = data.draw(st.integers(min_value=2, max_value=7))
        points = admissible_params(st.just(lam), max_value=2, max_denominator=4)
        p, p2 = data.draw(points), data.draw(points)
        key, key2 = order_key(p), order_key(p2)
        count = lam * (max(key[0] + key2[0]) + 3)
        same = classify_oracle(p, count) == classify_oracle(p2, count)
        assert (key == key2) == same, (p.alphas, p2.alphas, key, key2)

    def test_labels_have_distinct_keys(self):
        labels = variant_types(12)
        assert len(labels) == 1788
        points = [representative_params(t) for t in labels]
        assert [classify3(p) for p in points] == labels
        assert len({order_key(p) for p in points}) == len(labels)

    @given(admissible_params())
    @settings(max_examples=200, deadline=None)
    def test_periodic_iff_one_period_and_no_ties(self, p):
        q, rank = order_key(p)
        periodic = period_or_none(detect_period, p, 30) is not None
        assert periodic == (set(q) == {0} and len(set(rank)) == p.lam), p.alphas

    @given(admissible_params())
    @settings(max_examples=300, deadline=None)
    def test_integer_key_matches_fraction_reference(self, p):
        assert order_key(p) == reference_order_key(p), p.alphas

    def test_integer_key_on_boundary_lines(self):
        for a0, a1 in boundary_line_points():
            p = params3(a0, a1)
            assert order_key(p) == reference_order_key(p), (a0, a1)


class TestLabelFromKey:
    def test_inverts_every_label(self):
        labels = variant_types(20)
        assert len(labels) == 4900
        for t in labels:
            assert label_from_key(order_key(representative_params(t))) == t, t.label

    def test_matches_classify3_on_random_points(self):
        rng = random.Random(25)
        for box in (30, 300):
            for _ in range(1000):
                p = random_admissible_params(rng, max_numer=box)
                assert label_from_key(order_key(p)) == classify3(p), p.alphas

    def test_matches_classify3_on_boundary_lines(self):
        for a0, a1 in boundary_line_points():
            p = params3(a0, a1)
            assert label_from_key(order_key(p)) == classify3(p), (a0, a1)

    @pytest.mark.parametrize("key", [
        ((0, 1, 2), (0, 1, 2)),      # I.1 needs q_1 = q_2, II.2 needs q_2 < q_1
        ((0, -1, -1), (0, 1, 2)),    # I.1 at n = 0
        ((0, -1, 0), (0, 1, 1)),     # II.c at m = 0
        ((1, 1, 1), (0, 0, 0)),      # no subspace is the lowest
        ((0, 0, 0), (0, 1, 3)),      # ranks of no lambda=3 label
        ((0, 0, 0), (1, 1, 1)),
        ((0, 0, 0, 0), (0, 1, 2, 3)),  # a lambda=4 key
        ((0, 0), (0, 1, 2)),
    ])
    def test_key_outside_image_raises(self, key):
        with pytest.raises(InvariantViolation):
            label_from_key(key)

    @given(st.tuples(*[st.integers(min_value=-2, max_value=8)] * 3),
           st.tuples(*[st.integers(min_value=0, max_value=2)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_decodes_only_keys_of_labels(self, q, rank):
        try:
            t = label_from_key((q, rank))
        except InvariantViolation:
            return
        assert order_key(representative_params(t)) == (q, rank), t.label

    def test_oracle_needs_lambda_3(self):
        with pytest.raises(UnsupportedLambda):
            oracle_agrees(new_params(4, [0, 0, 0]), SpectrumType("I", "1", n=1))


class TestDegeneracyRules:
    def test_degenerate_ground_only_for_IIb1_IIabc1(self, rng):
        pts = [random_admissible_params(rng) for _ in range(300)]
        pts += [params3(a0, a1) for a0, a1 in boundary_line_points()]
        for p in pts:
            t = classify3(p)
            first = classify_oracle(p, 30).multiplicities[0]
            expected_double = (
                t.family == "II" and t.n == 1 and t.variant in ("b", "abc")
            )
            assert (first == 2) == expected_double, (p.alphas, t.label, first)
            assert first <= 2, "triply-degenerate ground state must not occur"

    def test_lowest_double_positions(self):
        for t in ALL_VARIANT_TYPES:
            if t.variant not in ("a", "b", "c") or (t.m or 0) > 5 or t.n > 5:
                continue
            count = 6 * ((t.m or 0) + t.n) + 12
            d = classify_oracle(representative_params(t), count)
            first_double = next(
                i for i, mult in enumerate(d.multiplicities) if mult == 2)
            assert first_double + 1 == lowest_double_position(t), t.label


class TestDetectPeriod:
    def test_worked_example(self):
        # spacings of the sorted bosonic spectrum, exactly the closed forms
        rep = detect_period(params3(0, Fraction(1, 2)), 30)
        assert rep.omegas == (Fraction(5, 4), 1, Fraction(3, 4))
        assert rep.big_omega == 3
        assert rep.ground_order == (0, 1, 2)

    def test_harmonic(self):
        rep = detect_period(new_params(3, [0, 0]), 30)
        assert rep.omegas == (1, 1, 1)

    def test_degenerate_rejected(self):
        with pytest.raises(NotPeriodic):
            detect_period(params3(0, 10), 30)

    def test_second_class_order(self):
        p = params3(5, -2)
        rep = detect_period(p, 30)
        assert rep.ground_order == (0, 2, 1)
        assert rep.omegas == (1, Fraction(3, 2), Fraction(1, 2))
        assert rep.omegas == period3_omegas(p, classify3(p))

    def test_succeeds_exactly_on_period_labels(self, rng):
        periodic_labels = {"I.1.1", "II.1.1.1", "III.1.1.1"}
        for _ in range(100):
            p = random_admissible_params(rng)
            is_periodic = classify3(p).label in periodic_labels
            if is_periodic:
                rep = detect_period(p, 30)
                assert rep.big_omega == 3
                assert sum(rep.omegas) == 3
            else:
                with pytest.raises(NotPeriodic):
                    detect_period(p, 30)

    def test_general_lambda_period(self):
        p = new_params(4, [Fraction(1, 4), Fraction(-1, 8), Fraction(1, 8)])
        rep = detect_period(p, 24)
        assert rep.big_omega == 4
        assert all(w > 0 for w in rep.omegas)

    @pytest.mark.parametrize("lam", [2, 3, 4, 5, 6, 7])
    def test_matches_long_prefix_reference(self, lam):
        rng = random.Random(lam)
        pts = [random_admissible_params(rng, lam=lam, max_numer=3) for _ in range(15)]
        pts += [random_admissible_params(rng, lam=lam) for _ in range(5)]
        outcomes = set()
        for p in pts:
            want = period_or_none(prefix_detect_period, p, 100 * lam)
            assert period_or_none(detect_period, p, 3 * lam) == want, p.alphas
            outcomes.add(want is None)
        # lambda = 2 is always periodic: E(1) - E(0) = 1
        assert outcomes == ({False} if lam == 2 else {False, True})

    def test_unaligned_default_prefix_finds_period(self):
        # 30 levels are 7.5 periods at lambda = 4: an unaligned prefix
        p = new_params(4, [Fraction(11, 4), Fraction(6, 7), Fraction(-13, 3)])
        rep = detect_period(p, 30)
        assert rep.big_omega == 4
        assert rep == prefix_detect_period(p, 400)

    def test_closed_form_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr("cext_osc.spectrum.period3_omegas", lambda p, t: None)
        with pytest.raises(InvariantViolation, match="closed forms"):
            detect_period(params3(0, Fraction(1, 2)))

    def test_closed_form_mismatch_raises_under_optimize(self):
        # python -O strips assert statements; the invariant must still raise
        script = textwrap.dedent("""
            import sys
            from cext_osc import new_params, spectrum
            print(sys.flags.optimize)
            spectrum.period3_omegas = lambda p, t: None
            spectrum.detect_period(new_params(3, [0, "1/2"]))
        """)
        src = os.path.dirname(os.path.dirname(cext_osc.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout == "1\n"
        assert proc.returncode != 0
        assert "InvariantViolation: period detector disagrees with closed forms" in proc.stderr

    def test_short_prefix_does_not_fake_a_period(self):
        # level 1 starts over five periods above the ground, yet the spacings
        # of the first 9 levels repeat with period 3
        with pytest.raises(NotPeriodic):
            detect_period(params3(19, 13), 9)


class TestSusyWindow:
    def test_examples(self):
        assert susy_window(params3(0, Fraction(1, 2)))
        assert not susy_window(params3(0, 6))
        assert susy_window(new_params(3, [0, 0]))

    def test_matches_printed_bounds(self, rng):
        # all-spacings-positive must agree with -1 < a0 < 2, -1 < a1 < 1 - a0
        for _ in range(200):
            p = random_admissible_params(rng)
            a0, a1 = p.alphas[0], p.alphas[1]
            printed = -1 < a0 < 2 and -1 < a1 < 1 - a0
            assert susy_window(p) == printed, p.alphas


def draw_in_subprocess(kwargs):
    """stderr of one ``random_admissible_params`` call that must fail; a hang fails the test.

    In a subprocess with a timeout: a retry loop that can never succeed would hang, not fail.
    """
    script = textwrap.dedent(f"""
        import random
        from cext_osc.spectrum import random_admissible_params
        random_admissible_params(random.Random(0), **{kwargs!r})
    """)
    src = os.path.dirname(os.path.dirname(cext_osc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail(f"random_admissible_params(**{kwargs!r}) does not return")
    assert proc.returncode != 0
    return proc.stderr


class TestRandomAdmissibleParams:
    def test_lambda_below_two_raises(self):
        for lam in (1, 0):
            stderr = draw_in_subprocess({"lam": lam})
            assert f"InadmissibleParams: lambda must be >= 2, got {lam}" in stderr

    @pytest.mark.parametrize("kwargs", [{"max_numer": -1}, {"max_denom": 0}])
    def test_empty_box_raises(self, kwargs):
        # max_numer = -1 makes alpha_0 <= -1, so F(1) <= 0 on every draw
        stderr = draw_in_subprocess(kwargs)
        assert "InadmissibleParams: need max_numer >= 0 and max_denom >= 1" in stderr
