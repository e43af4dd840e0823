"""Acceptance gate: every release criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from cext_osc import (
    build_hierarchy,
    classify3,
    classify_oracle,
    expected_prefix,
    new_params,
    normalization_constant,
    normalization_constant_gamma,
    build_operators,
    verify_relations,
    verify_sqm,
)
from cext_osc.spectrum import (
    lowest_double_position,
    random_admissible_params,
)

from conftest import CAPTION_CASES, params3, random_susy_params
from test_spectrum import boundary_line_points


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def durations():
    """Wall time in seconds of each criterion that ran, by test name."""
    return {}


@pytest.fixture(autouse=True)
def timed(request, durations):
    start = time.perf_counter()
    yield
    durations[request.node.name] = time.perf_counter() - start


def susy_sample(rng, lam, k):
    return [random_susy_params(rng, lam=lam) for _ in range(k)]


def test_criterion_1_caption_regression():
    start = time.perf_counter()
    bad = [(a0, a1, classify3(params3(a0, a1)).label, want)
           for a0, a1, want in CAPTION_CASES
           if classify3(params3(a0, a1)).label != want]
    elapsed = time.perf_counter() - start
    report("1 figure-caption regression (17 labels, exact)",
           not bad and elapsed < 1.0,
           f"{len(CAPTION_CASES)} labels in {elapsed * 1e3:.0f} ms; mismatches: {bad}")


def test_criterion_2_hierarchy_worked_example():
    h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=40)
    ok = (h.ground_energies == (0, 1, Fraction(5, 2), 3)
          and h.omegas == (1, Fraction(3, 2), Fraction(1, 2)))
    for mu in range(4):
        d = h.diagonals[mu]
        ok = ok and all(
            d[n + 1] - d[n] == h.omegas[(n + mu) % 3] for n in range(30))
    report("2 hierarchy worked example (grounds 0,1,5/2,3; spacings 1,3/2,1/2)", ok)


def test_criterion_3_algebra_relations():
    rng = random.Random(3)
    worst = 0.0
    for _ in range(100):
        p = random_admissible_params(rng)
        rep = verify_relations(build_operators(p, 60), p, tol=1e-12)
        worst = max(worst, rep.max_residual)
        if not rep.all_pass:
            break
    report("3 defining relations, 100 random points, K=60",
           rep.all_pass and worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_4_sqm_suite():
    rng = random.Random(4)
    pts = susy_sample(rng, 3, 50)
    for lam in (2, 4, 5):
        pts += susy_sample(rng, lam, 10)
    worst = 0.0
    ok = True
    for p in pts:
        rep = verify_sqm(build_hierarchy(p, trunc=30))
        worst = max(worst, rep.max_residual)
        ok = ok and rep.all_pass and rep.hierarchy_shift_exact
    report("4 sqm(2) suite, 50+3x10 points, exact hierarchy shift",
           ok and worst < 1e-12, f"max residual {worst:.2e}")


def _degeneracy_rules_hold(p, t, descriptor):
    mult = descriptor.multiplicities
    want_double_ground = t.family == "II" and t.n == 1 and t.variant in ("b", "abc")
    if (mult[0] == 2) != want_double_ground or mult[0] > 2:
        return False
    if t.variant in ("a", "b", "c"):
        firsts = [i for i, m in enumerate(mult) if m == 2]
        pos = lowest_double_position(t)
        # the prefix may end before the first double appears
        if firsts and firsts[0] + 1 != pos:
            return False
        if not firsts and pos <= len(mult) - 2:
            return False
    return True


def test_criterion_5_oracle_agreement():
    rng = random.Random(5)
    pts = [random_admissible_params(rng) for _ in range(10_000)]
    pts += [params3(a0, a1) for a0, a1 in boundary_line_points(5)]
    disagreements = 0
    rule_failures = 0
    for p in pts:
        t = classify3(p)
        oracle = classify_oracle(p, 30)
        if expected_prefix(t, 30) != oracle:
            disagreements += 1
        if not _degeneracy_rules_hold(p, t, oracle):
            rule_failures += 1
    report("5 oracle agreement, 10000 random + boundary lines",
           disagreements == 0 and rule_failures == 0,
           f"{len(pts)} points, {disagreements} disagreements, "
           f"{rule_failures} degeneracy-rule failures")


def test_criterion_6_harmonic_recovery():
    ok = classify3(new_params(3, [0, 0])).label == "I.1.1"
    for lam in (2, 3, 4, 5):
        p = new_params(lam, [0] * (lam - 1))
        ok = ok and all(
            p.energy(n) == Fraction(2 * n + 1, 2) for n in range(40))
    report("6 harmonic recovery (alpha = 0, any lambda)", ok)


def test_criterion_7_normalization_agreement():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        p = random_admissible_params(rng)
        for n in range(31):
            exact = float(normalization_constant(p, n))
            closed = normalization_constant_gamma(p, n)
            worst = max(worst, abs(closed - exact) / exact)
    report("7 normalization product vs gamma closed form",
           worst < 1e-10, f"max relative error {worst:.2e}")


CRITERIA = (
    test_criterion_1_caption_regression,
    test_criterion_2_hierarchy_worked_example,
    test_criterion_3_algebra_relations,
    test_criterion_4_sqm_suite,
    test_criterion_5_oracle_agreement,
    test_criterion_6_harmonic_recovery,
    test_criterion_7_normalization_agreement,
)


# A third of the full suite's 60 s budget; criteria 1-7 take about a quarter
# of the suite's time.
CRITERIA_BUDGET_S = 20.0


def test_criterion_8_suite_duration(durations):
    # criteria deselected from this run are run and timed here
    rerun = [c for c in CRITERIA if c.__name__ not in durations]
    for criterion in rerun:
        start = time.perf_counter()
        criterion()
        durations[criterion.__name__] = time.perf_counter() - start
    total = sum(durations[criterion.__name__] for criterion in CRITERIA)
    report(f"8 criteria 1-7 within {CRITERIA_BUDGET_S:.0f} s", total < CRITERIA_BUDGET_S,
           f"{total:.1f} s, {len(rerun)} of {len(CRITERIA)} run by this criterion")
