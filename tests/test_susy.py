import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cext_osc import (
    ExistenceViolation,
    Ladder,
    WindowViolation,
    build_hierarchy,
    check_interlacing,
    cyclic_shift,
    new_params,
    projection_shift_identity,
    shift_flags,
    superalgebra_gap,
    verify_sqm,
)
from cext_osc import fockrep
from cext_osc.fockrep import build_operators, verify_relations
from conftest import ladder_h0, params3, random_susy_params, streaming_gap

TOL = 1e-12


def susy_point(rng, lam=3):
    return random_susy_params(rng, lam=lam)


def moved(h, mu, delta, nu=None):
    """h with member mu's first nu moved by delta, or its period when nu is None."""
    m = h.members[mu]
    if nu is None:
        member = Ladder(m.firsts, m.period + delta)
    else:
        member = Ladder((*m.firsts[:nu], m.firsts[nu] + delta, *m.firsts[nu + 1:]), m.period)
    return dataclasses.replace(h, members=(*h.members[:mu], member, *h.members[mu + 1:]))


def levels(member, count):
    return tuple(member.at(n) for n in range(count))


class TestCyclicShift:
    def test_worked_example(self):
        p = new_params(3, [0, Fraction(1, 2)])
        assert cyclic_shift(p, 1).alphas == (Fraction(1, 2), Fraction(-1, 2), 0)
        assert cyclic_shift(p, 2).alphas == (Fraction(-1, 2), 0, Fraction(1, 2))

    def test_identity_and_periodicity(self, rng):
        for _ in range(10):
            p = susy_point(rng)
            assert cyclic_shift(p, 0) == p
            assert cyclic_shift(p, p.lam) == p
            assert cyclic_shift(p, p.lam + 1) == cyclic_shift(p, 1)
            assert cyclic_shift(cyclic_shift(p, 1), 2) == p

    def test_shift_out_of_existence_raises(self):
        # alphas (-1/2, 3, -5/2) shifted by 2 is (-5/2, -1/2, 3): F(1) = -3/2
        with pytest.raises(ExistenceViolation) as exc:
            cyclic_shift(new_params(3, ["-1/2", 3]), 2)
        assert (exc.value.mu, exc.value.value) == (1, Fraction(-3, 2))

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError, match="shift must be >= 0"):
            cyclic_shift(new_params(3, [0, Fraction(1, 2)]), -1)


class TestBuildHierarchy:
    def test_worked_example_grounds(self):
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=40)
        assert h.omegas == (1, Fraction(3, 2), Fraction(1, 2))
        assert h.ground_energies == (0, 1, Fraction(5, 2), 3)

    def test_harmonic_diagonals(self):
        h = build_hierarchy(new_params(3, [0, 0]), trunc=10)
        for mu in range(4):
            assert levels(h.members[mu], 4) == (mu, mu + 1, mu + 2, mu + 3)

    def test_window_violation(self):
        with pytest.raises(WindowViolation):
            build_hierarchy(params3(0, 6))

    def test_stores_exact_data_only(self, rng):
        p = susy_point(rng, lam=4)
        h = build_hierarchy(p, trunc=20)
        assert [f.name for f in dataclasses.fields(h)] == [
            "base", "omegas", "ground_energies", "members", "shifted", "trunc"]
        assert h.shifted == tuple(cyclic_shift(p, mu) for mu in range(4))
        assert h.members == tuple(
            Ladder(tuple(p.structure_function(nu + mu) for nu in range(4)), 4) for mu in range(5))
        assert all(levels(m, 40) == tuple(p.structure_function(n + mu) for n in range(40))
                   for mu, m in enumerate(h.members))

    def test_last_equals_first_plus_period(self, rng):
        for _ in range(5):
            p = susy_point(rng)
            h = build_hierarchy(p, trunc=20)
            lam = p.lam
            assert all(
                h.members[lam].at(n) == h.members[0].at(n) + lam
                for n in range(20))


class TestMalformedHierarchy:
    """A hierarchy whose members cannot be compared is refused, never passed."""

    @pytest.mark.parametrize("change", [
        lambda h: {"members": (Ladder((), 3),) * 4},
        lambda h: {"trunc": 1},
        lambda h: {"members": tuple(Ladder(m.firsts[:-1], m.period) for m in h.members)},
        lambda h: {"trunc": 5},
        lambda h: {"members": h.members[:-1]},
        lambda h: {"members": (Ladder(h.members[0].firsts[:-1], 3), *h.members[1:])},
    ], ids=["empty-members", "trunc-1", "members-too-short", "trunc-below-2-lambda",
            "member-missing", "member-one-short"])
    def test_shape_is_checked(self, change):
        # unchecked, an empty or short member would pass every exact check and flag
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=20)
        with pytest.raises(ValueError, match="need 4 members"):
            dataclasses.replace(h, **change(h))


def dense_reference(h):
    """The superalgebra residuals from explicit 2K x 2K block matrices.

    H = diag(H_mu, H_{mu+1}) - E_mu and Q carries a below the diagonal; the
    residual is the max |entry| with the truncation row and column of both
    blocks removed. Returns (per_mu, path_agreement) shaped like SqmReport.
    """
    k = h.trunc
    keep = [i for i in range(2 * k) if i not in (k - 1, 2 * k - 1)]

    def masked_max(m):
        return float(np.max(np.abs(m[np.ix_(keep, keep)])))

    dense = [np.diag([float(v) for v in levels(m, k)]).astype(complex) for m in h.members]
    ops = [build_operators(q, k) for q in h.shifted]
    per_mu = []
    for mu in range(h.lam):
        big_h = np.zeros((2 * k, 2 * k), dtype=complex)
        big_h[:k, :k] = dense[mu] - float(h.ground_energies[mu]) * np.eye(k)
        big_h[k:, k:] = dense[mu + 1] - float(h.ground_energies[mu]) * np.eye(k)
        q = np.zeros_like(big_h)
        q[k:, :k] = ops[mu].a
        q_dag = q.conj().T
        per_mu.append({
            "supercharge_nilpotent": masked_max(q @ q),
            "adjoint_nilpotent": masked_max(q_dag @ q_dag),
            "commutes_q": masked_max(big_h @ q - q @ big_h),
            "commutes_q_dag": masked_max(big_h @ q_dag - q_dag @ big_h),
            "anticommutator_closes": masked_max(q @ q_dag + q_dag @ q - big_h),
        })
    cut = k - 1
    first = ops[0]
    agreement = [float(np.max(np.abs((first.a_dag @ first.a - dense[0])[:cut, :cut])))]
    for mu in range(1, h.lam + 1):
        alt = ops[mu - 1].a @ ops[mu - 1].a_dag + float(h.ground_energies[mu - 1]) * np.eye(k)
        agreement.append(float(np.max(np.abs((alt - dense[mu])[:cut, :cut]))))
    return per_mu, agreement


class TestVerifySqm:
    def test_worked_example(self):
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=40)
        rep = verify_sqm(h)
        assert rep.all_pass
        assert rep.max_residual < TOL
        assert rep.hierarchy_shift_exact and rep.shift_periodic
        assert rep.path_agreement

    def test_relation_names(self):
        h = build_hierarchy(new_params(3, [0, 0]), trunc=20)
        rep = verify_sqm(h)
        expected = {
            "supercharge_nilpotent", "adjoint_nilpotent",
            "commutes_q", "commutes_q_dag", "anticommutator_closes"}
        for per_mu in rep.per_mu:
            assert set(per_mu) == expected

    @pytest.mark.parametrize("trunc", [15, 30])
    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    def test_blocks_match_dense_reference(self, rng, lam, trunc):
        for _ in range(3):
            h = build_hierarchy(susy_point(rng, lam=lam), trunc=trunc)
            rep = verify_sqm(h)
            per_mu, agreement = dense_reference(h)
            assert len(rep.per_mu) == len(per_mu) == lam
            for got, want in zip(rep.per_mu, per_mu):
                assert set(got) == set(want)
                for name in want:
                    assert abs(got[name] - want[name]) < 1e-15, name
            np.testing.assert_allclose(rep.path_agreement, agreement, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lam", [2, 3, 5])
    def test_corrupted_member_fails(self, rng, lam):
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=20)
        assert verify_sqm(h).all_pass and projection_shift_identity(h, tol=TOL)
        bad = moved(h, 1, Fraction(1, 1000), nu=5 % lam)
        assert not verify_sqm(bad).all_pass
        assert not projection_shift_identity(bad, tol=TOL)

    @pytest.mark.parametrize("lam", [2, 3, 5])
    def test_corrupted_ladder_fails(self, rng, lam, monkeypatch):
        # verify_sqm builds the ladders it reads, so the corruption goes in there
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=20)
        assert verify_sqm(h).all_pass
        build = fockrep.build_operators

        def one_entry_scaled(p, trunc):
            ops = build(p, trunc)
            a_dag = ops.a_dag.copy()
            a_dag[5, 4] *= 1.001
            return dataclasses.replace(ops, a=a_dag.conj().T, a_dag=a_dag)

        monkeypatch.setattr(fockrep, "build_operators", one_entry_scaled)
        assert not verify_sqm(h).all_pass

    @pytest.mark.parametrize("lam", [2, 3, 5])
    def test_broken_hierarchy_shift_fails(self, rng, lam):
        # the last member one period step off: the exact shift sees it at its second level
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=20)
        assert verify_sqm(h).hierarchy_shift_exact
        rep = verify_sqm(moved(h, lam, Fraction(1, 1000)))
        assert not rep.hierarchy_shift_exact and not rep.all_pass

    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    def test_random_points_all_lambdas(self, rng, lam):
        for _ in range(3):
            p = susy_point(rng, lam=lam)
            rep = verify_sqm(build_hierarchy(p, trunc=30))
            assert rep.all_pass, (p.alphas, rep.max_residual)


class TestSuperalgebraGap:
    """The exact check held against verify_sqm, its float realization."""

    def test_worked_example(self):
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=60)
        assert superalgebra_gap(h) == 0 and type(superalgebra_gap(h)) is Fraction
        assert shift_flags(h) == (True, True)

    @pytest.mark.parametrize("trunc", [40, 120])
    @pytest.mark.parametrize("lam", range(2, 8))
    def test_one_moved_entry_is_the_gap(self, rng, lam, trunc):
        for _ in range(5):
            h = build_hierarchy(susy_point(rng, lam=lam), trunc=trunc)
            assert superalgebra_gap(h) == 0 and verify_sqm(h).all_pass
            # any member, any first: it moves every level n = nu mod lambda
            mu, nu = rng.randrange(lam + 1), rng.randrange(lam)
            bad = moved(h, mu, Fraction(1, 1000) * rng.choice([1, -1]), nu)
            assert superalgebra_gap(bad) == Fraction(1, 1000), (mu, nu)
            assert not verify_sqm(bad).all_pass, (mu, nu)

    @pytest.mark.parametrize("trunc", [40, 120])
    @pytest.mark.parametrize("lam", range(2, 8))
    def test_moved_period_is_the_closed_form_gap(self, rng, lam, trunc):
        # levels n < K - 1 are read, so residue 0 drifts furthest: delta * floor((K - 2) / lambda)
        for _ in range(5):
            h = build_hierarchy(susy_point(rng, lam=lam), trunc=trunc)
            mu = rng.randrange(lam + 1)
            delta = Fraction(rng.randint(1, 999), 1000) * rng.choice([1, -1])
            bad = moved(h, mu, delta)
            want = abs(delta) * ((trunc - 2) // lam)
            assert superalgebra_gap(bad) == want, mu
            clean = h.members[mu]
            assert streaming_gap(levels(bad.members[mu], trunc), clean.firsts, clean.period,
                                 trunc - 1) == want
            assert not verify_sqm(bad).all_pass

    @pytest.mark.parametrize("lam", range(2, 8))
    def test_moved_ground_energy_fails(self, rng, lam):
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=40)
        for mu in range(lam):
            ground = list(h.ground_energies)
            ground[mu] += Fraction(1, 1000)
            bad = dataclasses.replace(h, ground_energies=tuple(ground))
            assert superalgebra_gap(bad) == Fraction(1, 1000), mu
            assert not verify_sqm(bad).all_pass, mu

    @pytest.mark.parametrize("lam", range(2, 8))
    def test_open_shift_chain_fails_the_periodic_flag(self, rng, lam):
        # the flag reads the stored shifts: shifted[lambda - 1] shifted once more is base
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=20)
        assert cyclic_shift(h.base, 1) != h.base
        bad = dataclasses.replace(h, shifted=(*h.shifted[:-1], cyclic_shift(h.base, 0)))
        assert shift_flags(bad) == (True, False)
        assert not verify_sqm(bad).shift_periodic and not verify_sqm(bad).all_pass


class TestInterlacing:
    def test_worked_example(self):
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=30)
        assert check_interlacing(h, 20)
        assert levels(h.members[0], 7) == (
            0, 1, Fraction(5, 2), 3, 4, Fraction(11, 2), 6)

    def test_asymmetric_spacings(self):
        h = build_hierarchy(new_params(3, [1, Fraction(-1, 2)]), trunc=30)
        assert h.omegas == (2, Fraction(1, 2), Fraction(1, 2))
        assert check_interlacing(h, 20)
        assert levels(h.members[0], 4) == (0, 2, Fraction(5, 2), 3)

    def test_random(self, rng):
        for lam in (2, 3, 4):
            p = susy_point(rng, lam=lam)
            assert check_interlacing(build_hierarchy(p, trunc=24), 16)

    def test_count_below_one_is_refused(self):
        # one ground level off by 1/1000 fails at count 1; counts below 1 would compare nothing
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=60)
        ground = list(h.ground_energies)
        ground[0] += Fraction(1, 1000)
        bad = dataclasses.replace(h, ground_energies=tuple(ground))
        assert not check_interlacing(bad, 57) and not check_interlacing(bad, 1)
        for count in (0, -5):
            with pytest.raises(ValueError, match="count must be in 1"):
                check_interlacing(bad, count)
            with pytest.raises(ValueError):
                check_interlacing(h, count)

    @pytest.mark.parametrize("lam", range(2, 8))
    def test_period_is_the_stored_ground_energy(self, rng, lam):
        # E_lambda is the period Omega of every ladder; no other exact check reads it
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=24)
        assert check_interlacing(h, 24 - lam)
        for delta in (Fraction(1, 1000), Fraction(-1, 1000)):
            g = (*h.ground_energies[:lam], h.ground_energies[lam] + delta)
            bad = dataclasses.replace(h, ground_energies=g)
            assert not check_interlacing(bad, 24 - lam), delta
            assert superalgebra_gap(bad) == 0 and projection_shift_identity(bad)
            # members that follow the ladder of the moved period pass again
            ladder = [m // lam * g[lam] + g[m % lam] for m in range(2 * lam)]
            members = tuple(Ladder(tuple(ladder[mu:mu + lam]), g[lam]) for mu in range(lam + 1))
            assert check_interlacing(dataclasses.replace(bad, members=members), 24 - lam)

    def test_swapped_levels_fail(self):
        # the same values in another order: eigenvalue n is no longer level n
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=30)
        firsts = h.members[1].firsts
        swapped = Ladder((firsts[0], firsts[2], firsts[1]), 3)
        members = (h.members[0], swapped, *h.members[2:])
        assert not check_interlacing(dataclasses.replace(h, members=members), 20)


class TestProjectionShiftIdentity:
    @pytest.mark.parametrize("alphas", [
        (0, Fraction(1, 2)),
        (Fraction(1, 2), Fraction(-1, 2)),
        (0, 0),
    ])
    def test_named_points(self, alphas):
        p = new_params(3, list(alphas))
        h = build_hierarchy(p, trunc=30)
        assert projection_shift_identity(h, tol=TOL)

    def test_random(self, rng):
        for _ in range(10):
            h = build_hierarchy(susy_point(rng), trunc=25)
            assert projection_shift_identity(h, tol=TOL)

    @pytest.mark.parametrize("lam", [2, 3, 5])
    def test_shifted_diagonal_entry_fails(self, rng, lam):
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=20)
        assert not projection_shift_identity(moved(h, lam - 1, Fraction(1, 1000), nu=4 % lam))

    @pytest.mark.parametrize("lam", [2, 3, 5])
    def test_wrong_ground_energy_fails(self, rng, lam):
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=20)
        ground = list(h.ground_energies)
        ground[lam - 1] -= Fraction(1, 1000)
        bad = dataclasses.replace(h, ground_energies=tuple(ground))
        assert not projection_shift_identity(bad)
        assert not check_interlacing(bad, 20 - lam)
        assert not verify_sqm(bad).all_pass

    def test_wrong_shifted_algebra_fails(self):
        h = build_hierarchy(new_params(4, [Fraction(1, 2), 0, Fraction(-1, 3)]), trunc=20)
        for mu in range(1, 4):
            shifted = list(h.shifted)
            shifted[mu] = cyclic_shift(h.base, mu + 1)
            bad = dataclasses.replace(h, shifted=tuple(shifted))
            assert not projection_shift_identity(bad), mu

    def test_rewrites_read_the_base_point(self):
        # the lambda = 3 rewrites carry the paper's coefficients in the base alphas; under
        # another base point they fail, while every check that reads no base still passes
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=20)
        bad = dataclasses.replace(h, base=h.shifted[1])
        assert superalgebra_gap(bad) == 0 and check_interlacing(bad, 17)
        assert not projection_shift_identity(bad)

    def test_tol_is_a_strict_bound(self):
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=20)
        assert projection_shift_identity(h, tol=1e-300)
        assert not projection_shift_identity(h, tol=0)
        bad = moved(h, 1, Fraction(1, 8), nu=0)
        assert projection_shift_identity(bad, tol=0.126)
        assert not projection_shift_identity(bad, tol=0.125)


def reference_interlacing(h, count):
    """check_interlacing as Fraction arithmetic, one level at a time."""
    lam, ground = h.lam, h.ground_energies
    return all(
        h.members[mu].at(n) == (n + mu) // lam * ground[lam] + ground[(n + mu) % lam]
        for mu in range(lam + 1) for n in range(count))


def reference_projection(h, tol=TOL):
    """projection_shift_identity in floats, with H0 read off the ladder products."""
    lam, k = h.lam, h.trunc
    members = np.array([[float(v) for v in levels(m, k)] for m in h.members])
    level = np.arange(k) % lam
    h0 = [ladder_h0(build_operators(q, k)) for q in h.shifted]

    def holds(rhs, mu):
        return np.max(np.abs(rhs - members[mu])[:k - 1]) < tol

    ok = all(
        holds(h0[mu] - np.array([float(1 + a) for a in q.alphas])[level] / 2
              + float(h.ground_energies[mu]), mu)
        for mu, q in enumerate(h.shifted))
    if lam == 3:
        a = [float(x) for x in h.base.alphas]
        combos = [
            [-(1 + a[nu]) / 2 for nu in range(3)],
            [(1 + a[nu]) / 2 for nu in range(3)],
            [(3 + a[(nu + 1) % 3] - a[(nu + 2) % 3]) / 2 for nu in range(3)],
        ]
        ok = ok and all(holds(h0[0] + np.array(combos[mu])[level], mu) for mu in range(3))
    return ok


@st.composite
def corrupted_hierarchies(draw):
    """A hierarchy at lambda = 2..7, clean or with one exact datum moved by >= 1/1000."""
    lam = draw(st.integers(2, 7))
    raw = draw(st.lists(st.fractions(Fraction(1, 8), 24, max_denominator=8),
                        min_size=lam, max_size=lam))
    omegas = [lam * r / sum(raw) for r in raw]
    p = new_params(lam, [w - 1 for w in omegas[:-1]])
    trunc = draw(st.integers(2 * lam, 30))
    h = build_hierarchy(p, trunc)
    delta = draw(st.fractions(Fraction(1, 1000), 2, max_denominator=1000)) * draw(
        st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["clean", "first", "period", "ground", "shifted"]))
    if kind == "first":
        h = moved(h, draw(st.integers(0, lam)), delta, draw(st.integers(0, lam - 1)))
    elif kind == "period":
        h = moved(h, draw(st.integers(0, lam)), delta)
    elif kind == "ground":
        mu = draw(st.integers(0, lam))
        ground = list(h.ground_energies)
        ground[mu] += delta
        h = dataclasses.replace(h, ground_energies=tuple(ground))
    elif kind == "shifted":
        mu, wrong = draw(st.integers(0, lam - 1)), draw(st.integers(0, lam - 1))
        shifted = list(h.shifted)
        shifted[mu] = cyclic_shift(p, wrong)
        h = dataclasses.replace(h, shifted=tuple(shifted))
    return h


class TestExactChecksMatchReferences:
    @given(corrupted_hierarchies())
    @settings(max_examples=150, deadline=None)
    def test_integer_checks_agree_with_fraction_and_float(self, h):
        count = h.trunc - h.lam
        assert check_interlacing(h, count) == reference_interlacing(h, count)
        assert projection_shift_identity(h) == reference_projection(h)
        assert (superalgebra_gap(h) == 0 and all(shift_flags(h))) == verify_sqm(h).all_pass

    @pytest.mark.parametrize("lam", range(2, 8))
    def test_references_pass_clean_and_fail_corrupted(self, rng, lam):
        # the property above is not vacuous: each reference flips on a corruption
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=24)
        assert reference_interlacing(h, 24 - lam) and reference_projection(h)
        ground = list(h.ground_energies)
        ground[1] += Fraction(1, 100)
        bad = dataclasses.replace(h, ground_energies=tuple(ground))
        assert not reference_interlacing(bad, 24 - lam) and not reference_projection(bad)


class TestVerdictsHoldForAllN:
    """Each member is a ladder, so every verdict reads the same at K = 2 lambda and beyond."""

    @staticmethod
    def verdicts(h, trunc):
        h = dataclasses.replace(h, trunc=trunc)
        return (superalgebra_gap(h), shift_flags(h), check_interlacing(h, trunc - h.lam),
                projection_shift_identity(h))

    @pytest.mark.parametrize("lam", range(2, 8))
    def test_same_verdicts_at_every_truncation(self, rng, lam):
        for _ in range(3):
            p = susy_point(rng, lam=lam)
            assert build_hierarchy(p, 10**12).members == build_hierarchy(p, 2 * lam).members
            h = build_hierarchy(p, 2 * lam)
            bad = moved(h, rng.randrange(lam + 1), Fraction(1, 1000), rng.randrange(lam))
            for hier in (h, bad):
                want = self.verdicts(hier, 2 * lam)
                assert all(self.verdicts(hier, k) == want for k in (10**6, 10**12))
            assert self.verdicts(h, 2 * lam) == (0, (True, True), True, True)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1])
@pytest.mark.parametrize("check", ["verify_relations", "verify_sqm", "projection_shift_identity"])
def test_tol_must_be_finite_and_not_negative(check, tol):
    # a NaN or infinite tol would pass corrupted data, and a negative one fail everything
    p = new_params(3, [0, Fraction(1, 2)])
    h = build_hierarchy(p, trunc=12)
    call = {
        "verify_relations": lambda: verify_relations(build_operators(p, 12), p, tol=tol),
        "verify_sqm": lambda: verify_sqm(h, tol=tol),
        "projection_shift_identity": lambda: projection_shift_identity(h, tol=tol),
    }[check]
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        call()
