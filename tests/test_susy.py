import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cext_osc import (
    ExistenceViolation,
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
from cext_osc.fockrep import build_operators
from conftest import ladder_h0, params3, random_susy_params

TOL = 1e-12


def susy_point(rng, lam=3):
    return random_susy_params(rng, lam=lam)


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
            assert h.diagonals[mu][:4] == (mu, mu + 1, mu + 2, mu + 3)

    def test_window_violation(self):
        with pytest.raises(WindowViolation):
            build_hierarchy(params3(0, 6))

    def test_stores_exact_data_only(self, rng):
        p = susy_point(rng, lam=4)
        h = build_hierarchy(p, trunc=20)
        assert [f.name for f in dataclasses.fields(h)] == [
            "base", "omegas", "ground_energies", "diagonals", "shifted", "trunc"]
        assert h.shifted == tuple(cyclic_shift(p, mu) for mu in range(4))
        assert all(len(d) == 20 for d in h.diagonals)
        assert h.diagonals == tuple(
            tuple(p.structure_function(n + mu) for n in range(20)) for mu in range(5))

    def test_last_equals_first_plus_period(self, rng):
        for _ in range(5):
            p = susy_point(rng)
            h = build_hierarchy(p, trunc=20)
            lam = p.lam
            assert all(
                h.diagonals[lam][n] == h.diagonals[0][n] + lam
                for n in range(20))


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

    dense = [np.diag([float(v) for v in d]).astype(complex) for d in h.diagonals]
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
        member = list(h.diagonals[1])
        member[5] += Fraction(1, 1000)
        diagonals = (h.diagonals[0], tuple(member), *h.diagonals[2:])
        bad = dataclasses.replace(h, diagonals=diagonals)
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
        # the last level lies outside the float checks' window: only the exact shift sees it
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=20)
        assert verify_sqm(h).hierarchy_shift_exact
        last = list(h.diagonals[lam])
        last[-1] += Fraction(1, 1000)
        rep = verify_sqm(dataclasses.replace(h, diagonals=(*h.diagonals[:lam], tuple(last))))
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
            # any member, any level that both checks read
            mu, n = rng.randrange(lam + 1), rng.randrange(trunc - 1)
            member = list(h.diagonals[mu])
            member[n] += Fraction(1, 1000) * rng.choice([1, -1])
            bad = dataclasses.replace(
                h, diagonals=(*h.diagonals[:mu], tuple(member), *h.diagonals[mu + 1:]))
            assert superalgebra_gap(bad) == Fraction(1, 1000), (mu, n)
            assert not verify_sqm(bad).all_pass, (mu, n)

    @pytest.mark.parametrize("lam", range(2, 8))
    def test_moved_ground_energy_fails(self, rng, lam):
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=40)
        for mu in range(lam):
            ground = list(h.ground_energies)
            ground[mu] += Fraction(1, 1000)
            bad = dataclasses.replace(h, ground_energies=tuple(ground))
            assert superalgebra_gap(bad) == Fraction(1, 1000), mu
            assert not verify_sqm(bad).all_pass, mu

    def test_last_level_is_outside_the_window(self):
        # the truncation row: a+ a and a a+ are cut there, so neither check reads it
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=20)
        member = list(h.diagonals[1])
        member[-1] += 1
        bad = dataclasses.replace(h, diagonals=(h.diagonals[0], tuple(member), *h.diagonals[2:]))
        assert superalgebra_gap(bad) == 0 and verify_sqm(bad).max_residual < TOL


class TestInterlacing:
    def test_worked_example(self):
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=30)
        assert check_interlacing(h, 20)
        assert h.diagonals[0][:7] == (
            0, 1, Fraction(5, 2), 3, 4, Fraction(11, 2), 6)

    def test_asymmetric_spacings(self):
        h = build_hierarchy(new_params(3, [1, Fraction(-1, 2)]), trunc=30)
        assert h.omegas == (2, Fraction(1, 2), Fraction(1, 2))
        assert check_interlacing(h, 20)
        assert h.diagonals[0][:4] == (0, 2, Fraction(5, 2), 3)

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

    def test_swapped_levels_fail(self):
        # the same values in another order: eigenvalue n is no longer level n
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=30)
        member = list(h.diagonals[1])
        member[4], member[5] = member[5], member[4]
        diagonals = (h.diagonals[0], tuple(member), *h.diagonals[2:])
        assert not check_interlacing(dataclasses.replace(h, diagonals=diagonals), 20)


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
        member = list(h.diagonals[lam - 1])
        member[4] += Fraction(1, 1000)
        diagonals = (*h.diagonals[:lam - 1], tuple(member), h.diagonals[lam])
        assert not projection_shift_identity(dataclasses.replace(h, diagonals=diagonals))

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

    def test_tol_is_a_strict_bound(self):
        h = build_hierarchy(new_params(3, [0, Fraction(1, 2)]), trunc=20)
        assert projection_shift_identity(h, tol=1e-300)
        assert not projection_shift_identity(h, tol=0)
        member = list(h.diagonals[1])
        member[3] += Fraction(1, 8)
        bad = dataclasses.replace(h, diagonals=(h.diagonals[0], tuple(member), *h.diagonals[2:]))
        assert projection_shift_identity(bad, tol=0.126)
        assert not projection_shift_identity(bad, tol=0.125)


def reference_interlacing(h, count):
    """check_interlacing as Fraction arithmetic, one level at a time."""
    lam, ground = h.lam, h.ground_energies
    return all(
        h.diagonals[mu][n] == (n + mu) // lam * ground[lam] + ground[(n + mu) % lam]
        for mu in range(lam + 1) for n in range(count))


def reference_projection(h, tol=TOL):
    """projection_shift_identity in floats, with H0 read off the ladder products."""
    lam, k = h.lam, h.trunc
    members = np.array(h.diagonals, dtype=float)
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
    kind = draw(st.sampled_from(["clean", "diagonal", "ground", "shifted"]))
    if kind == "diagonal":
        mu, n = draw(st.integers(0, lam)), draw(st.integers(0, trunc - 1))
        member = list(h.diagonals[mu])
        member[n] += delta
        h = dataclasses.replace(
            h, diagonals=(*h.diagonals[:mu], tuple(member), *h.diagonals[mu + 1:]))
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
