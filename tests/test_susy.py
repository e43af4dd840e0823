import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from cext_osc import (
    WindowViolation,
    build_hierarchy,
    check_interlacing,
    cyclic_shift,
    new_params,
    projection_shift_identity,
    verify_sqm,
)
from conftest import params3, random_susy_params

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
            assert cyclic_shift(cyclic_shift(p, 1), 2) == p


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
    per_mu = []
    for mu in range(h.lam):
        big_h = np.zeros((2 * k, 2 * k), dtype=complex)
        big_h[:k, :k] = dense[mu] - float(h.ground_energies[mu]) * np.eye(k)
        big_h[k:, k:] = dense[mu + 1] - float(h.ground_energies[mu]) * np.eye(k)
        q = np.zeros_like(big_h)
        q[k:, :k] = h.shifted_ops[mu].a
        q_dag = q.conj().T
        per_mu.append({
            "supercharge_nilpotent": masked_max(q @ q),
            "adjoint_nilpotent": masked_max(q_dag @ q_dag),
            "commutes_q": masked_max(big_h @ q - q @ big_h),
            "commutes_q_dag": masked_max(big_h @ q_dag - q_dag @ big_h),
            "anticommutator_closes": masked_max(q @ q_dag + q_dag @ q - big_h),
        })
    cut = k - 1
    first = h.shifted_ops[0]
    agreement = [float(np.max(np.abs((first.a_dag @ first.a - dense[0])[:cut, :cut])))]
    for mu in range(1, h.lam + 1):
        ops = h.shifted_ops[mu - 1]
        alt = ops.a @ ops.a_dag + float(h.ground_energies[mu - 1]) * np.eye(k)
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
    def test_corrupted_ladder_fails(self, rng, lam):
        h = build_hierarchy(susy_point(rng, lam=lam), trunc=20)
        ops = h.shifted_ops[1]
        scaled = dataclasses.replace(ops, a=ops.a * 1.001, a_dag=ops.a_dag * 1.001)
        shifted_ops = (h.shifted_ops[0], scaled, *h.shifted_ops[2:])
        bad = dataclasses.replace(h, shifted_ops=shifted_ops)
        assert not verify_sqm(bad).all_pass

    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    def test_random_points_all_lambdas(self, rng, lam):
        for _ in range(3):
            p = susy_point(rng, lam=lam)
            rep = verify_sqm(build_hierarchy(p, trunc=30))
            assert rep.all_pass, (p.alphas, rep.max_residual)


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
