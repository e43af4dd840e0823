import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cext_osc import (
    AlgebraParams,
    build_hierarchy,
    cyclic_shift,
    new_params,
    projection_shift_identity,
)
from cext_osc.fockrep import build_operators, verify_relations
from cext_osc.spectrum import random_admissible_params

from conftest import ladder_h0, params3, random_susy_params
from paper_reference import (
    log_normalization_constant_gamma,
    normalization_constant,
    normalization_constant_gamma,
)


class TestBuildOperators:
    @pytest.mark.parametrize("lam", range(2, 8))
    def test_structure_floats_are_the_rounded_rationals(self, rng, lam):
        for _ in range(20):
            p = random_admissible_params(rng, lam=lam, max_numer=40)
            floats = p.structure_ladder().floats(300)
            assert floats == [float(p.structure_function(n)) for n in range(300)]

    def test_undeformed_subdiagonal(self):
        ops = build_operators(new_params(3, [0, 0]), 6)
        sub = np.diag(ops.a_dag, -1).real
        assert np.allclose(sub, np.sqrt([1, 2, 3, 4, 5]))

    def test_deformed_subdiagonal(self):
        ops = build_operators(params3(0, 6), 6)
        sub = np.diag(ops.a_dag, -1).real
        # sqrt(F(n)) with F from the difference-equation iteration: 1, 8, 3, 4, 11
        assert np.allclose(sub, np.sqrt([1, 8, 3, 4, 11]))

    def test_a_is_adjoint(self):
        ops = build_operators(params3(0, 6), 12)
        assert np.array_equal(ops.a, ops.a_dag.conj().T)

    def test_h0_interior_diag_exact_and_boundary_polluted(self):
        p = new_params(3, [0, 0])
        ops = build_operators(p, 6)
        diag = ladder_h0(ops)
        for n in range(5):
            assert diag[n] == pytest.approx(float(p.energy(n)), abs=1e-12)
        # last entry misses the a a+ contribution above the cutoff
        assert diag[5] == pytest.approx(float(p.structure_function(5)) / 2)
        assert abs(diag[5] - float(p.energy(5))) > 0.1

    def test_h0_diag_matches_closed_energies(self, rng):
        for _ in range(10):
            p = random_admissible_params(rng)
            ops = build_operators(p, 40)
            diag = ladder_h0(ops)
            for n in range(39):
                assert abs(diag[n] - float(p.energy(n))) < 1e-12

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            build_operators(new_params(3, [0, 0]), 5)

    def test_out_of_domain_point_still_raises(self):
        # F(1) = 1 + beta_1 = -1; AlgebraParams refuses this point, so build it raw
        p = object.__new__(AlgebraParams)
        object.__setattr__(p, "alphas", (Fraction(-2), Fraction(2), Fraction(0)))
        with pytest.raises(ValueError, match="math domain"):
            build_operators(p, 6)

    def test_stores_ladder_and_diagonals_only(self):
        ops = build_operators(params3(0, 6), 9)
        names = [f.name for f in dataclasses.fields(ops)]
        assert names == ["params", "trunc", "a", "a_dag", "t"]
        assert ops.t.shape == (9,)

    def test_h0_is_the_diagonal_of_the_ladder_products(self, rng):
        # (a a+ + a+ a)/2 has no entry off its diagonal
        for lam in (2, 3, 5):
            p = random_admissible_params(rng, lam=lam, max_numer=8)
            ops = build_operators(p, 20)
            dense = (ops.a @ ops.a_dag + ops.a_dag @ ops.a) / 2
            np.testing.assert_array_equal(dense, np.diag(ladder_h0(ops)))


def dense_relations(ops, p):
    """The seven residuals from dense K x K matrices, as the relations are written.

    N, T and every P_mu are expanded into diagonal matrices and multiplied
    with matrix products, independently of the elementwise route of
    :func:`verify_relations`.
    """
    lam, k = p.lam, ops.trunc
    cut = k - 1
    eye = np.eye(k, dtype=complex)
    n_op = np.diag(np.arange(k)).astype(complex)
    t = np.diag(ops.t)
    projectors = [np.diag((np.arange(k) % lam == mu).astype(complex)) for mu in range(lam)]
    f_diag = np.diag([float(p.structure_function(n)) for n in range(k)])
    f_shift = np.diag([float(p.structure_function(n + 1)) for n in range(k)])
    g_comb = eye + sum(float(p.alphas[mu]) * projectors[mu] for mu in range(lam))
    a, a_dag = ops.a, ops.a_dag

    def interior(m):
        return float(np.max(np.abs(m[:cut, :cut])))

    return {
        "number_ladder": interior(n_op @ a_dag - a_dag @ n_op - a_dag),
        "deformed_commutator": interior(a @ a_dag - a_dag @ a - g_comb),
        "ladder_twist": interior(a_dag @ t - np.exp(-2j * np.pi / lam) * (t @ a_dag)),
        "cyclic_order": interior(np.linalg.matrix_power(t, lam) - eye),
        "lowering_product": interior(a_dag @ a - f_diag),
        "raising_product": interior(a @ a_dag - f_shift),
        "cyclic_unitary": interior(t @ t.conj().T - eye),
    }


def _off_band_entry(ops):
    a_dag = ops.a_dag.copy()
    a_dag[2, 0] = 0.5
    return dataclasses.replace(ops, a_dag=a_dag)


def _scaled_ladder_entry(ops):
    a_dag = ops.a_dag.copy()
    a_dag[3, 2] *= 1.001
    return dataclasses.replace(ops, a=a_dag.conj().T, a_dag=a_dag)


def _rotated_phase(ops):
    t = ops.t.copy()
    t[1] *= np.exp(1j * np.pi / ops.params.lam)
    return dataclasses.replace(ops, t=t)


def _scaled_phase(ops):
    t = ops.t.copy()
    t[1] *= 1.001
    return dataclasses.replace(ops, t=t)


class TestVerifyRelations:
    @pytest.mark.parametrize("a0,a1,trunc", [
        (0, 0, 40),
        (0, 6, 40),
        (Fraction(1, 2), Fraction(-1, 2), 60),
    ])
    def test_named_points_pass(self, a0, a1, trunc):
        p = params3(a0, a1)
        rep = verify_relations(build_operators(p, trunc), p, tol=1e-12)
        assert rep.all_pass, rep.failures

    def test_random_points_all_seven_relations(self, rng):
        for _ in range(20):
            p = random_admissible_params(rng)
            rep = verify_relations(build_operators(p, 60), p, tol=1e-12)
            assert len(rep.residuals) == 7
            assert rep.all_pass, (p.alphas, rep.failures)

    def test_general_lambda(self, rng):
        for lam in (2, 4, 5):
            for _ in range(5):
                p = random_admissible_params(rng, lam=lam, max_numer=8)
                rep = verify_relations(build_operators(p, 50), p, tol=1e-12)
                assert rep.all_pass, (lam, p.alphas, rep.failures)

    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    def test_large_truncation_passes_default_tol(self, rng, lam):
        # the cyclic phase of level n ~ 240 must carry no round-off of order n
        for _ in range(2):
            p = random_admissible_params(rng, lam=lam, max_numer=8)
            rep = verify_relations(build_operators(p, 240), p, tol=1e-12)
            assert rep.all_pass, (lam, p.alphas, rep.failures)

    @pytest.mark.parametrize("trunc", [15, 60])
    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    def test_matches_dense_reference(self, rng, lam, trunc):
        for _ in range(3):
            p = random_admissible_params(rng, lam=lam, max_numer=8)
            ops = build_operators(p, trunc)
            rep = verify_relations(ops, p)
            want = dense_relations(ops, p)
            assert set(rep.residuals) == set(want)
            for name, value in want.items():
                assert abs(rep.residuals[name] - value) < 1e-15, name

    @pytest.mark.parametrize("lam", [2, 3, 5])
    @pytest.mark.parametrize("corrupt,broken", [
        (_off_band_entry, {"number_ladder", "ladder_twist"}),
        (_scaled_ladder_entry, {"deformed_commutator", "lowering_product", "raising_product"}),
        (_rotated_phase, {"cyclic_order"}),
        (_scaled_phase, {"cyclic_unitary"}),
    ])
    def test_corrupted_operators_fail(self, rng, lam, corrupt, broken):
        p = random_admissible_params(rng, lam=lam, max_numer=8)
        ops = build_operators(p, 20)
        assert verify_relations(ops, p).all_pass
        failures = verify_relations(corrupt(ops), p).failures
        assert broken <= set(failures), failures

    @pytest.mark.parametrize("lam", [2, 3, 5])
    def test_shifted_h0_fails_projection_shift_identity(self, rng, lam):
        # H0 of shifted[1] is computed from that algebra, so the wrong algebra
        # (the unshifted base) stands for a wrong shifted H0
        h = build_hierarchy(random_susy_params(rng, lam=lam), trunc=20)
        assert projection_shift_identity(h)
        assert h.shifted[1] == cyclic_shift(h.base, 1) != h.base
        shifted = (h.shifted[0], h.base, *h.shifted[2:])
        assert not projection_shift_identity(dataclasses.replace(h, shifted=shifted))

    def test_empty_window_is_an_error(self):
        # at K = 1 the window n < K - 1 is empty: no residual may read 0.0 there
        p = params3(0, Fraction(1, 2))
        ops = dataclasses.replace(build_operators(p, 20), trunc=1)
        with pytest.raises(ValueError):
            verify_relations(ops, p)

    def test_report_shape(self):
        p = params3(0, 6)
        rep = verify_relations(build_operators(p, 40), p, tol=1e-12)
        assert all(v >= 0 for v in rep.residuals.values())
        assert rep.max_residual < 1e-12


class TestNormalization:
    def test_factorial_recovery(self):
        assert normalization_constant(new_params(3, [0, 0]), 4) == 24

    def test_deformed_product(self):
        # F(1) F(2) F(3) = 1 * 8 * 3
        assert normalization_constant(params3(0, 6), 3) == 24

    def test_empty_product(self):
        assert normalization_constant(params3(10, 4), 0) == 1

    def test_gamma_form_matches_product(self, rng):
        for lam in range(2, 8):
            for _ in range(30):
                p = random_admissible_params(rng, lam, max_numer=15)
                for n in (0, 1, 2, 3, 7, 12, 20, 30):
                    exact = float(normalization_constant(p, n))
                    closed = normalization_constant_gamma(p, n)
                    assert math.isclose(exact, closed, rel_tol=1e-10), (p.alphas, n)

    def test_gamma_form_is_the_exp_of_its_log(self, rng):
        for _ in range(10):
            p = random_admissible_params(rng, max_numer=15)
            for n in (0, 1, 2, 5, 30, 100):
                log = log_normalization_constant_gamma(p, n)
                assert normalization_constant_gamma(p, n) == math.exp(log)

    def test_log_gamma_form_is_finite_where_the_value_overflows(self):
        p = params3(0, Fraction(1, 2))
        for n in (171, 500, 2000):
            with pytest.raises(OverflowError):
                normalization_constant_gamma(p, n)
        exact = normalization_constant(p, 2000)
        # math.log takes big integers exactly, with no float conversion of the product
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert math.isclose(log_normalization_constant_gamma(p, 2000), log_exact,
                            rel_tol=1e-12)

    def test_log_gamma_form_rejects_what_the_value_rejects(self):
        with pytest.raises(ValueError):
            log_normalization_constant_gamma(params3(0, 6), -1)
        # lambda = 2 has a closed form too: F(1) F(2) F(3) = 3/2 * 2 * 7/2
        p = new_params(2, [Fraction(1, 2)])
        assert math.isclose(log_normalization_constant_gamma(p, 3), math.log(Fraction(21, 2)),
                            rel_tol=1e-14)
