import math
from fractions import Fraction

import numpy as np
import pytest

from cext_osc import (
    build_operators,
    new_params,
    normalization_constant,
    normalization_constant_gamma,
    verify_relations,
)
from cext_osc.spectrum import random_admissible_params

from conftest import params3


class TestBuildOperators:
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
        diag = np.diag(ops.h0).real
        for n in range(5):
            assert diag[n] == pytest.approx(float(p.energy(n)), abs=1e-12)
        # last entry misses the a a+ contribution above the cutoff
        assert diag[5] == pytest.approx(float(p.structure_function(5)) / 2)
        assert abs(diag[5] - float(p.energy(5))) > 0.1

    def test_h0_diag_matches_closed_energies(self, rng):
        for _ in range(10):
            p = random_admissible_params(rng)
            ops = build_operators(p, 40)
            diag = np.diag(ops.h0).real
            for n in range(39):
                assert abs(diag[n] - float(p.energy(n))) < 1e-12

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            build_operators(new_params(3, [0, 0]), 5)

    def test_projectors_partition_levels(self):
        ops = build_operators(params3(0, 6), 9)
        for mu in range(3):
            d = np.diag(ops.projectors[mu]).real
            assert all(d[n] == (1 if n % 3 == mu else 0) for n in range(9))


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

    def test_random_points_all_nine_relations(self, rng):
        for _ in range(20):
            p = random_admissible_params(rng)
            rep = verify_relations(build_operators(p, 60), p, tol=1e-12)
            assert len(rep.residuals) == 9
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
        for _ in range(30):
            p = random_admissible_params(rng, max_numer=15)
            for n in (0, 1, 2, 3, 7, 12, 20, 30):
                exact = float(normalization_constant(p, n))
                closed = normalization_constant_gamma(p, n)
                assert math.isclose(exact, closed, rel_tol=1e-10), (p.alphas, n)
