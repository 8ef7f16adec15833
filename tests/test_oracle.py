import math

import numpy as np
import pytest

from qdt.errors import DimensionError
from qdt.hilbert import build_amplitude_matrix, normalize
from qdt.measure import evaluate_all
from qdt.oracle import (
    ORACLE_MAX_DIM,
    dense_conjunction_operator,
    dense_evaluate,
    dense_expectation,
    dense_interference,
    dense_prospect_operator,
    resolution_of_identity_check,
)
from qdt.scenario_io import builtin_scenario, random_strict_scenario
from tests.conftest import random_general_scenario, random_psi

SQ2 = 1.0 / math.sqrt(2.0)
H2_PI1 = np.array([SQ2, SQ2])
H2_PSI = np.array([SQ2, SQ2])


class TestProspectOperator:
    def test_basis_vector_projector(self):
        op = dense_prospect_operator(np.array([0.0, 1.0]))
        assert np.array_equal(op, np.diag([0.0, 1.0]))

    def test_vacuum_gives_zero_matrix(self):
        assert np.array_equal(dense_prospect_operator(np.zeros(3)), np.zeros((3, 3)))

    def test_h2_outer_product(self):
        op = dense_prospect_operator(H2_PI1)
        assert op == pytest.approx(np.full((2, 2), 0.5))

    def test_hermiticity(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            op = dense_prospect_operator(v)
            assert np.max(np.abs(op - op.conj().T)) < 1e-14

    def test_idempotence_on_normalized_states(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            v = normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            op = dense_prospect_operator(v)
            assert np.max(np.abs(op @ op - op)) < 1e-12


class TestConjunctionOperator:
    def test_simple_prospect_on_own_basis_element(self):
        v = np.array([0.0, 1.0, 0.0])
        op = dense_conjunction_operator(v, 1)
        assert op == pytest.approx(np.diag([0.0, 1.0, 0.0]))

    def test_outside_support_gives_zero(self):
        v = np.array([0.0, 1.0, 0.0])
        assert np.array_equal(dense_conjunction_operator(v, 0), np.zeros((3, 3)))

    def test_h2_explicit_matrix_product(self):
        op = dense_conjunction_operator(H2_PI1, 0)
        assert op == pytest.approx(np.diag([0.5, 0.0]))

    def test_closed_form_agreement(self, rng):
        # |b_a|^2 on the (a, a) entry, zero elsewhere
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            a = int(rng.integers(0, dim))
            expected = np.zeros((dim, dim), dtype=complex)
            expected[a, a] = abs(v[a]) ** 2
            assert np.max(np.abs(dense_conjunction_operator(v, a) - expected)) < 1e-12

    def test_bad_index(self):
        with pytest.raises(DimensionError):
            dense_conjunction_operator(np.ones(2), 2)


class TestExpectation:
    def test_identity_operator(self, rng):
        psi = random_psi(rng, 5)
        assert dense_expectation(np.eye(5), psi) == pytest.approx(1.0)

    def test_zero_operator(self, rng):
        psi = random_psi(rng, 4)
        assert dense_expectation(np.zeros((4, 4)), psi) == 0.0

    def test_h2(self):
        op = dense_prospect_operator(H2_PI1)
        assert dense_expectation(op, H2_PSI) == pytest.approx(1.0, abs=1e-12)

    def test_real_for_hermitian(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            herm = (a + a.conj().T) / 2
            val = dense_expectation(herm, random_psi(rng, dim))
            assert abs(val.imag) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dense_expectation(np.eye(3), np.ones(2))


class TestDenseInterference:
    def test_simple_prospect(self, rng):
        v = np.zeros(4, dtype=complex)
        v[2] = 1.3 - 0.4j
        assert dense_interference(v, random_psi(rng, 4)) == pytest.approx(0.0, abs=1e-15)

    def test_h2_value(self):
        assert dense_interference(H2_PI1, H2_PSI) == pytest.approx(0.5, abs=1e-12)

    def test_lattice_sum_vanishes_unitary_strict(self):
        scenario = random_strict_scenario(seed=3, num_factors=1, modes_per_factor=4)
        matrix = build_amplitude_matrix(scenario.prospects, scenario.space())
        psi = np.asarray(scenario.state_of_mind)
        total = sum(dense_interference(row, psi) for row in matrix)
        assert abs(total) < 1e-12


class TestResolutionOfIdentity:
    def test_identity_matrix_rows(self):
        states = [row for row in np.eye(3, dtype=complex)]
        assert resolution_of_identity_check(states) == 0.0

    def test_h2_unitary(self):
        scenario = builtin_scenario("h2")
        matrix = build_amplitude_matrix(scenario.prospects, scenario.space())
        assert resolution_of_identity_check(list(matrix)) < 1e-12

    def test_norm_point_nine_column(self):
        # second column scaled to norm 0.9: residual |0.9^2 - 1| = 0.19
        states = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 0.9], dtype=complex)]
        assert resolution_of_identity_check(states) == pytest.approx(0.19, abs=1e-12)

    def test_empty_input(self):
        assert resolution_of_identity_check([]) == 1.0


class TestDenseEvaluate:
    def test_matches_fast_path_on_builtins(self):
        for name in ("h2", "disjunction", "register"):
            scenario = builtin_scenario(name)
            state = evaluate_all(scenario)
            dense = dense_evaluate(scenario)
            for i, pname in enumerate(dense.names):
                r = state[pname]
                assert abs(r.p_raw - dense.p[i]) < 1e-12
                assert abs(r.q - dense.q[i]) < 1e-12
                assert np.max(np.abs(np.asarray(r.conjunction) - dense.conjunction[i])) < 1e-12

    def test_matches_fast_path_on_random_scenarios(self, rng):
        for _ in range(10):
            scenario = random_general_scenario(rng, max_dim=12)
            state = evaluate_all(scenario)
            dense = dense_evaluate(scenario)
            for i, pname in enumerate(dense.names):
                r = state[pname]
                assert abs(r.p_raw - dense.p[i]) < 1e-12
                assert abs(r.q - dense.q[i]) < 1e-12
                assert np.max(np.abs(np.asarray(r.conjunction) - dense.conjunction[i])) < 1e-12

    def test_identity_residual_strict(self):
        scenario = random_strict_scenario(seed=9, num_factors=2, modes_per_factor=2)
        assert dense_evaluate(scenario).identity_residual < 1e-12

    def test_refuses_spaces_above_the_size_limit(self):
        scenario = random_strict_scenario(seed=1, num_factors=1, modes_per_factor=ORACLE_MAX_DIM + 1)
        with pytest.raises(DimensionError, match=f"limited to dimension {ORACLE_MAX_DIM}"):
            dense_evaluate(scenario)
