import math
from dataclasses import replace

import numpy as np
import pytest

from qdt import measure
from qdt.algebra import ProspectSpec, validate_prospect
from qdt.errors import DimensionError, InvalidScenario, NormalizationError, NumericalError, SupportViolation
from qdt.hilbert import build_amplitude_matrix, build_prospect_state
from qdt.measure import (
    NormalizationPolicy,
    ProbabilisticState,
    ProspectResult,
    column_norm_deviation,
    conjunction_probability,
    decompose,
    evaluate_all,
    gram_deviation,
    interference_term,
    prospect_probability,
)
from qdt.oracle import dense_conjunction_operator, dense_expectation, dense_prospect_operator
from qdt.scenario_io import builtin_scenario, random_strict_scenario
from tests.conftest import matrix_scenario, random_general_scenario, random_psi

SQ2 = 1.0 / math.sqrt(2.0)
EPS = float(np.finfo(float).eps)
H2_ROWS = np.array([[SQ2, SQ2], [SQ2, -SQ2]])
H2_PSI = np.array([SQ2, SQ2])


class TestProspectProbability:
    def test_aligned_basis_vector(self):
        e1 = np.array([0.0, 1.0])
        assert prospect_probability(e1, e1) == pytest.approx(1.0)

    def test_vacuum_prospect_is_null(self, rng):
        psi = random_psi(rng, 4)
        assert prospect_probability(np.zeros(4), psi) == 0.0

    def test_h2_matches_dense_operator_oracle(self):
        fast = prospect_probability(H2_ROWS[0], H2_PSI)
        op = dense_prospect_operator(H2_ROWS[0])
        dense = dense_expectation(op, H2_PSI).real
        assert fast == pytest.approx(1.0, abs=1e-12)
        assert abs(fast - dense) < 1e-12

    def test_unnormalized_psi_rejected(self):
        with pytest.raises(NormalizationError):
            prospect_probability(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            prospect_probability(np.ones(2), np.ones(3) / math.sqrt(3))


class TestConjunctionProbability:
    def test_certainty(self):
        assert conjunction_probability(1.0, 1.0) == 1.0

    def test_half_half_matches_dense_triple_product(self):
        # dense oracle: sandwich the prospect projector between basis projectors
        b = np.array([SQ2, SQ2])
        c = np.array([SQ2, SQ2])
        fast = conjunction_probability(b[0], c[0])
        dense = dense_expectation(dense_conjunction_operator(b, 0), c).real
        assert fast == pytest.approx(0.25)
        assert abs(fast - dense) < 1e-12

    def test_outside_support_is_zero(self):
        assert conjunction_probability(0.0, 0.7) == 0.0

    def test_random_agreement_with_dense_oracle(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            c = random_psi(rng, dim)
            alpha = int(rng.integers(0, dim))
            fast = conjunction_probability(b[alpha], c[alpha])
            dense = dense_expectation(dense_conjunction_operator(b, alpha), c).real
            assert abs(fast - dense) < 1e-12


class TestInterferenceTerm:
    def test_simple_prospect_exactly_zero(self):
        b = np.zeros(4, dtype=complex)
        b[2] = 0.3 - 0.8j
        psi = np.full(4, 0.5, dtype=complex)
        assert interference_term(b, psi) == 0.0

    def test_h2_values(self):
        assert interference_term(H2_ROWS[0], H2_PSI) == pytest.approx(0.5, abs=1e-12)
        assert interference_term(H2_ROWS[1], H2_PSI) == pytest.approx(-0.5, abs=1e-12)

    def test_lattice_sum_vanishes_in_strict_scenario(self, rng):
        scenario = random_strict_scenario(seed=5, num_factors=2, modes_per_factor=2)
        state = evaluate_all(scenario)
        assert abs(state.checks["sum_q"]) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            interference_term(np.ones(2), np.ones(3))


class TestDecompose:
    def test_simple_prospect_gives_p_and_zero(self, rng):
        psi = random_psi(rng, 4)
        b = np.zeros(4, dtype=complex)
        b[1] = 1.5 + 0.2j
        diag, q = decompose(b, psi)
        assert q == 0.0
        assert diag == pytest.approx(prospect_probability(b, psi), abs=1e-12)

    def test_h2_decompositions(self):
        diag1, q1 = decompose(H2_ROWS[0], H2_PSI)
        assert (diag1, q1) == (pytest.approx(0.5, abs=1e-12), pytest.approx(0.5, abs=1e-12))
        diag2, q2 = decompose(H2_ROWS[1], H2_PSI)
        assert (diag2, q2) == (pytest.approx(0.5, abs=1e-12), pytest.approx(-0.5, abs=1e-12))

    def test_identity_holds_for_random_vectors(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 16))
            b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi = random_psi(rng, dim)
            diag, q = decompose(b, psi)
            p = float(abs(np.vdot(b, psi)) ** 2)
            assert abs(p - diag - q) < 1e-12


class TestEvaluateAll:
    def test_identity_matrix_simple_prospects(self):
        scenario = matrix_scenario([2], np.eye(2), [0.6, 0.8], normalization="strict")
        state = evaluate_all(scenario)
        assert state["p1"].p_raw == pytest.approx(0.36, abs=1e-12)
        assert state["p2"].p_raw == pytest.approx(0.64, abs=1e-12)
        assert state["p1"].q == 0.0
        assert state["p2"].q == 0.0
        assert state.checks["sum_p"] == pytest.approx(1.0, abs=1e-12)

    def test_h2_probabilities(self):
        state = evaluate_all(builtin_scenario("h2"))
        assert state["pi1"].p_raw == pytest.approx(1.0, abs=1e-12)
        assert state["pi2"].p_raw == pytest.approx(0.0, abs=1e-12)
        assert abs(state.checks["sum_q"]) < 1e-12

    def test_disjunction_decomposition_identity_over_random_psi(self, rng):
        # column-unit template, N=2 < K=4: the identity must hold regardless of sum_p
        base = builtin_scenario("disjunction")
        for _ in range(100):
            psi = random_psi(rng, 4)
            scenario = matrix_scenario(
                [2, 2],
                build_amplitude_matrix(base.prospects, base.space()),
                psi,
                normalization="given",
            )
            state = evaluate_all(scenario)
            assert state.checks["prop1_max_residual"] < 1e-12

    def test_renorm_mode_reports_both(self):
        scenario = matrix_scenario([2], [[2.0, 0.0], [0.0, 1.0]], [0.6, 0.8], normalization="renorm")
        state = evaluate_all(scenario)
        total = state.checks["sum_p"]
        assert state.ordering_field == "p_normalized"
        for r in state.results:
            assert r.p_normalized == pytest.approx(r.p_raw / total)
        assert sum(r.p_normalized for r in state.results) == pytest.approx(1.0, abs=1e-12)

    def test_given_mode_never_raises(self):
        scenario = matrix_scenario([2], [[2.0, 0.0], [0.0, 1.0]], [0.6, 0.8], normalization="given")
        state = evaluate_all(scenario)
        assert state.checks["sum_p"] > 1
        assert state["p1"].p_normalized is None

    def test_strict_mode_raises_with_residuals_and_state(self):
        scenario = matrix_scenario([2], [[2.0, 0.0], [0.0, 1.0]], [0.6, 0.8], normalization="strict")
        with pytest.raises(NormalizationError) as excinfo:
            evaluate_all(scenario)
        err = excinfo.value
        assert "sum_p_dev" in err.residuals
        assert "column_norm_max_dev" in err.residuals
        assert err.state is not None
        assert err.state.checks["prop1_max_residual"] < 1e-12

    def test_zero_amplitude_prospect_allowed(self):
        scenario = matrix_scenario([2], [[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0], normalization="given")
        state = evaluate_all(scenario)
        assert state["p2"].p_raw == 0.0
        assert state["p2"].q == 0.0

    def test_unnormalized_psi_rejected_in_every_mode(self):
        for mode in ("strict", "given", "renorm"):
            scenario = matrix_scenario([2], np.eye(2), [1.0, 1.0], normalization=mode)
            with pytest.raises(NormalizationError):
                evaluate_all(scenario)

    def test_conjunction_sum_is_one_with_unit_columns(self, rng):
        # the diagonal form of the resolution of identity
        for phase in rng.uniform(0, 2 * math.pi, size=5):
            base = builtin_scenario("disjunction", phase=float(phase))
            psi = random_psi(rng, 4)
            scenario = matrix_scenario(
                [2, 2], build_amplitude_matrix(base.prospects, base.space()), psi,
                normalization="given",
            )
            state = evaluate_all(scenario)
            total = sum(sum(r.conjunction) for r in state.results)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert state.checks["column_norm_max_dev"] < 1e-12

    def test_interference_sum_rule_unitary_strict(self, rng):
        # orthonormal columns: both normalization conditions hold for every psi
        scenario = random_strict_scenario(seed=11, num_factors=2, modes_per_factor=[2, 3])
        matrix = build_amplitude_matrix(scenario.prospects, scenario.space())
        assert gram_deviation(matrix) < 1e-12
        for _ in range(20):
            psi = random_psi(rng, 6)
            trial = matrix_scenario([2, 3], matrix, psi, normalization="strict")
            state = evaluate_all(trial)
            assert abs(state.checks["sum_p"] - 1.0) < 1e-12
            assert abs(state.checks["sum_q"]) < 1e-12

    def test_nonnegativity(self, rng):
        for _ in range(20):
            scenario = random_general_scenario(rng, max_dim=16)
            state = evaluate_all(scenario)
            for r in state.results:
                assert r.p_raw >= 0.0
                assert all(c >= 0.0 for c in r.conjunction)


class TestPolicy:
    def test_bad_mode(self):
        with pytest.raises(NormalizationError):
            NormalizationPolicy(mode="loose")

    def test_bad_tolerance(self):
        with pytest.raises(NormalizationError):
            NormalizationPolicy(tolerance=0.0)


class TestColumnChecks:
    def test_column_norm_deviation_frozen_example(self):
        matrix = np.array([[1.0, 0.0], [0.0, 0.9]])
        assert column_norm_deviation(matrix) == pytest.approx(0.19, abs=1e-12)

    def test_identity_columns(self):
        assert column_norm_deviation(np.eye(3)) == 0.0
        assert gram_deviation(np.eye(3)) == 0.0


def _offdiagonal_sum(b, c):
    # per-row reference: q = sum_a u_a (S - v_a), u = conj(c) b, v = conj(b) c, S = sum(v)
    u = np.conj(c) * b
    v = np.conj(b) * c
    return complex(np.sum(u * (np.sum(v) - v)))


def _reference_rows(scenario):
    """(p, diag, q, conjunction, magnitude scale) per prospect, one row at a time."""
    space, free = scenario.space(), scenario.options.allow_free_support
    psi = np.asarray(scenario.state_of_mind, dtype=complex)
    for row in (build_prospect_state(spec, space, free) for spec in scenario.prospects):
        conjunction = np.abs(row) ** 2 * np.abs(psi) ** 2
        p = abs(np.vdot(row, psi)) ** 2
        scale = max(1.0, float(np.sum(np.abs(row) * np.abs(psi))) ** 2)
        yield p, float(np.sum(conjunction)), _offdiagonal_sum(row, psi).real, conjunction, scale


def _free_support_scenario(rng):
    base = random_general_scenario(rng, normalization="given", max_dim=16)
    space = base.space()
    stray = dict(base.prospects[0].amplitudes)
    for key in space.basis[:3]:
        stray[key] = complex(rng.standard_normal(), rng.standard_normal())
    prospects = (replace(base.prospects[0], amplitudes=stray),) + base.prospects[1:]
    return replace(base, prospects=prospects, options=replace(base.options, allow_free_support=True))


class TestVectorizedAgainstPerRowReference:
    """evaluate_all on the whole matrix agrees with a per-row np.vdot / grouped-sum loop."""

    def _assert_matches(self, scenario):
        state = evaluate_all(scenario)
        k = scenario.space().dimension
        for r, (p, diag, q, conjunction, scale) in zip(state.results, _reference_rows(scenario)):
            tol = 8 * k * EPS * scale
            assert abs(r.p_raw - p) <= tol
            assert abs(r.diag_sum - diag) <= tol
            assert abs(r.q - q) <= tol
            assert r.conjunction == tuple(conjunction.tolist())
        return state

    def test_seeded_strict(self):
        for seed in range(5):
            self._assert_matches(random_strict_scenario(seed, 3, [4, 2, 3]))

    def test_more_prospects_than_dimension(self):
        for seed in range(5):
            state = self._assert_matches(random_strict_scenario(seed, 2, [2, 3], num_prospects=40))
            assert len(state.results) == 40

    def test_given_and_renorm(self, rng):
        for mode in ("given", "renorm"):
            for _ in range(20):
                state = self._assert_matches(random_general_scenario(rng, normalization=mode))
                if mode == "renorm":
                    total = state.checks["sum_p"]
                    assert all(r.p_normalized == r.p_raw / total for r in state.results)

    def test_allow_free_support(self, rng):
        for _ in range(10):
            self._assert_matches(_free_support_scenario(rng))


def _bad_prospects():
    """Invalid prospects over factors with (2, 3) modes, one per check of validate_prospect."""
    full = ((0, 1), (0, 1, 2))
    return {
        "wrong_subset_count": ProspectSpec("bad", ((0, 1),), {(0, 0): 1.0}),
        "subset_mode_out_of_range": ProspectSpec("bad", ((0, 1), (0, 3)), {(0, 0): 1.0}),
        "key_mode_out_of_range": ProspectSpec("bad", full, {(0, 0): 1.0, (2, 1): 1.0}),
        "stray_support_key": ProspectSpec("bad", ((0,), (0, 1)), {(0, 0): 1.0, (1, 2): 0.5}),
        "ragged_key": ProspectSpec("bad", full, {(0, 0): 1.0, (1,): 0.5}),
        "empty_subset": ProspectSpec("bad", ((0, 1), ()), {(0, 0): 1.0}),
        "fractional_subset_mode": ProspectSpec("bad", ((0, 0.5), (0, 1)), {(0, 0): 1.0}),
    }


class TestInvalidProspects:
    @pytest.mark.parametrize("case", sorted(_bad_prospects()))
    def test_same_error_as_validate_prospect(self, case):
        base = random_strict_scenario(1, 2, [2, 3], num_prospects=7)
        bad = _bad_prospects()[case]
        with pytest.raises(InvalidScenario) as expected:
            validate_prospect(bad, base.factors)
        scenario = replace(base, prospects=base.prospects[:3] + (bad,) + base.prospects[3:])
        with pytest.raises(InvalidScenario) as got:
            evaluate_all(scenario)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_first_bad_prospect_is_reported(self):
        base = random_strict_scenario(1, 2, [2, 3])
        first = ProspectSpec("first", ((0,), (0,)), {(1, 0): 1.0})
        second = ProspectSpec("second", ((0, 1),), {(0, 0): 1.0})
        scenario = replace(base, prospects=base.prospects[:2] + (first, second))
        with pytest.raises(SupportViolation, match="'first'"):
            evaluate_all(scenario)

    def test_stray_key_without_factors(self):
        space = random_strict_scenario(1, 2, [2, 3]).space()
        with pytest.raises(SupportViolation, match="'bad'"):
            build_amplitude_matrix([_bad_prospects()["stray_support_key"]], space)

    def test_free_support_still_checks_key_range(self):
        base = random_strict_scenario(1, 2, [2, 3])
        bad = _bad_prospects()["key_mode_out_of_range"]
        scenario = replace(base, prospects=base.prospects + (bad,),
                           options=replace(base.options, allow_free_support=True))
        with pytest.raises(SupportViolation, match="out of range"):
            evaluate_all(scenario)


def _scaled_given_scenario(seed, scale):
    """A valid given-mode K = 64 scenario whose orthonormal amplitudes are scaled by ``scale``."""
    base = random_strict_scenario(seed, 3, [4, 4, 4])
    matrix = build_amplitude_matrix(base.prospects, base.space())
    return matrix_scenario([4, 4, 4], scale * matrix, base.state_of_mind, normalization="given")


class TestNumericalGates:
    def test_scaled_amplitudes_evaluate(self):
        for seed in range(5):
            state = evaluate_all(_scaled_given_scenario(seed, 1e4))
            assert state.checks["sum_p"] == pytest.approx(1e8, rel=1e-12)
            assert abs(state.checks["sum_q"]) <= 1e8 * 1e-12

    def test_interference_term_gate_scales(self, rng):
        b = 1e4 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        psi = random_psi(rng, 64)
        assert interference_term(b, psi) == pytest.approx(_offdiagonal_sum(b, psi).real, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_corrupted_term_still_raises(self, monkeypatch, scale):
        scenario = _scaled_given_scenario(3, scale)
        original = measure._off_diagonal

        def corrupted(u, v):
            u = u.copy()
            u[5, 7] += 1e-6j * abs(u[5, 7])  # one term loses its conjugate partner
            return original(u, v)

        monkeypatch.setattr(measure, "_off_diagonal", corrupted)
        with pytest.raises(NumericalError, match="'p6' has imaginary residue"):
            evaluate_all(scenario)

    def test_overflow_is_rejected(self):
        scenario = matrix_scenario([2], [[1e200, 1e200], [0.0, 1.0]], [SQ2, SQ2], normalization="given")
        with pytest.raises(NumericalError, match="'p1' has a non-finite result"):
            evaluate_all(scenario)

    def test_nan_state_of_mind_is_rejected(self):
        scenario = matrix_scenario([2], np.eye(2), [float("nan"), 1.0], normalization="given")
        with pytest.raises(NumericalError, match="non-finite"):
            evaluate_all(scenario)


class TestProbabilisticStateInvariants:
    def _state(self, **results):
        return ProbabilisticState(
            results=tuple(ProspectResult(name, p, p, 0.0, (p,), pn) for name, (p, pn) in results.items()),
            checks={}, policy=NormalizationPolicy("renorm"), ordering_field="p_normalized",
        )

    def test_lookup_by_name(self):
        state = evaluate_all(random_strict_scenario(2, 2, [2, 2], num_prospects=6))
        for r in state.results:
            assert state[r.name] is r and r.name in state
        assert "nope" not in state
        with pytest.raises(KeyError):
            state["nope"]

    def test_repeated_name_finds_first(self):
        state = ProbabilisticState(
            results=(ProspectResult("a", 0.25, 0.25, 0.0, (0.25,)),
                     ProspectResult("a", 0.75, 0.75, 0.0, (0.75,))),
            checks={}, policy=NormalizationPolicy("given"), ordering_field="p_raw",
        )
        assert state["a"].p_raw == 0.25

    def test_active_p_without_p_normalized_raises(self):
        state = self._state(a=(0.5, None))
        with pytest.raises(NumericalError, match="no p_normalized"):
            state.active_p(state["a"])
