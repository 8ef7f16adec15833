import math

import numpy as np
import pytest

from qdt.algebra import ProspectAttributes, ProspectSpec
from qdt.errors import InvalidScenario, NumericalError, StateError
from qdt.lattice import (
    ProspectLattice,
    attraction_compare,
    check_attraction_consistency,
    compare,
    optimal_prospect,
    preference_criterion,
    rank_order,
)
from qdt.measure import NormalizationPolicy, ProbabilisticState, ProspectResult, evaluate_all
from qdt.scenario_io import builtin_scenario
from tests.conftest import matrix_scenario, random_general_scenario

SQ2 = 1.0 / math.sqrt(2.0)


def _lattice_of(results):
    return ProspectLattice(prospects=tuple(ProspectSpec(r.name, ((0,),), {(0,): 1.0}) for r in results))


def simple_state(probs, normalization="given"):
    """Evaluated state with the given probabilities via simple prospects."""
    dim = len(probs)
    psi = np.sqrt(np.asarray(probs, dtype=float))
    psi = psi / np.linalg.norm(psi)
    scenario = matrix_scenario([dim], np.eye(dim), psi, normalization=normalization)
    return scenario, evaluate_all(scenario)


class TestCompare:
    def test_sign_of_difference(self):
        _, state = simple_state([0.64, 0.36])
        assert compare("p1", "p2", state).relation == "greater"
        assert compare("p2", "p1", state).relation == "less"

    def test_equal_probabilities_are_indifferent(self):
        _, state = simple_state([0.5, 0.5])
        rel = compare("p1", "p2", state)
        assert rel.relation == "equal"
        assert rel.p_gap == pytest.approx(0.0, abs=1e-15)

    def test_h2_ordering(self):
        state = evaluate_all(builtin_scenario("h2"))
        rel = compare("pi1", "pi2", state)
        assert rel.relation == "greater"
        assert rel.p_gap == pytest.approx(1.0, abs=1e-12)
        assert rel.q_gap == pytest.approx(1.0, abs=1e-12)

    def test_unknown_prospect(self):
        _, state = simple_state([1.0])
        with pytest.raises(StateError):
            compare("p1", "ghost", state)

    def test_totality_and_transitivity(self, rng):
        for _ in range(10):
            scenario = random_general_scenario(rng, max_dim=8)
            state = evaluate_all(scenario)
            names = state.names
            rel = {}
            for a in names:
                for b in names:
                    if a != b:
                        rel[a, b] = compare(a, b, state).relation
            for a in names:
                for b in names:
                    if a == b:
                        continue
                    flip = {"greater": "less", "less": "greater", "equal": "equal"}
                    assert rel[b, a] == flip[rel[a, b]]
                    for c in names:
                        if c in (a, b):
                            continue
                        if rel[a, b] == "greater" and rel[b, c] == "greater":
                            assert rel[a, c] == "greater"


class TestOptimalProspect:
    def test_argmax(self):
        scenario, state = simple_state([0.36, 0.64])
        lattice = ProspectLattice(prospects=scenario.prospects)
        assert optimal_prospect(lattice, state) == "p2"

    def test_tie_breaks_to_first_declared_and_is_reported(self):
        scenario, state = simple_state([0.5, 0.5])
        lattice = ProspectLattice(prospects=scenario.prospects)
        assert optimal_prospect(lattice, state) == "p1"
        _, ties = rank_order(state)
        assert ties == (("p1", "p2"),)

    def test_h2(self):
        scenario = builtin_scenario("h2")
        state = evaluate_all(scenario)
        assert optimal_prospect(ProspectLattice(prospects=scenario.prospects), state) == "pi1"

    def test_empty_lattice(self):
        _, state = simple_state([1.0])
        with pytest.raises(InvalidScenario):
            optimal_prospect(ProspectLattice(prospects=()), state)

    def test_argmax_invariant_under_renorm(self, rng):
        for _ in range(10):
            scenario = random_general_scenario(rng, normalization="renorm", max_dim=12)
            state = evaluate_all(scenario)
            lattice = ProspectLattice(prospects=scenario.prospects)
            best = optimal_prospect(lattice, state)
            raw_best = max(state.results, key=lambda r: r.p_raw).p_raw
            assert state[best].p_raw == raw_best

    def test_rescale_invariance_violation_raises(self):
        # p_normalized disagrees with p_raw on the argmax: not a positive rescaling
        results = (ProspectResult("a", 0.6, 0.6, 0.0, (0.6,), 0.4),
                   ProspectResult("b", 0.4, 0.4, 0.0, (0.4,), 0.6))
        state = ProbabilisticState(results=results, checks={}, policy=NormalizationPolicy("renorm"),
                                   ordering_field="p_normalized")
        with pytest.raises(NumericalError, match="argmax changed"):
            optimal_prospect(_lattice_of(results), state)


class TestPreferenceCriterion:
    def test_h2_hand_algebra(self):
        # diagonal gaps are zero and the interference gap is -1, so the
        # first prospect is preferred
        state = evaluate_all(builtin_scenario("h2"))
        r1, r2 = state["pi1"], state["pi2"]
        assert r1.diag_sum - r2.diag_sum == pytest.approx(0.0, abs=1e-12)
        assert r2.q - r1.q == pytest.approx(-1.0, abs=1e-12)
        assert preference_criterion("pi1", "pi2", state) is True
        assert preference_criterion("pi2", "pi1", state) is False

    def test_identical_prospects_not_preferred(self):
        _, state = simple_state([0.5, 0.5])
        assert preference_criterion("p1", "p2", state) is False

    def test_agreement_with_direct_comparison(self, rng):
        checked = 0
        for _ in range(40):
            scenario = random_general_scenario(rng, max_dim=16)
            state = evaluate_all(scenario)
            names = state.names
            for a in names:
                for b in names:
                    if a == b or abs(state[a].p_raw - state[b].p_raw) <= 1e-12:
                        continue
                    assert preference_criterion(a, b, state) == (state[a].p_raw > state[b].p_raw)
                    checked += 1
        assert checked >= 200

    def test_unknown_prospect(self):
        _, state = simple_state([1.0])
        with pytest.raises(StateError):
            preference_criterion("ghost", "p1", state)


class TestAttractionCompare:
    def test_lower_q_is_more_repulsive(self):
        assert attraction_compare(-0.5, 0.5) == "more_repulsive"

    def test_equal(self):
        assert attraction_compare(0.125, 0.125) == "equal"

    def test_h2_values(self):
        state = evaluate_all(builtin_scenario("h2"))
        assert attraction_compare(state["pi2"].q, state["pi1"].q) == "more_repulsive"

    def test_antisymmetry(self, rng):
        for _ in range(50):
            q1, q2 = rng.standard_normal(2)
            a, b = attraction_compare(q1, q2), attraction_compare(q2, q1)
            flip = {"more_repulsive": "less_repulsive", "less_repulsive": "more_repulsive", "equal": "equal"}
            assert b == flip[a]


def _attr(payoff, certainty, activity):
    return ProspectAttributes(payoff, certainty, activity)


class TestAttractionConsistency:
    def _state_with_attrs(self, probs_matrix, psi, attributes):
        scenario = matrix_scenario([2], probs_matrix, psi, normalization="given", attributes=attributes)
        return scenario, evaluate_all(scenario)

    def test_uncertain_gain_vs_certain_gain(self):
        # psi = (c, -s) with c*s = 0.2 gives q = (-0.2, +0.2) for the
        # superposition pair (q1 = -c*s by hand expansion)
        c = math.sqrt((1.0 + math.sqrt(0.84)) / 2.0)
        s = math.sqrt((1.0 - math.sqrt(0.84)) / 2.0)
        scenario, state = self._state_with_attrs(
            [[SQ2, SQ2], [SQ2, -SQ2]],
            [c, -s],
            [_attr("gain", "uncertain", "neutral"), _attr("gain", "certain", "neutral")],
        )
        assert state["p1"].q == pytest.approx(-0.2, abs=1e-12)
        assert state["p2"].q == pytest.approx(+0.2, abs=1e-12)
        assert state["p1"].q < state["p2"].q
        report = check_attraction_consistency(ProspectLattice(prospects=scenario.prospects), state)
        assert len(report.constraints) == 1
        c = report.constraints[0]
        assert (c.more_repulsive, c.less_repulsive) == ("p1", "p2")
        assert c.reason == "more uncertain gain"
        assert c.ok
        assert report.passed

    def test_same_attributes_emit_no_constraint(self):
        attrs = [_attr("gain", "uncertain", "active")] * 2
        scenario, state = self._state_with_attrs(np.eye(2), [0.6, 0.8], attrs)
        report = check_attraction_consistency(ProspectLattice(prospects=scenario.prospects), state)
        assert report.constraints == ()
        assert report.skipped_pairs == ()

    def test_missing_attributes_skip_pairs(self):
        attrs = [_attr("gain", "uncertain", "active"), None]
        scenario, state = self._state_with_attrs(np.eye(2), [0.6, 0.8], attrs)
        report = check_attraction_consistency(ProspectLattice(prospects=scenario.prospects), state)
        assert report.constraints == ()
        assert set(report.skipped_pairs) == {("p1", "p2"), ("p2", "p1")}

    def test_disjunction_tuned_phase_passes(self):
        # phase in the second quadrant puts the act-under-uncertainty
        # prospect at lower q
        scenario = builtin_scenario("disjunction", phase=2.0 * math.pi / 3.0)
        state = evaluate_all(scenario)
        report = check_attraction_consistency(ProspectLattice(prospects=scenario.prospects), state)
        assert len(report.constraints) == 1
        assert report.constraints[0].reason == "more active under uncertainty"
        assert report.passed

    def test_all_four_rules_fire(self):
        pairs = [
            (_attr("gain", "uncertain", "neutral"), _attr("gain", "certain", "neutral"), "more uncertain gain"),
            (_attr("loss", "certain", "neutral"), _attr("loss", "uncertain", "neutral"), "more certain loss"),
            (_attr("neutral", "uncertain", "active"), _attr("neutral", "uncertain", "passive"),
             "more active under uncertainty"),
            (_attr("neutral", "certain", "passive"), _attr("neutral", "certain", "active"),
             "more passive under certainty"),
        ]
        for a1, a2, reason in pairs:
            scenario, state = self._state_with_attrs(np.eye(2), [0.6, 0.8], [a1, a2])
            report = check_attraction_consistency(ProspectLattice(prospects=scenario.prospects), state)
            assert [c.reason for c in report.constraints] == [reason]
