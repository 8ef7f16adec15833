import json
import math
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from qdt import scenario_io
from qdt.errors import InvalidScenario, NumericalError, ParseError, SupportViolation, UsageError
from qdt.hilbert import basis_index, build_amplitude_matrix
from qdt.measure import evaluate_all, gram_deviation
from qdt.scenario_io import (
    Scenario,
    ScenarioOptions,
    build_report,
    builtin_scenario,
    evaluate_scenario,
    parse_scenario,
    random_strict_scenario,
    scenario_schema,
    scenario_document,
    serialize_scenario,
)
from qdt.algebra import ProspectAttributes
from tests.conftest import matrix_scenario, random_general_scenario, random_psi

SQ2 = 1.0 / math.sqrt(2.0)

MINIMAL = """
{
  "factors": [{"label": "f", "modes": ["only"]}],
  "prospects": [
    {"name": "p",
     "mode_subsets": {"f": ["only"]},
     "amplitudes": [{"modes": ["only"], "amplitude": [1, 0]}]}
  ],
  "state_of_mind": [[1, 0]]
}
"""

H2_DOC = f"""
{{
  "format": "qdt-scenario-v1",
  "factors": [{{"label": "choice", "modes": ["m0", "m1"]}}],
  "prospects": [
    {{"name": "pi1",
      "mode_subsets": {{"choice": ["m0", "m1"]}},
      "amplitudes": [
        {{"modes": ["m0"], "amplitude": [{SQ2!r}, 0]}},
        {{"modes": ["m1"], "amplitude": [{SQ2!r}, 0]}}
      ]}},
    {{"name": "pi2",
      "mode_subsets": {{"choice": ["m0", "m1"]}},
      "amplitudes": [
        {{"modes": ["m0"], "amplitude": [{SQ2!r}, 0]}},
        {{"modes": ["m1"], "amplitude": [{-SQ2!r}, 0]}}
      ]}}
  ],
  "state_of_mind": [[{SQ2!r}, 0], [{SQ2!r}, 0]],
  "options": {{"normalization": "strict"}}
}}
"""


class TestParseScenario:
    def test_minimal_document(self):
        s = parse_scenario(MINIMAL)
        assert s.dimension == 1
        assert s.prospects[0].amplitudes == {(0,): 1.0 + 0j}
        assert s.options == ScenarioOptions()

    def test_h2_document_reproduces_builtin_numbers(self):
        s = parse_scenario(H2_DOC)
        assert s == builtin_scenario("h2")
        state = evaluate_all(s)
        assert state["pi1"].p_raw == pytest.approx(1.0, abs=1e-12)
        assert state["pi1"].q == pytest.approx(0.5, abs=1e-12)
        assert state["pi2"].q == pytest.approx(-0.5, abs=1e-12)

    def test_accepts_bytes(self):
        assert parse_scenario(MINIMAL.encode()) == parse_scenario(MINIMAL)

    def test_malformed_syntax_gives_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_scenario("{ not json")
        assert excinfo.value.line == 1
        assert excinfo.value.column is not None

    def test_amplitude_outside_subset_names_prospect(self):
        doc = json.loads(MINIMAL)
        doc["factors"][0]["modes"] = ["only", "other"]
        doc["prospects"][0]["amplitudes"].append({"modes": ["other"], "amplitude": [1, 0]})
        doc["state_of_mind"] = [[1, 0], [0, 0]]
        with pytest.raises(SupportViolation, match="'p'"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("mutate, path_fragment", [
        (lambda d: d.update(surprise=1), "<root>"),
        (lambda d: d["factors"][0].update(color="red"), "factors[0]"),
        (lambda d: d["prospects"][0].update(weight=2), "prospects[0]"),
        (lambda d: d["prospects"][0]["amplitudes"][0].update(extra=[]), "amplitudes[0]"),
        (lambda d: d.setdefault("options", {}).update(jobs=4), "options"),
    ])
    def test_unknown_keys_rejected(self, mutate, path_fragment):
        doc = json.loads(MINIMAL)
        mutate(doc)
        with pytest.raises(InvalidScenario) as excinfo:
            parse_scenario(json.dumps(doc))
        assert path_fragment in str(excinfo.value)

    def test_bad_mode_label_has_field_path(self):
        doc = json.loads(MINIMAL)
        doc["prospects"][0]["amplitudes"][0]["modes"] = ["nope"]
        with pytest.raises(InvalidScenario) as excinfo:
            parse_scenario(json.dumps(doc))
        assert "prospects[0].amplitudes[0].modes[0]" in str(excinfo.value)
        assert "nope" in str(excinfo.value)

    def test_zero_state_of_mind_rejected(self):
        doc = json.loads(MINIMAL)
        doc["state_of_mind"] = [[0, 0]]
        with pytest.raises(InvalidScenario, match="zero"):
            parse_scenario(json.dumps(doc))

    def test_state_of_mind_length_must_match_dimension(self):
        doc = json.loads(MINIMAL)
        doc["state_of_mind"] = [[1, 0], [0, 0]]
        with pytest.raises(InvalidScenario, match="state_of_mind"):
            parse_scenario(json.dumps(doc))

    def test_duplicate_prospect_names(self):
        doc = json.loads(MINIMAL)
        doc["prospects"].append(json.loads(json.dumps(doc["prospects"][0])))
        with pytest.raises(InvalidScenario, match="duplicate"):
            parse_scenario(json.dumps(doc))

    def test_duplicate_amplitude_entries(self):
        doc = json.loads(MINIMAL)
        doc["prospects"][0]["amplitudes"].append({"modes": ["only"], "amplitude": [0.5, 0]})
        with pytest.raises(InvalidScenario, match="duplicate"):
            parse_scenario(json.dumps(doc))

    def test_missing_factor_in_mode_subsets(self):
        doc = json.loads(MINIMAL)
        doc["factors"].append({"label": "g", "modes": ["x"]})
        doc["prospects"][0]["amplitudes"][0]["modes"] = ["only", "x"]
        doc["state_of_mind"] = [[1, 0]]
        with pytest.raises(InvalidScenario, match="missing factor"):
            parse_scenario(json.dumps(doc))

    def test_booleans_are_not_numbers(self):
        doc = json.loads(MINIMAL)
        doc["prospects"][0]["amplitudes"][0]["amplitude"] = [True, 0]
        with pytest.raises(InvalidScenario, match="number"):
            parse_scenario(json.dumps(doc))

    def test_bad_options(self):
        for options in ({"normalization": "loose"}, {"tolerance": 0},
                        {"oracle": "yes"}, {"seed": -1}, {"seed": 1.5}):
            doc = json.loads(MINIMAL)
            doc["options"] = options
            with pytest.raises(InvalidScenario, match="options"):
                parse_scenario(json.dumps(doc))

    def test_bad_format_marker(self):
        doc = json.loads(MINIMAL)
        doc["format"] = "something-else"
        with pytest.raises(InvalidScenario, match="format"):
            parse_scenario(json.dumps(doc))

    def test_non_object_root(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("[1, 2]")

    def test_bad_attributes(self):
        doc = json.loads(MINIMAL)
        doc["prospects"][0]["attributes"] = {"payoff_sign": "gain", "certainty": "certain"}
        with pytest.raises(InvalidScenario, match="attributes"):
            parse_scenario(json.dumps(doc))

    def test_free_support_option_lets_stray_amplitudes_through(self):
        doc = json.loads(MINIMAL)
        doc["factors"][0]["modes"] = ["only", "other"]
        doc["prospects"][0]["amplitudes"].append({"modes": ["other"], "amplitude": [1, 0]})
        doc["state_of_mind"] = [[1, 0], [0, 0]]
        doc["options"] = {"allow_free_support": True, "normalization": "given"}
        s = parse_scenario(json.dumps(doc))
        assert (1,) in s.prospects[0].amplitudes


class TestRoundTrip:
    def test_builtins(self):
        for name in ("h2", "disjunction", "register"):
            s = builtin_scenario(name)
            assert parse_scenario(serialize_scenario(s)) == s

    def test_random_strict(self):
        for seed in range(5):
            s = random_strict_scenario(seed, num_factors=2, modes_per_factor=[2, 3], num_prospects=7)
            assert parse_scenario(serialize_scenario(s)) == s

    def test_attributes_and_options_survive(self):
        s = matrix_scenario(
            [2], np.eye(2), [0.6, 0.8], normalization="renorm", tolerance=1e-8,
            attributes=[ProspectAttributes("gain", "uncertain", "active"),
                        ProspectAttributes("loss", "certain", "passive")],
        )
        s = Scenario(s.factors, s.prospects, s.state_of_mind,
                     ScenarioOptions("renorm", 1e-8, False, True, 42))
        back = parse_scenario(serialize_scenario(s))
        assert back == s
        assert back.prospects[0].attributes.payoff_sign == "gain"

    def test_serialization_is_deterministic(self):
        s = builtin_scenario("disjunction")
        assert serialize_scenario(s) == serialize_scenario(s)

    def test_seventeen_digit_floats_round_trip_exactly(self, rng):
        values = list(rng.standard_normal(50)) + [1e-300, 1e300, 0.1, 2.0 ** -52]
        from qdt.scenario_io import _fmt_float
        for x in values:
            assert float(_fmt_float(float(x))) == float(x)

    def test_partial_support_round_trip(self, rng):
        for _ in range(5):
            s = random_general_scenario(rng, max_dim=12)
            assert parse_scenario(serialize_scenario(s)) == s


class TestSchema:
    def test_schema_is_valid_and_accepts_generated_documents(self, rng):
        schema = scenario_schema()
        jsonschema.Draft202012Validator.check_schema(schema)
        validator = jsonschema.Draft202012Validator(schema)
        docs = [scenario_document(builtin_scenario(n)) for n in ("h2", "disjunction", "register")]
        docs.append(scenario_document(random_strict_scenario(1, 1, 3, 4)))
        docs.append(scenario_document(random_general_scenario(rng)))
        for doc in docs:
            # validate the emitted text, i.e. exactly what files contain
            validator.validate(json.loads(_emit_doc(doc)))

    def test_schema_rejects_unknown_keys(self):
        schema = scenario_schema()
        doc = scenario_document(builtin_scenario("h2"))
        doc["surprise"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.Draft202012Validator(schema).validate(doc)


def _emit_doc(doc):
    from qdt.scenario_io import _emit
    return _emit(doc) + "\n"


class TestBuiltins:
    def test_h2_golden_values(self):
        state = evaluate_all(builtin_scenario("h2"))
        assert state["pi1"].p_raw == pytest.approx(1.0, abs=1e-12)
        assert state["pi2"].p_raw == pytest.approx(0.0, abs=1e-12)
        assert state["pi1"].q == pytest.approx(0.5, abs=1e-12)
        assert state["pi2"].q == pytest.approx(-0.5, abs=1e-12)

    def test_disjunction_phase_zero_opposite_interference(self):
        state = evaluate_all(builtin_scenario("disjunction", phase=0.0))
        q1, q2 = state["act"].q, state["wait"].q
        assert q1 == pytest.approx(-q2, abs=1e-12)
        assert abs(q1) == pytest.approx(0.5, abs=1e-12)
        assert abs(state.checks["sum_q"]) < 1e-12

    def test_disjunction_diagonal_is_phase_independent(self, rng):
        for phase in rng.uniform(0.0, 2.0 * math.pi, size=4):
            state = evaluate_all(builtin_scenario("disjunction", phase=float(phase)))
            assert state["act"].diag_sum == pytest.approx(0.5, abs=1e-12)
            assert state["wait"].diag_sum == pytest.approx(0.5, abs=1e-12)
            assert state["act"].q == pytest.approx(math.cos(phase) / 2.0, abs=1e-12)

    def test_register_one_hot_sites_give_single_basis_state(self):
        s = builtin_scenario("register", site_amplitudes=[[1, 0], [0, 1]])
        psi = np.asarray(s.state_of_mind)
        expected = np.zeros(4, dtype=complex)
        expected[basis_index((0, 1), s.space())] = 1.0
        assert np.array_equal(psi, expected)
        state = evaluate_all(s)
        assert state["e01"].p_raw == pytest.approx(1.0)
        assert all(r.q == 0.0 for r in state.results)

    def test_register_default_ranking(self):
        report = evaluate_scenario(builtin_scenario("register"))
        assert report.optimal == "e01"
        assert report.ranking == ("e01", "e11", "e00", "e10")

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            builtin_scenario("nope")


class TestRandomStrictScenario:
    def test_gram_matrix_is_identity(self):
        s = random_strict_scenario(seed=1, num_factors=2, modes_per_factor=2, num_prospects=4)
        matrix = build_amplitude_matrix(s.prospects, s.space())
        assert gram_deviation(matrix) < 1e-12

    def test_probability_sum_for_fresh_psi(self, rng):
        s = random_strict_scenario(seed=2, num_factors=2, modes_per_factor=2, num_prospects=5)
        matrix = build_amplitude_matrix(s.prospects, s.space())
        for _ in range(100):
            psi = random_psi(rng, 4)
            trial = matrix_scenario([2, 2], matrix, psi, normalization="strict")
            state = evaluate_all(trial)
            assert abs(state.checks["sum_p"] - 1.0) < 1e-12

    def test_same_seed_same_bytes(self):
        a = serialize_scenario(random_strict_scenario(seed=7, num_factors=1, modes_per_factor=4))
        b = serialize_scenario(random_strict_scenario(seed=7, num_factors=1, modes_per_factor=4))
        assert a == b

    def test_different_seeds_differ(self):
        a = serialize_scenario(random_strict_scenario(seed=7))
        b = serialize_scenario(random_strict_scenario(seed=8))
        assert a != b

    def test_too_few_prospects_rejected(self):
        with pytest.raises(InvalidScenario):
            random_strict_scenario(seed=0, num_factors=2, modes_per_factor=2, num_prospects=3)

    def test_evaluates_strict_clean(self):
        s = random_strict_scenario(seed=13, num_factors=3, modes_per_factor=[2, 2, 2], num_prospects=10)
        state = evaluate_all(s)
        assert abs(state.checks["sum_p"] - 1.0) < 1e-12
        assert abs(state.checks["sum_q"]) < 1e-11
        assert state.checks["column_norm_max_dev"] < 1e-12


class TestReports:
    def test_oracle_extras_present_only_when_requested(self):
        s = builtin_scenario("h2")
        plain = evaluate_scenario(s)
        assert "identity_residual" not in plain.checks
        assert plain.oracle_max_dev is None
        rich = evaluate_scenario(s, with_oracle=True)
        assert rich.checks["identity_residual"] < 1e-12
        assert rich.oracle_max_dev < 1e-12
        assert list(rich.checks) == ["sum_p", "sum_q", "column_norm_max_dev",
                                     "identity_residual", "prop1_max_residual"]

    def test_attraction_section_requires_attributes(self):
        assert evaluate_scenario(builtin_scenario("h2")).attraction_report is None
        report = evaluate_scenario(builtin_scenario("disjunction"))
        assert report.attraction_report is not None
        assert report.attraction_report.passed

    def test_probability_below_empty_prospect_raises(self):
        s = builtin_scenario("h2")
        state = evaluate_all(s)
        results = (state.results[0], replace(state.results[1], p_raw=-1e-3))
        with pytest.raises(NumericalError, match="below the empty prospect"):
            build_report(s, replace(state, results=results))

    def test_optimal_must_attain_the_maximum(self, monkeypatch):
        s = builtin_scenario("h2")
        monkeypatch.setattr(scenario_io, "optimal_prospect", lambda lattice, state: state.results[-1].name)
        with pytest.raises(NumericalError, match="does not attain the maximum"):
            evaluate_scenario(s)

    def test_tie_reporting(self):
        s = matrix_scenario([2], np.eye(2), [SQ2, SQ2], normalization="strict")
        report = evaluate_scenario(s)
        assert report.ties == (("p1", "p2"),)
        assert report.optimal == "p1"
