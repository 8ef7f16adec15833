import json
import time
from pathlib import Path

import pytest

from qdt.cli import run_cli
from qdt.scenario_io import random_strict_scenario, serialize_scenario

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *args):
    code = run_cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_valid_strict_file_exits_zero(self, capsys):
        code, out, err = run(capsys, "validate", str(FIXTURES / "valid_strict.json"))
        assert code == 0
        assert "optimal: pi1" in out
        assert err == ""

    def test_column_norm_violation_exits_one(self, capsys):
        code, out, err = run(capsys, "validate", str(FIXTURES / "column_norm_violation.json"))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "NormalizationError"
        assert payload["residuals"]["column_norm_max_dev"] == pytest.approx(0.19, abs=1e-12)
        # the completed evaluation is still reported
        assert "p1" in out

    def test_malformed_file_exits_two(self, capsys):
        code, out, err = run(capsys, "evaluate", str(FIXTURES / "malformed.json"))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["line"] == 1

    def test_violation_passes_under_given_policy(self, capsys):
        code, _, err = run(capsys, "evaluate", str(FIXTURES / "column_norm_violation.json"),
                           "--normalization", "given")
        assert code == 0
        assert err == ""

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "evaluate", "no/such/file.json")
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "evaluate", "demo:nope")
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "evaluate", "demo:h2", "--normalization", "loose")
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"

    def test_negative_tolerance(self, capsys):
        code, _, err = run(capsys, "evaluate", "demo:h2", "--tolerance", "-1")
        assert code == 2

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", ["h2", "disjunction", "register"])
    def test_json_matches_golden_and_is_byte_stable(self, capsys, name):
        code, first, err = run(capsys, "evaluate", f"demo:{name}", "--format", "json")
        assert code == 0 and err == ""
        _, second, _ = run(capsys, "evaluate", f"demo:{name}", "--format", "json")
        assert first == second
        assert first == (GOLDEN / f"{name}.json").read_text()

    def test_csv_matches_golden_and_is_byte_stable(self, capsys):
        code, first, err = run(capsys, "evaluate", "demo:h2", "--format", "csv")
        assert code == 0
        _, second, _ = run(capsys, "evaluate", "demo:h2", "--format", "csv")
        assert first == second
        assert first == (GOLDEN / "h2.csv").read_text()

    def test_demo_command_equals_demo_uri(self, capsys):
        _, via_demo, _ = run(capsys, "demo", "h2", "--format", "json")
        _, via_uri, _ = run(capsys, "evaluate", "demo:h2", "--format", "json")
        assert via_demo == via_uri


class TestRank:
    def test_rank_orders_by_descending_probability(self, capsys):
        code, out, _ = run(capsys, "rank", "demo:register", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["e01", "e11", "e00", "e10"]
        assert [r[5] for r in rows] == ["1", "2", "3", "4"]
        probs = [float(r[1]) for r in rows]
        assert probs == sorted(probs, reverse=True)


class TestFlags:
    def test_renorm_adds_p_normalized(self, capsys):
        code, out, _ = run(capsys, "evaluate", "demo:h2", "--normalization", "renorm",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert all("p_normalized" in p for p in doc["prospects"])
        assert sum(p["p_normalized"] for p in doc["prospects"]) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_flag_adds_identity_residual(self, capsys):
        code, out, err = run(capsys, "validate", "demo:h2", "--oracle", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["checks"]["identity_residual"] <= 1e-12
        assert list(doc["checks"]) == ["sum_p", "sum_q", "column_norm_max_dev",
                                       "identity_residual", "prop1_max_residual"]

    def test_plain_run_omits_identity_residual(self, capsys):
        _, out, _ = run(capsys, "evaluate", "demo:h2", "--format", "json")
        assert "identity_residual" not in json.loads(out)["checks"]

    def test_tolerance_override_loosens_strict(self, capsys):
        code, _, _ = run(capsys, "validate", str(FIXTURES / "column_norm_violation.json"),
                         "--tolerance", "0.5")
        assert code == 0


class TestRandomCommand:
    def test_same_seed_is_byte_identical(self, capsys):
        _, a, _ = run(capsys, "random", "--seed", "5", "--factors", "2", "--modes", "2", "3")
        _, b, _ = run(capsys, "random", "--seed", "5", "--factors", "2", "--modes", "2", "3")
        assert a == b and a

    def test_output_is_valid_strict_scenario(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        code, _, _ = run(capsys, "random", "--seed", "3", "--out", str(out_file))
        assert code == 0
        code, _, err = run(capsys, "validate", str(out_file))
        assert code == 0 and err == ""

    def test_too_few_prospects(self, capsys):
        code, _, err = run(capsys, "random", "--seed", "1", "--factors", "2",
                           "--modes", "2", "--prospects", "2")
        assert code == 2
        assert json.loads(err)["error"] == "InvalidScenario"


class TestErrorStream:
    def test_error_is_single_json_line(self, capsys):
        _, _, err = run(capsys, "evaluate", str(FIXTURES / "malformed.json"))
        assert err.count("\n") == 1
        json.loads(err)


def _write_scaled(path: Path, scale: float, seed: int = 4, modes=(2, 2)) -> None:
    """A given-mode scenario file with orthonormal amplitudes scaled by ``scale``."""
    scenario = random_strict_scenario(seed, len(modes), list(modes))
    doc = json.loads(serialize_scenario(scenario))
    for prospect in doc["prospects"]:
        for entry in prospect["amplitudes"]:
            entry["amplitude"] = [scale * x for x in entry["amplitude"]]
    doc["options"]["normalization"] = "given"
    path.write_text(json.dumps(doc))


class TestQdtErrorsAreJsonLines:
    def test_overflowing_amplitudes_exit_one(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        _write_scaled(path, 1e200)
        code, out, err = run(capsys, "evaluate", str(path), "--format", "json")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "NumericalError"
        assert "non-finite" in payload["message"]

    def test_scaled_given_scenario_evaluates(self, capsys, tmp_path):
        path = tmp_path / "scaled.json"
        _write_scaled(path, 1e4, modes=(4, 4, 4))
        code, out, err = run(capsys, "evaluate", str(path), "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["checks"]["sum_p"] == pytest.approx(1e8, rel=1e-12)

    def test_oracle_above_size_limit_exits_two(self, capsys, tmp_path):
        path = tmp_path / "k128.json"
        code, _, _ = run(capsys, "random", "--seed", "2", "--factors", "3", "--modes", "4", "8", "4",
                         "--out", str(path))
        assert code == 0
        start = time.perf_counter()
        code, out, err = run(capsys, "evaluate", str(path), "--oracle", "--format", "json")
        assert time.perf_counter() - start < 10.0
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "DimensionError"
        assert "64" in payload["message"] and "128" in payload["message"]

    def test_oracle_option_in_file_is_guarded_too(self, capsys, tmp_path):
        path = tmp_path / "k128.json"
        doc = json.loads(serialize_scenario(random_strict_scenario(2, 3, [4, 8, 4])))
        doc["options"]["oracle"] = True
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "evaluate", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "DimensionError"
