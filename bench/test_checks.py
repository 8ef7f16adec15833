"""Tests of the benchmark itself: each output check catches a corrupted output.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import qdt  # noqa: E402


@pytest.fixture(scope="module")
def square():
    scenario = qdt.random_strict_scenario(11, 2, [2, 4])
    report = qdt.evaluate_scenario(scenario, with_oracle=True)
    matrix, psi = checks.matrix_from_scenario(scenario)
    names = [spec.name for spec in scenario.prospects]
    return scenario, report, matrix, psi, names


def _doc(report, ranked=False):
    return json.loads(qdt.report_json(report, ranked=ranked))


def _by_rank(doc, rank):
    return next(e for e in doc["prospects"] if e["rank"] == rank)


def test_correct_reports_pass(square):
    _, report, matrix, psi, names = square
    checks.check_report(_doc(report), names, matrix, psi, ranked=False)
    checks.check_report(_doc(report, ranked=True), names, matrix, psi, ranked=True)
    checks.check_oracle(report.oracle_max_dev, report.checks, matrix)


def test_document_rebuild_matches_scenario_rebuild(square):
    scenario, _, matrix, psi, names = square
    doc_matrix, doc_psi, doc_names = checks.matrix_from_document(
        json.loads(qdt.serialize_scenario(scenario)))
    assert doc_names == names
    assert (doc_matrix == matrix).all() and (doc_psi == psi).all()


def test_reference_matches_a_nested_loop(square):
    _, _, matrix, psi, _ = square
    p, diag, q = checks.reference(matrix, psi)
    for i, row in enumerate(matrix):
        terms = [[psi[a].conjugate() * row[a] * row[b].conjugate() * psi[b]
                  for b in range(len(psi))] for a in range(len(psi))]
        assert abs(sum(map(sum, terms)).real - p[i]) < 1e-12
        assert abs(sum(terms[a][a] for a in range(len(psi))).real - diag[i]) < 1e-12
        off = sum(terms[a][b] for a in range(len(psi)) for b in range(len(psi)) if a != b)
        assert abs(off.real - q[i]) < 1e-12


def _corrupt(square, edit, ranked=False):
    _, report, matrix, psi, names = square
    doc = _doc(report, ranked)
    edit(doc)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(doc, names, matrix, psi, ranked)


def test_sign_flipped_q_fails(square):
    def flip(doc):
        e = max(doc["prospects"], key=lambda e: abs(e["q"]))
        e["q"] = -e["q"]
    _corrupt(square, flip)


def test_swapped_ranking_fails(square):
    def swap(doc):
        first, second = _by_rank(doc, 1), _by_rank(doc, 2)
        first["rank"], second["rank"] = 2, 1
    _corrupt(square, swap)


def test_ranked_listing_out_of_order_fails(square):
    def swap(doc):
        doc["prospects"][0], doc["prospects"][1] = doc["prospects"][1], doc["prospects"][0]
    _corrupt(square, swap, ranked=True)


def test_perturbed_p_fails(square):
    def nudge(doc):
        doc["prospects"][0]["p_raw"] += 1e-9
    _corrupt(square, nudge)


def test_wrong_optimal_fails(square):
    def other(doc):
        doc["optimal"] = _by_rank(doc, 2)["name"]
    _corrupt(square, other)


def test_broken_sum_rule_fails(square):
    def shift(doc):
        doc["checks"]["sum_q"] += 1e-9
    _corrupt(square, shift)


def test_missing_prospect_fails(square):
    def drop(doc):
        doc["prospects"].pop()
    _corrupt(square, drop)


def test_oracle_checks_fail_on_corruption(square):
    _, report, matrix, _, _ = square
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle(1e-9, report.checks, matrix)
    bad = copy.deepcopy(report.checks)
    bad["identity_residual"] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle(report.oracle_max_dev, bad, matrix)


def test_non_zero_exit_fails():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "qdt.cli", "evaluate", "no-such-file.json"],
                          env=env, capture_output=True)
    assert proc.returncode != 0
    with pytest.raises(checks.ProgramFailed):
        checks.check_process(proc.returncode, proc.stderr, "qdt evaluate")
    with pytest.raises(checks.ProgramFailed):
        checks.check_process(0, b"warning\n", "qdt evaluate")
    checks.check_process(0, b"", "qdt evaluate")


def test_repeated_seed_bytes():
    checks.check_same_bytes(b"abc", b"abc", "output")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_bytes(b"abc", b"abd", "output")


def test_spans_nest_and_wrappers_come_off(square):
    scenario = square[0]
    original = qdt.measure.evaluate_all
    tracer = Tracer()
    tracer.op_id = 7
    tracer.install()
    try:
        qdt.evaluate_scenario(scenario)
    finally:
        tracer.uninstall()
    assert qdt.measure.evaluate_all is original
    assert qdt.scenario_io.evaluate_all is original

    names = [tracer.names[i] for i in tracer.name]
    outer = names.index("measure.evaluate_all")
    inner = names.index("hilbert.build_amplitude_matrix")
    assert tracer.parent[inner] == outer
    assert set(tracer.op) == {7}
    n = len(scenario.prospects)
    assert tracer.counts["measure.interference_term"] == n
    assert tracer.counts["algebra.prospect_support"] == 2 * n

    totals = tracer.totals()
    total, own = totals["measure.evaluate_all"]
    child, _ = totals["hilbert.build_amplitude_matrix"]
    assert own == total - child


def test_merged_child_spans_hang_under_the_parent():
    tracer = Tracer()
    with tracer.span("cli.evaluate_process") as parent:
        pass
    child = {"spans": [["cli.run_cli", 10, 40, -1, 3], ["scenario_io.parse_scenario", 15, 25, 0, 3]],
             "counts": {"hilbert.basis_index": 5}}
    tracer.merge(child, parent)
    assert tracer.parent[1] == parent and tracer.parent[2] == 1
    assert tracer.totals()["cli.run_cli"] == (30, 20)
    assert tracer.counts == {"hilbert.basis_index": 5}


def test_metric_lists_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.make_workloads())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
