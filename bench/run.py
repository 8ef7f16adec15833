#!/usr/bin/env python3
"""Benchmark for qdt: four closed-loop workloads, one client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ``src/`` next to
this directory and the CLI children get the same path.  Every operation
builds its scenario from seed ``N + operation index`` inside the timed
interval, so no scenario object is evaluated twice.  After each operation,
outside the timed interval, the outputs are checked against the
benchmark's own numpy computation (``checks.py``).

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run that alternates traced and untraced operations (``spans.py``).  Result
lines and span files go to ``bench/results/``.  The exit code is 1 when an
output check or an operation failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

# numpy, qdt and the benchmark's own modules are imported where they are
# used, so that a cli_roundtrip set-up probe pays only for the interpreter
# and the qdt processes it starts.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

#: Set-up is measured this many times per run, in fresh processes.
SETUP_PROBES = 5
#: Seeds of set-up probes and warm-up lie this far above the operation seeds.
PROBE_SEED_OFFSET = 1_000_000
#: A run stops starting operations after this many seconds of wall time.
WALL_LIMIT_S = 140.0
#: BLAS threads of the benchmark and of every process it starts.  The
#: matrices are small; a second OpenBLAS thread only spins on the other CPU
#: of a small machine, which made operations slower and less steady.
BLAS_THREADS = "1"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("algebra.validate_prospect.ms", "ms"),
    ("algebra.prospect_support.calls", "count"),
    ("hilbert.build_amplitude_matrix.ms", "ms"),
    ("hilbert.build_amplitude_matrix.self_ms", "ms"),
    ("hilbert.basis_index.calls", "count"),
    ("scenario_io.random_strict_scenario.ms", "ms"),
    ("measure.evaluate_all.ms", "ms"),
    ("measure.evaluate_all.self_ms", "ms"),
    ("measure.interference_term.calls", "count"),
    ("lattice.rank_order.ms", "ms"),
    ("lattice.optimal_prospect.ms", "ms"),
    ("scenario_io.build_report.self_ms", "ms"),
    ("scenario_io.report_json.ms", "ms"),
    ("oracle.dense_evaluate.ms", "ms"),
    ("oracle.dense_evaluate.self_ms", "ms"),
    ("oracle.dense_interference.ms", "ms"),
    ("oracle.resolution_of_identity_check.ms", "ms"),
    ("oracle.dense_expectation.calls", "count"),
    ("scenario_io.parse_scenario.ms", "ms"),
    ("scenario_io.parse_mb_per_s", "MB/s"),
    ("scenario_io.serialize_scenario.ms", "ms"),
    ("scenario_io.serialize_mb_per_s", "MB/s"),
    ("cli.startup_ms", "ms"),
    ("cli.random_process_ms", "ms"),
    ("cli.evaluate_process_ms", "ms"),
    ("cli.outside_run_cli_ms", "ms"),
    ("size.k", "count"),
    ("size.n", "count"),
    ("size.amplitudes", "count"),
    ("size.scenario_bytes", "B"),
    ("size.report_bytes", "B"),
    ("trace.overhead_pct", "%"),
)


def import_qdt():
    if not (SRC / "qdt" / "__init__.py").is_file():
        print(f"bench: no qdt package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qdt
    return qdt


class InProcess:
    """One ``random_strict_scenario`` + ``evaluate_scenario`` (+ ``report_json``) per operation."""

    reference = "cpu"

    def __init__(self, name, tail_pct, modes, prospects=None, ranked=False, oracle=False):
        self.name = name
        self.tail_pct = tail_pct
        self.modes = list(modes)
        self.prospects = prospects
        self.ranked = ranked
        self.oracle = oracle
        self.qdt = None
        self.scenario_size = None

    def start(self, workdir: Path) -> None:
        self.qdt = import_qdt()
        self.program_errors = (self.qdt.QdtError,)

    def op(self, seed: int, tracer):
        qdt = self.qdt
        scenario = qdt.random_strict_scenario(seed, len(self.modes), self.modes, self.prospects)
        report = qdt.evaluate_scenario(scenario, with_oracle=self.oracle)
        text = None if self.oracle else qdt.report_json(report, ranked=self.ranked)
        return scenario, report, text

    def check(self, out, tracer) -> dict:
        import checks

        scenario, report, text = out
        if text is None:
            text = self.qdt.report_json(report, ranked=self.ranked)
        matrix, psi = checks.matrix_from_scenario(scenario)
        doc = json.loads(text)
        names = [spec.name for spec in scenario.prospects]
        checks.check_report(doc, names, matrix, psi, self.ranked)
        if self.oracle:
            checks.check_oracle(report.oracle_max_dev, doc["checks"], matrix)
        sizes = {
            "k": matrix.shape[1], "n": matrix.shape[0],
            "amplitudes": int((matrix != 0).sum()),
            "report_bytes": len(text.encode()),
        }
        if tracer is not None:
            if self.scenario_size is None:  # serializing costs more than the operation
                self.scenario_size = len(self.qdt.serialize_scenario(scenario).encode())
            sizes["scenario_bytes"] = self.scenario_size
        return sizes

    def finish(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliRoundtrip:
    """One ``qdt random --out f`` process, then one ``qdt evaluate f --format json`` process."""

    name = "cli_roundtrip"
    reference = "process"
    tail_pct = 75
    modes = ("4", "4", "4")
    program_errors = ()

    def start(self, workdir: Path) -> None:
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")
        self.scenario = workdir / "scenario.json"
        self.first_seed = None
        self.first_bytes = None
        self.max_child_rss_kb = 0

    def _spawn(self, args: list[str], tracer, label: str, op_id: int) -> dict:
        out, err = self.workdir / f"{label}.out", self.workdir / f"{label}.err"
        spans = self.workdir / f"{label}.spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "qdt.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "launch.py"), str(spans), str(op_id), *args]
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, cwd=self.workdir, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"label": label, "code": proc.returncode, "out": out, "err": err, "spans": spans,
                "rss_kb": usage.ru_maxrss}

    def _random_args(self, seed: int) -> list[str]:
        return ["random", "--seed", str(seed), "--factors", str(len(self.modes)),
                "--modes", *self.modes, "--out", str(self.scenario)]

    def _run_pair(self, seed: int, tracer, op_id: int) -> list[dict]:
        random_args = self._random_args(seed)
        evaluate_args = ["evaluate", str(self.scenario), "--format", "json"]
        children = []
        for label, args in (("random", random_args), ("evaluate", evaluate_args)):
            if tracer is None:
                children.append(self._spawn(args, None, label, op_id))
            else:
                with tracer.span(f"cli.{label}_process") as span:
                    child = self._spawn(args, tracer, label, op_id)
                child["span"] = span
                children.append(child)
        return children

    def op(self, seed: int, tracer):
        return seed, self._run_pair(seed, tracer, tracer.op_id if tracer else -1)

    def check(self, out, tracer) -> dict:
        import checks

        seed, children = out
        for child in children:
            checks.check_process(child["code"], child["err"].read_bytes(), f"qdt {child['label']}")
        self.max_child_rss_kb = max([self.max_child_rss_kb] + [c["rss_kb"] for c in children])
        scenario_text = self.scenario.read_bytes()
        if self.first_seed is None:
            self.first_seed, self.first_bytes = seed, scenario_text
        report_text = children[1]["out"].read_bytes()
        matrix, psi, names = checks.matrix_from_document(json.loads(scenario_text))
        checks.check_report(json.loads(report_text), names, matrix, psi, ranked=False)
        if tracer is not None:
            for child in children:
                tracer.merge(json.loads(child["spans"].read_text()), child["span"])
            with tracer.span("cli.startup"):
                startup = subprocess.run([sys.executable, "-c", "import qdt.cli"], env=self.env,
                                         cwd=self.workdir, capture_output=True)
            checks.check_process(startup.returncode, startup.stderr, "import qdt.cli")
        return {
            "k": matrix.shape[1], "n": matrix.shape[0],
            "amplitudes": int((matrix != 0).sum()),
            "scenario_bytes": len(scenario_text), "report_bytes": len(report_text),
        }

    def finish(self) -> None:
        """``qdt random`` repeated with the first operation's seed gives the same bytes."""
        import checks

        if self.first_seed is None:
            return
        child = self._spawn(self._random_args(self.first_seed), None, "random", -1)
        checks.check_process(child["code"], child["err"].read_bytes(), "qdt random")
        checks.check_same_bytes(self.first_bytes, self.scenario.read_bytes(), "qdt random output")

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0


def make_workloads() -> dict:
    return {w.name: w for w in (
        InProcess("evaluate_square", 90, modes=(4, 8, 4)),
        InProcess("rank_tall", 90, modes=(2, 2), prospects=1024, ranked=True),
        InProcess("oracle_verify", 95, modes=(4, 4), oracle=True),
        CliRoundtrip(),
    )}


def min_ops(tail_pct: float) -> int:
    """Fewest operations that leave ten samples beyond the tail percentile."""
    return max(40, round(10 / (1 - tail_pct / 100)))


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up time: fresh processes that import, set up and run one operation.

    Returns the median probe time at nominal speed (each probe scaled by
    the process references just before and after it) and the raw median,
    in seconds.
    """
    import speed

    times, refs = [], []
    for j in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", name,
               "--seed", str(seed + PROBE_SEED_OFFSET + j)]
        refs.append(speed.time_reference("process"))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    refs.append(speed.time_reference("process"))
    scaled = [speed.scale(t, refs[j], refs[j + 1], "process") for j, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times)


@contextmanager
def work_dir():
    """A fresh directory under bench/.work, removed afterwards."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_probe(workload, seed: int) -> None:
    with work_dir() as workdir:
        workload.start(workdir)
        workload.op(seed, None)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, object]:
    """Measure one workload; returns (result object, tracer or None)."""
    import checks
    import speed
    from spans import Tracer

    setup = None if trace else measure_setup(workload.name, seed)
    with work_dir() as workdir:
        workload.start(workdir)
        warm = workload.op(seed + PROBE_SEED_OFFSET + SETUP_PROBES, None)
        workload.check(warm, None)
        tracer = Tracer() if trace else None

        latencies: dict[bool, list[float]] = {False: [], True: []}
        scaled: list[float] = []  # untraced latencies at nominal machine speed
        refs = [] if trace else [speed.time_reference(workload.reference)]
        size_sums: dict[str, float] = {}
        attempted = failed = 0
        timed = 0.0
        need = 0 if trace else min_ops(workload.tail_pct)
        wall_end = time.monotonic() + WALL_LIMIT_S
        while (timed < seconds or attempted < need) and time.monotonic() < wall_end:
            # Start every operation from a collected heap, as a fresh process would:
            # otherwise full collections of garbage left by earlier operations and
            # by the checks land in a varying few percent of the operations.
            gc.collect()
            traced = trace and attempted % 2 == 1
            if traced:
                tracer.op_id = attempted
                tracer.install()
            out, error = None, None
            t0 = time.perf_counter()
            try:
                out = workload.op(seed + attempted, tracer if traced else None)
            except workload.program_errors as exc:
                error = repr(exc)
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if error is None:
                try:
                    sizes = workload.check(out, tracer if traced else None)
                except checks.ProgramFailed as exc:
                    error = str(exc)
            if not trace:
                refs.append(speed.time_reference(workload.reference))
            attempted += 1
            timed += dt
            if error is not None:
                print(f"bench: operation {attempted - 1} failed: {error}", file=sys.stderr)
                failed += 1
                continue
            latencies[traced].append(dt)
            if traced:
                for key, value in sizes.items():
                    size_sums[key] = size_sums.get(key, 0.0) + value
            elif not trace:
                scaled.append(speed.scale(dt, refs[-2], refs[-1], workload.reference))
        workload.finish()

    result = {"correct": True, "attempted": attempted, "failed": failed}
    if trace:
        result["metrics"] = layer_metrics(tracer, latencies, size_sums)
    else:
        result["metrics"] = end_to_end_metrics(latencies[False], scaled, refs, workload, setup)
    return result, tracer


def end_to_end_metrics(raw_lat: list[float], lat: list[float], refs: list[float], workload,
                       setup: tuple[float, float]) -> dict:
    """End-to-end metrics from times at nominal machine speed; raw times are printed."""
    import numpy as np
    import speed

    def values(times, setup_s):
        return {
            "setup_s": setup_s,
            "ops_per_s": len(times) / sum(times),
            "latency_p50_ms": statistics.median(times) * 1e3,
            "latency_tail_ms": float(np.percentile(times, workload.tail_pct)) * 1e3,
            "peak_rss_mb": workload.peak_rss_mb(),
        }

    scaled, raw = values(lat, setup[0]), values(raw_lat, setup[1])
    print(f"{workload.name:16s} raw times: " + ", ".join(
        f"{name} {raw[name]:.6g}" for name, _ in END_TO_END if name != "peak_rss_mb")
        + f"; median {workload.reference} reference {statistics.median(refs) * 1e3:.3f} ms,"
        f" nominal {speed.NOMINAL_MS[workload.reference]} ms")
    return {name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(tracer, latencies: dict, size_sums: dict) -> dict:
    ops = len(latencies[True])
    totals = tracer.totals()

    def ms(span: str, own: bool = False) -> float:
        return totals.get(span, (0, 0))[1 if own else 0] / 1e6 / ops

    def mb_per_s(span: str) -> float:
        seconds = totals.get(span, (0, 0))[0] / 1e9
        return size_sums["scenario_bytes"] / 1e6 / seconds if seconds else 0.0

    values = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            values[name] = ms(name[: -len(".self_ms")], own=True)
        elif name.endswith(".ms"):
            values[name] = ms(name[: -len(".ms")])
        elif name.endswith(".calls"):
            values[name] = tracer.counts.get(name[: -len(".calls")], 0) / ops
        elif name.startswith("size."):
            values[name] = size_sums.get(name[len("size."):], 0.0) / ops
    values["scenario_io.parse_mb_per_s"] = mb_per_s("scenario_io.parse_scenario")
    values["scenario_io.serialize_mb_per_s"] = mb_per_s("scenario_io.serialize_scenario")
    values["cli.startup_ms"] = ms("cli.startup")
    values["cli.random_process_ms"] = ms("cli.random_process")
    values["cli.evaluate_process_ms"] = ms("cli.evaluate_process")
    values["cli.outside_run_cli_ms"] = ms("cli.random_process", own=True) + ms("cli.evaluate_process", own=True)
    untraced, traced = statistics.median(latencies[False]), statistics.median(latencies[True])
    values["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def environment() -> str:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, {blas['name']} "
            f"{blas['version']}, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, "
            f"{os.cpu_count()} CPUs")


def report(name: str, result: dict, workload, trace: bool) -> None:
    """Human-readable lines; the JSON result line comes last."""
    print(f"{name:16s} {environment()}")
    for metric, entry in result["metrics"].items():
        print(f"{name:16s} {metric:42s} {entry['value']:14.6g} {entry['unit']}")
    note = "" if trace else f"  (latency_tail_ms is p{workload.tail_pct})"
    print(f"{name:16s} attempted {result['attempted']}  failed {result['failed']}{note}")


def run_single(args) -> int:
    workload = make_workloads()[args.workload]
    if args.probe:
        run_probe(workload, args.seed)
        return 0
    import_qdt()  # a checkout without the package fails here, before any result
    import checks

    trace = bool(args.trace)
    tracer = None
    try:
        result, tracer = run_workload(workload, args.seed, args.seconds, trace)
    except checks.CheckFailed as exc:
        print(f"bench: output check failed on {workload.name}: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{int(trace)}"
    if tracer is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(tracer.to_doc()))
    line = json.dumps(result)
    (RESULTS / f"{stem}.json").write_text(line + "\n")
    report(workload.name, result, workload, trace)
    print(line)
    return 0 if result["correct"] and result["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    import_qdt()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in make_workloads():
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"bench: {name} printed no result", file=sys.stderr)
            return max(code, 1)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return code


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*make_workloads(), "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_single(args)


if __name__ == "__main__":
    sys.exit(main())
