"""Output checks: the benchmark's own numpy recomputation of a qdt report.

Nothing here calls `qdt.hilbert` or `qdt.measure`.  The amplitude matrix M
(N x K) and the state of mind psi are rebuilt with the benchmark's own
row-major index, either from a `Scenario` object or from a scenario file
read with stdlib `json`, and then

    p    = |conj(M) @ psi|^2
    diag = |M|^2 @ |psi|^2
    q    = p - diag

are compared with the reported values.  Every check raises `CheckFailed`.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)

#: Largest oracle deviation a correct run may report.
ORACLE_MAX_DEV = 1e-12


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


class ProgramFailed(CheckFailed):
    """A qdt process reported a failure: a non-zero exit or output on stderr."""


def tolerance(k: int) -> float:
    """Absolute tolerance for quantities summed over K terms of size <= 1."""
    return 64.0 * k * EPS


def _strides(dims) -> np.ndarray:
    strides = np.ones(len(dims), dtype=np.int64)
    for j in range(len(dims) - 2, -1, -1):
        strides[j] = strides[j + 1] * dims[j + 1]
    return strides


def matrix_from_scenario(scenario) -> tuple[np.ndarray, np.ndarray]:
    """(M, psi) from a Scenario's factors, prospect amplitudes and state of mind."""
    dims = [len(f.modes) for f in scenario.factors]
    strides = _strides(dims)
    matrix = np.zeros((len(scenario.prospects), int(np.prod(dims))), dtype=complex)
    for i, spec in enumerate(scenario.prospects):
        keys = np.array(list(spec.amplitudes.keys()), dtype=np.int64).reshape(-1, len(dims))
        values = np.fromiter(spec.amplitudes.values(), dtype=complex, count=len(keys))
        matrix[i, keys @ strides] = values
    return matrix, np.array(scenario.state_of_mind, dtype=complex)


def matrix_from_document(doc: dict) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(M, psi, prospect names) from a parsed qdt-scenario-v1 document."""
    lookups = [{label: j for j, label in enumerate(f["modes"])} for f in doc["factors"]]
    dims = [len(f["modes"]) for f in doc["factors"]]
    strides = _strides(dims).tolist()
    matrix = np.zeros((len(doc["prospects"]), int(np.prod(dims))), dtype=complex)
    for i, prospect in enumerate(doc["prospects"]):
        for entry in prospect["amplitudes"]:
            index = sum(lookups[k][label] * strides[k] for k, label in enumerate(entry["modes"]))
            re, im = entry["amplitude"]
            matrix[i, index] = complex(re, im)
    psi = np.array([complex(re, im) for re, im in doc["state_of_mind"]], dtype=complex)
    return matrix, psi, [p["name"] for p in doc["prospects"]]


def reference(matrix: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, diag, q) for every row of M."""
    p = np.abs(matrix.conj() @ psi) ** 2
    diag = np.abs(matrix) ** 2 @ np.abs(psi) ** 2
    return p, diag, p - diag


def column_norm_deviation(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.sum(np.abs(matrix) ** 2, axis=0) - 1.0)))


def _fail(message: str) -> None:
    raise CheckFailed(message)


def check_report(report: dict, names: list[str], matrix: np.ndarray, psi: np.ndarray,
                 ranked: bool) -> None:
    """Check a parsed JSON report of a strict scenario against (M, psi).

    ``names`` lists the prospects in declaration order.  The report must
    hold every prospect once, match the numpy p, diag and q, satisfy the
    sum rules, rank the prospects as a permutation of 1..N with p_raw
    non-increasing along the ranking (listed in that order when
    ``ranked``), and name the first argmax as optimal.
    """
    n, k = matrix.shape
    tol = tolerance(k)
    entries = report["prospects"]
    by_name = {e["name"]: e for e in entries}
    if len(entries) != n or set(by_name) != set(names):
        _fail(f"report lists {len(entries)} prospects, scenario has {n}")

    p, diag, q = reference(matrix, psi)
    for i, name in enumerate(names):
        e = by_name[name]
        for field, want in (("p_raw", p[i]), ("diag_sum", diag[i]), ("q", q[i])):
            if not abs(e[field] - want) <= tol:
                _fail(f"{name}.{field} = {e[field]!r}, numpy gives {want!r} (tolerance {tol:.1e})")

    checks = report["checks"]
    if not abs(checks["sum_p"] - 1.0) <= tol:
        _fail(f"sum_p = {checks['sum_p']!r} on a strict scenario")
    if not abs(checks["sum_q"]) <= tol:
        _fail(f"sum_q = {checks['sum_q']!r} on a strict scenario")

    ranks = [e["rank"] for e in entries]
    if sorted(ranks) != list(range(1, n + 1)):
        _fail("ranks are not a permutation of 1..N")
    if ranked and ranks != list(range(1, n + 1)):
        _fail("ranked report is not listed in rank order")
    by_rank = sorted(entries, key=lambda e: e["rank"])
    for hi, lo in zip(by_rank, by_rank[1:]):
        if lo["p_raw"] > hi["p_raw"]:
            _fail(f"rank {lo['rank']} ({lo['name']}) has a larger p_raw than rank {hi['rank']}")

    best = max(by_name[name]["p_raw"] for name in names)
    first_argmax = next(name for name in names if by_name[name]["p_raw"] == best)
    if report["optimal"] != first_argmax:
        _fail(f"optimal is {report['optimal']!r}, the first argmax is {first_argmax!r}")


def check_oracle(oracle_max_dev: float | None, checks: dict, matrix: np.ndarray) -> None:
    """The oracle agrees with the fast path, and its identity residual with M."""
    if oracle_max_dev is None or not oracle_max_dev <= ORACLE_MAX_DEV:
        _fail(f"oracle_max_dev = {oracle_max_dev!r}, limit {ORACLE_MAX_DEV}")
    want = column_norm_deviation(matrix)
    got = checks.get("identity_residual")
    if got is None or not abs(got - want) <= tolerance(matrix.shape[1]):
        _fail(f"identity_residual = {got!r}, column-norm deviation of M is {want!r}")


def check_process(returncode: int, stderr: bytes, what: str) -> None:
    """A qdt process exited 0 and wrote nothing to stderr."""
    if returncode != 0 or stderr:
        detail = stderr.decode(errors="replace").strip()[:300]
        raise ProgramFailed(f"{what} exited {returncode}, stderr: {detail!r}")


def check_same_bytes(first: bytes, again: bytes, what: str) -> None:
    if first != again:
        _fail(f"{what} differs between two runs with the same seed")
