"""Spans and counters recorded around calls into qdt's public functions.

The wrappers are installed at run time from the benchmark's own code: every
qdt module attribute that refers to a target function is replaced by a
wrapper and put back by `Tracer.uninstall`, so calls made through
``from .module import name`` bindings are seen too and no file of the
package changes.  Functions called once per amplitude entry or per row only
count their calls; a span around each of them would cost more than the work
it measures and keep millions of records in memory.

A span holds a name, a start and an end (``perf_counter_ns``), the span it
was opened under, and the operation id.  Spans stay in memory until the run
ends.  A span's self time is its duration minus that of its child spans;
spans nest as the program makes its calls, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

#: Public functions that get a span: (module, function).
SPAN_TARGETS = (
    ("algebra", "validate_prospect"),
    ("hilbert", "build_amplitude_matrix"),
    ("measure", "evaluate_all"),
    ("lattice", "rank_order"),
    ("lattice", "optimal_prospect"),
    ("oracle", "dense_evaluate"),
    ("oracle", "dense_interference"),
    ("oracle", "resolution_of_identity_check"),
    ("scenario_io", "random_strict_scenario"),
    ("scenario_io", "parse_scenario"),
    ("scenario_io", "serialize_scenario"),
    ("scenario_io", "build_report"),
    ("scenario_io", "report_json"),
    ("cli", "run_cli"),
)

#: Public functions whose calls are only counted.
COUNT_TARGETS = (
    ("algebra", "prospect_support"),
    ("hilbert", "basis_index"),
    ("measure", "interference_term"),
    ("oracle", "dense_expectation"),
)

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span and call-count store for one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        i = self._open(self._name_id(name))
        try:
            yield i
        finally:
            self._close(i)

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)

        def wrapped(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapped

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _plan(self) -> list[tuple[object, str, object, object]]:
        modules = [m for n, m in list(sys.modules.items()) if n == "qdt" or n.startswith("qdt.")]
        plan = []
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for module_name, fn_name in targets:
                module = sys.modules.get(f"qdt.{module_name}")
                if module is None:
                    continue
                original = getattr(module, fn_name)
                wrapper = make(f"{module_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            plan.append((m, attr, original, wrapper))
        return plan

    def install(self) -> None:
        """Replace every reference to a target function by its wrapper."""
        if self._patches is None:
            self._patches = self._plan()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches or ():
            setattr(module, attr, original)

    # -- merging and summarizing ------------------------------------------------

    def to_doc(self) -> dict:
        """All spans and counts as plain lists, for writing to a file."""
        return {
            "spans": [
                [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
                for i in range(len(self.start))
            ],
            "counts": self.counts,
        }

    def merge(self, doc: dict, parent: int) -> None:
        """Adopt the spans of a child process; its root spans hang under ``parent``."""
        base = len(self.start)
        for name, start, end, par, op in doc["spans"]:
            self.name.append(self._name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if par < 0 else base + par)
            self.op.append(op)
        for name, n in doc["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (summed duration, summed self time), in ns."""
        child_ns = [0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, tuple[int, int]] = {}
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            total, own = out.get(self.names[self.name[i]], (0, 0))
            out[self.names[self.name[i]]] = (total + dur, own + dur - child_ns[i])
        return out
