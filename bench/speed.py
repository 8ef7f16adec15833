"""Machine-speed references: fixed work timed between the operations of a run.

On a small shared machine the speed of a CPU drifts by tens of percent over
minutes while other tenants load the host, and operation times drift with
it.  The benchmark therefore times a fixed reference between operations
and scales each operation time by the reference's nominal time over the
mean of the reference times just before and just after the operation.  A
scaled time reads as the time the operation takes at the machine's nominal
speed.  A change to qdt moves operation times but not reference times, so
scaled times still compare two versions of the program; the raw times are
printed beside them.

Two references, because process start-up and interpreter work slow down
under different kinds of contention:

* ``cpu``: `reference_work` in the benchmark process, for in-process
  operations;
* ``process``: a fresh ``python -c "import numpy"`` process, for
  operations and set-up probes that start processes.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Median time of each reference on the machine the README describes, in ms.
NOMINAL_MS = {"cpu": 4.2, "process": 120.0}

_BLOCK = np.full((32, 32), 0.5 + 0.5j)


def reference_work() -> float:
    """Interpreter work of the kind qdt does per entry, plus small complex matmuls."""
    table: dict[tuple[int, int, int], complex] = {}
    for i in range(8000):
        key = (i % 7, i % 13, i % 17)
        table[key] = table.get(key, 0j) + complex(i, -i) * 0.5
    block = _BLOCK
    for _ in range(20):
        block = block @ block.conj().T / 32.0
    return abs(sum(table.values())) + float(abs(block[0, 0]))


def time_reference(kind: str) -> float:
    """Seconds taken by one run of the ``kind`` reference."""
    t0 = time.perf_counter()
    if kind == "cpu":
        reference_work()
    else:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def scale(t: float, before: float, after: float, kind: str) -> float:
    """``t`` at nominal speed, from the ``kind`` reference times just before and after it."""
    return t * NOMINAL_MS[kind] / 1e3 * 2.0 / (before + after)
