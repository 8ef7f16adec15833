#!/usr/bin/env python3
"""Per-layer figures of the evaluate_square operation at K = N = 16, 64, 128 and 256.

    python3 bench/scaling.py [--seed N] [--seconds S]

Runs the traced evaluate_square operation (``run.py --trace 1``) at each
size and prints one markdown table with a row for every per-layer metric
that is non-zero at some size.
"""

from __future__ import annotations

import argparse
import os

import run

#: Modes per factor; three factors, as in the evaluate_square workload (4, 8, 4).
SIZES = ((2, 4, 2), (4, 4, 4), (4, 8, 4), (8, 4, 8))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = run.BLAS_THREADS

    columns = []
    for modes in SIZES:
        workload = run.InProcess("evaluate_square", 90, modes=modes)
        result, _ = run.run_workload(workload, args.seed, args.seconds, trace=True)
        columns.append(result["metrics"])

    ks = [int(c["size.k"]["value"]) for c in columns]
    print("| metric | unit | " + " | ".join(f"K = {k}" for k in ks) + " |")
    print("|---|---|" + "---:|" * len(ks))
    for name, unit in run.PER_LAYER:
        values = [c[name]["value"] for c in columns]
        if any(values):
            print(f"| `{name}` | {unit} | " + " | ".join(f"{v:.4g}" for v in values) + " |")


if __name__ == "__main__":
    main()
