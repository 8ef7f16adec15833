"""Run one qdt CLI invocation with the benchmark's span wrappers installed.

    python3 bench/launch.py SPANS_OUT OP_ID <qdt arguments...>

Imports ``qdt.cli``, installs the wrappers of ``spans.py``, calls
``qdt.cli.run_cli`` with the remaining arguments, writes the spans and
call counts to SPANS_OUT as JSON, and exits with ``run_cli``'s code.
``qdt`` must be importable, for example through PYTHONPATH.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import qdt.cli

    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        return qdt.cli.run_cli(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_doc(), fh)


if __name__ == "__main__":
    sys.exit(main())
