"""Command-line interface.

Commands: ``validate``, ``evaluate``, ``rank`` (file or ``demo:<name>``),
``demo <name>``, and ``random`` (emit a seeded strict scenario).  Exit
codes: 0 success; 1 validation failure (``NormalizationError``) or a
non-finite or otherwise impossible number (``NumericalError``); 2 any
other error: parse, invalid scenario, usage, or a size beyond a limit
(``DimensionError``, e.g. ``--oracle`` above the oracle's dimension).
Every error is emitted as a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InvalidScenario, NormalizationError, NumericalError, ParseError, QdtError, UsageError
from .measure import IDENTITY_TOL, NORMALIZATION_MODES
from .scenario_io import (
    BUILTIN_NAMES,
    DecisionReport,
    Scenario,
    build_report,
    builtin_scenario,
    evaluate_scenario,
    parse_scenario,
    random_strict_scenario,
    report_csv,
    report_json,
    report_table,
    serialize_scenario,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line machine-readable usage errors
        raise UsageError(message)


def _error_line(exc: Exception) -> None:
    payload: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError) and exc.line is not None:
        payload["line"] = exc.line
        payload["column"] = exc.column
    if isinstance(exc, InvalidScenario) and exc.path:
        payload["path"] = exc.path
    if isinstance(exc, NormalizationError) and exc.residuals:
        payload["residuals"] = exc.residuals
    print(json.dumps(payload), file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdt", description="Evaluate quantum decision scenarios.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_eval_flags(p):
        p.add_argument("--tolerance", type=float, default=None, help="override the scenario tolerance")
        p.add_argument("--normalization", choices=NORMALIZATION_MODES, default=None,
                       help="override the normalization policy")
        p.add_argument("--format", choices=["table", "json", "csv"], default="table")
        p.add_argument("--oracle", action="store_true",
                       help="recompute everything with dense operators and cross-check")

    for name, help_text in (
        ("validate", "check a scenario's normalization conditions"),
        ("evaluate", "evaluate a scenario and emit the decision report"),
        ("rank", "evaluate and list prospects by descending probability"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario file path, or demo:<name>")
        add_eval_flags(p)

    p = sub.add_parser("demo", help="evaluate a built-in scenario")
    p.add_argument("name", choices=list(BUILTIN_NAMES))
    add_eval_flags(p)

    p = sub.add_parser("random", help="emit a seeded random strict scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--factors", type=int, default=2)
    p.add_argument("--modes", type=int, nargs="+", default=[2],
                   help="modes per factor (one value, or one per factor)")
    p.add_argument("--prospects", type=int, default=None)
    p.add_argument("--out", type=Path, default=None, help="write to a file instead of stdout")
    return parser


def _load_scenario(args) -> Scenario:
    ref = args.name if args.command == "demo" else args.scenario
    if args.command == "demo":
        scenario = builtin_scenario(ref)
    elif ref.startswith("demo:"):
        scenario = builtin_scenario(ref[len("demo:"):])
    else:
        try:
            text = Path(ref).read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read scenario {ref!r}: {exc}") from None
        scenario = parse_scenario(text)
    options = scenario.options
    if args.normalization is not None:
        options = replace(options, normalization=args.normalization)
    if args.tolerance is not None:
        if args.tolerance <= 0:
            raise UsageError("--tolerance must be positive")
        options = replace(options, tolerance=args.tolerance)
    return replace(scenario, options=options)


def _emit_report(report: DecisionReport, fmt: str, ranked: bool) -> None:
    if fmt == "json":
        sys.stdout.write(report_json(report, ranked=ranked))
    elif fmt == "csv":
        sys.stdout.write(report_csv(report, ranked=ranked))
    else:
        sys.stdout.write(report_table(report, ranked=ranked))


def _run_evaluation(args) -> int:
    scenario = _load_scenario(args)
    ranked = args.command == "rank"
    try:
        report = evaluate_scenario(scenario, with_oracle=args.oracle)
    except NormalizationError as exc:
        if exc.state is not None:
            _emit_report(build_report(scenario, exc.state), args.format, ranked)
        _error_line(exc)
        return 1
    _emit_report(report, args.format, ranked)
    if report.oracle_max_dev is not None and report.oracle_max_dev > IDENTITY_TOL:
        _error_line(NormalizationError(
            "dense-operator recomputation deviates from the fast path",
            {"oracle_max_dev": report.oracle_max_dev},
        ))
        return 1
    if (
        scenario.options.normalization == "strict"
        and "identity_residual" in report.checks
        and report.checks["identity_residual"] > scenario.options.tolerance
    ):
        _error_line(NormalizationError(
            "resolution of identity violated",
            {"identity_residual": report.checks["identity_residual"]},
        ))
        return 1
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "random":
            scenario = random_strict_scenario(
                seed=args.seed,
                num_factors=args.factors,
                modes_per_factor=args.modes[0] if len(args.modes) == 1 else list(args.modes),
                num_prospects=args.prospects,
            )
            text = serialize_scenario(scenario)
            if args.out is not None:
                args.out.write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(text)
            return 0
        return _run_evaluation(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code is not None else 0
    except (NormalizationError, NumericalError) as exc:
        _error_line(exc)
        return 1
    except QdtError as exc:
        _error_line(exc)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
