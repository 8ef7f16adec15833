"""Scenario files, built-in templates, random generation, and reports.

A scenario is a single JSON document:

    {
      "format": "qdt-scenario-v1",
      "factors": [{"label": "choice", "modes": ["m0", "m1"]}],
      "prospects": [
        {"name": "pi1",
         "mode_subsets": {"choice": ["m0", "m1"]},
         "amplitudes": [{"modes": ["m0"], "amplitude": [0.70710678118654757, 0]},
                        {"modes": ["m1"], "amplitude": [0.70710678118654757, 0]}],
         "attributes": {"payoff_sign": "gain", "certainty": "uncertain", "activity": "active"}}
      ],
      "state_of_mind": [[0.70710678118654757, 0], [0.70710678118654757, 0]],
      "options": {"normalization": "strict", "tolerance": 1e-10,
                  "allow_free_support": false, "oracle": false, "seed": null}
    }

All complex numbers are explicit (re, im) pairs; modes are referenced by
label; unknown keys are rejected.  Serialization is deterministic and
prints floats with 17 significant digits, so parse(serialize(s)) == s
exactly and repeated serializations are byte-identical.  The same format
is described by the JSON Schema shipped as ``scenario.schema.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any

import numpy as np

from .algebra import (
    ActionFactor,
    ElementaryProspect,
    ProspectAttributes,
    ProspectSpec,
    validate_prospect,
)
from .errors import InvalidScenario, NumericalError, ParseError, UsageError, ZeroNormError
from .hilbert import MindSpace, basis_index, build_product_state, normalize
from .lattice import (
    AttractionReport,
    ProspectLattice,
    check_attraction_consistency,
    optimal_prospect,
    rank_order,
)
from .measure import NORMALIZATION_MODES, ProbabilisticState, evaluate_all
from .oracle import dense_evaluate

FORMAT_MARKER = "qdt-scenario-v1"
BUILTIN_NAMES = ("h2", "disjunction", "register")

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ScenarioOptions:
    normalization: str = "strict"
    tolerance: float = 1e-10
    allow_free_support: bool = False
    oracle: bool = False
    seed: int | None = None


@dataclass(frozen=True)
class Scenario:
    """Factors, prospects, and a state of mind, plus evaluation options."""

    factors: tuple[ActionFactor, ...]
    prospects: tuple[ProspectSpec, ...]
    state_of_mind: tuple[complex, ...]
    options: ScenarioOptions = field(default_factory=ScenarioOptions)

    @property
    def dimension(self) -> int:
        return self.space().dimension

    def space(self) -> MindSpace:
        return MindSpace.from_factors(self.factors)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidScenario(f"unknown keys {sorted(unknown)}", path or "<root>")
    missing = required - set(obj)
    if missing:
        raise InvalidScenario(f"missing keys {sorted(missing)}", path or "<root>")


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidScenario("expected a nonempty string", path)
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidScenario("expected a number", path)
    out = float(value)
    if not math.isfinite(out):
        raise InvalidScenario("number must be finite", path)
    return out


def _as_complex(value: Any, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidScenario("expected an (re, im) pair", path)
    return complex(_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))


def _parse_factors(raw: Any) -> tuple[ActionFactor, ...]:
    if not isinstance(raw, list) or not raw:
        raise InvalidScenario("expected a nonempty list", "factors")
    factors = []
    seen = set()
    for i, item in enumerate(raw):
        path = f"factors[{i}]"
        if not isinstance(item, dict):
            raise InvalidScenario("expected an object", path)
        _check_keys(item, {"label", "modes"}, {"label", "modes"}, path)
        label = _as_str(item["label"], f"{path}.label")
        if label in seen:
            raise InvalidScenario(f"duplicate factor label {label!r}", f"{path}.label")
        seen.add(label)
        modes = item["modes"]
        if not isinstance(modes, list) or not modes:
            raise InvalidScenario("expected a nonempty list of mode labels", f"{path}.modes")
        mode_labels = [_as_str(m, f"{path}.modes[{j}]") for j, m in enumerate(modes)]
        if len(set(mode_labels)) != len(mode_labels):
            raise InvalidScenario("duplicate mode labels", f"{path}.modes")
        factors.append(ActionFactor.from_labels(i, label, mode_labels))
    return tuple(factors)


def _resolve_mode(factor: ActionFactor, label: Any, path: str) -> int:
    label = _as_str(label, path)
    for mode in factor.modes:
        if mode.label == label:
            return mode.mode_index
    raise InvalidScenario(f"unknown mode label {label!r} for factor {factor.label!r}", path)


def _parse_prospect(item: Any, factors: tuple[ActionFactor, ...], path: str) -> ProspectSpec:
    if not isinstance(item, dict):
        raise InvalidScenario("expected an object", path)
    _check_keys(item, {"name", "mode_subsets", "amplitudes", "attributes"},
                {"name", "mode_subsets", "amplitudes"}, path)
    name = _as_str(item["name"], f"{path}.name")

    raw_subsets = item["mode_subsets"]
    if not isinstance(raw_subsets, dict):
        raise InvalidScenario("expected an object mapping factor labels to mode labels", f"{path}.mode_subsets")
    by_label = {f.label: f for f in factors}
    unknown = set(raw_subsets) - set(by_label)
    if unknown:
        raise InvalidScenario(f"unknown factor labels {sorted(unknown)}", f"{path}.mode_subsets")
    subsets = []
    for factor in factors:
        spath = f"{path}.mode_subsets.{factor.label}"
        if factor.label not in raw_subsets:
            raise InvalidScenario(f"missing factor {factor.label!r}", f"{path}.mode_subsets")
        labels = raw_subsets[factor.label]
        if not isinstance(labels, list) or not labels:
            raise InvalidScenario("expected a nonempty list of mode labels", spath)
        indices = [_resolve_mode(factor, lab, f"{spath}[{j}]") for j, lab in enumerate(labels)]
        if len(set(indices)) != len(indices):
            raise InvalidScenario("duplicate mode labels", spath)
        subsets.append(tuple(sorted(indices)))

    raw_amps = item["amplitudes"]
    if not isinstance(raw_amps, list) or not raw_amps:
        raise InvalidScenario("expected a nonempty list of amplitude entries", f"{path}.amplitudes")
    amplitudes: dict[ElementaryProspect, complex] = {}
    for j, entry in enumerate(raw_amps):
        apath = f"{path}.amplitudes[{j}]"
        if not isinstance(entry, dict):
            raise InvalidScenario("expected an object", apath)
        _check_keys(entry, {"modes", "amplitude"}, {"modes", "amplitude"}, apath)
        labels = entry["modes"]
        if not isinstance(labels, list) or len(labels) != len(factors):
            raise InvalidScenario(f"expected one mode label per factor ({len(factors)})", f"{apath}.modes")
        key = tuple(
            _resolve_mode(factor, lab, f"{apath}.modes[{k}]")
            for k, (factor, lab) in enumerate(zip(factors, labels))
        )
        if key in amplitudes:
            raise InvalidScenario(f"duplicate amplitude entry for modes {list(labels)}", apath)
        amplitudes[key] = _as_complex(entry["amplitude"], f"{apath}.amplitude")

    attributes = None
    if "attributes" in item:
        rattr = item["attributes"]
        apath = f"{path}.attributes"
        if not isinstance(rattr, dict):
            raise InvalidScenario("expected an object", apath)
        _check_keys(rattr, {"payoff_sign", "certainty", "activity"},
                    {"payoff_sign", "certainty", "activity"}, apath)
        try:
            attributes = ProspectAttributes(
                payoff_sign=_as_str(rattr["payoff_sign"], f"{apath}.payoff_sign"),
                certainty=_as_str(rattr["certainty"], f"{apath}.certainty"),
                activity=_as_str(rattr["activity"], f"{apath}.activity"),
            )
        except InvalidScenario as exc:
            raise InvalidScenario(str(exc), apath) from None

    return ProspectSpec(name=name, mode_subsets=tuple(subsets), amplitudes=amplitudes, attributes=attributes)


def _parse_options(raw: Any) -> ScenarioOptions:
    if not isinstance(raw, dict):
        raise InvalidScenario("expected an object", "options")
    _check_keys(raw, {"normalization", "tolerance", "allow_free_support", "oracle", "seed"}, set(), "options")
    opts = ScenarioOptions()
    if "normalization" in raw:
        mode = _as_str(raw["normalization"], "options.normalization")
        if mode not in NORMALIZATION_MODES:
            raise InvalidScenario(f"unknown normalization mode {mode!r}", "options.normalization")
        opts = replace(opts, normalization=mode)
    if "tolerance" in raw:
        tol = _as_number(raw["tolerance"], "options.tolerance")
        if tol <= 0:
            raise InvalidScenario("tolerance must be positive", "options.tolerance")
        opts = replace(opts, tolerance=tol)
    for key in ("allow_free_support", "oracle"):
        if key in raw:
            if not isinstance(raw[key], bool):
                raise InvalidScenario("expected a boolean", f"options.{key}")
            opts = replace(opts, **{key: raw[key]})
    if "seed" in raw and raw["seed"] is not None:
        if isinstance(raw["seed"], bool) or not isinstance(raw["seed"], int) or raw["seed"] < 0:
            raise InvalidScenario("expected a nonnegative integer or null", "options.seed")
        opts = replace(opts, seed=raw["seed"])
    return opts


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse and validate a scenario document.

    Malformed syntax raises ParseError with line/column; semantic
    violations raise InvalidScenario (or SupportViolation) with the field
    path.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise InvalidScenario("scenario document must be a JSON object")
    _check_keys(doc, {"format", "factors", "prospects", "state_of_mind", "options"},
                {"factors", "prospects", "state_of_mind"}, "")
    if "format" in doc and doc["format"] != FORMAT_MARKER:
        raise InvalidScenario(f"unsupported format {doc['format']!r}, expected {FORMAT_MARKER!r}", "format")

    factors = _parse_factors(doc["factors"])
    options = _parse_options(doc.get("options", {}))

    raw_prospects = doc["prospects"]
    if not isinstance(raw_prospects, list) or not raw_prospects:
        raise InvalidScenario("expected a nonempty list", "prospects")
    prospects = []
    names = set()
    for i, item in enumerate(raw_prospects):
        spec = _parse_prospect(item, factors, f"prospects[{i}]")
        if spec.name in names:
            raise InvalidScenario(f"duplicate prospect name {spec.name!r}", f"prospects[{i}].name")
        names.add(spec.name)
        validate_prospect(spec, factors, options.allow_free_support)
        prospects.append(spec)

    raw_psi = doc["state_of_mind"]
    dim = MindSpace.from_factors(factors).dimension
    if not isinstance(raw_psi, list) or len(raw_psi) != dim:
        raise InvalidScenario(f"expected {dim} amplitude entries (space dimension)", "state_of_mind")
    psi = tuple(_as_complex(entry, f"state_of_mind[{i}]") for i, entry in enumerate(raw_psi))
    if all(z == 0 for z in psi):
        raise InvalidScenario("state of mind must not be the zero vector", "state_of_mind")

    return Scenario(factors=factors, prospects=tuple(prospects), state_of_mind=psi, options=options)


# ---------------------------------------------------------------------------
# serialization (deterministic, 17 significant digits)
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def _emit(value: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(_emit(v) for v in value) + "]"
        inner = ",\n".join(pad + "  " + _emit(v, indent + 1) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_emit(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _amplitude_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def scenario_document(scenario: Scenario) -> dict:
    """Plain-dict form of a scenario, keys and entries in canonical order."""
    space = scenario.space()
    factors_doc = [
        {"label": f.label, "modes": [m.label for m in f.modes]} for f in scenario.factors
    ]
    prospects_doc = []
    for spec in scenario.prospects:
        entry: dict[str, Any] = {"name": spec.name}
        entry["mode_subsets"] = {
            factor.label: [factor.modes[j].label for j in subset]
            for factor, subset in zip(scenario.factors, spec.mode_subsets)
        }
        keys = sorted(spec.amplitudes, key=lambda k: basis_index(k, space))
        entry["amplitudes"] = [
            {
                "modes": [scenario.factors[i].modes[j].label for i, j in enumerate(key)],
                "amplitude": _amplitude_pair(spec.amplitudes[key]),
            }
            for key in keys
        ]
        if spec.attributes is not None:
            entry["attributes"] = {
                "payoff_sign": spec.attributes.payoff_sign,
                "certainty": spec.attributes.certainty,
                "activity": spec.attributes.activity,
            }
        prospects_doc.append(entry)
    return {
        "format": FORMAT_MARKER,
        "factors": factors_doc,
        "prospects": prospects_doc,
        "state_of_mind": [_amplitude_pair(z) for z in scenario.state_of_mind],
        "options": {
            "normalization": scenario.options.normalization,
            "tolerance": scenario.options.tolerance,
            "allow_free_support": scenario.options.allow_free_support,
            "oracle": scenario.options.oracle,
            "seed": scenario.options.seed,
        },
    }


def serialize_scenario(scenario: Scenario) -> str:
    return _emit(scenario_document(scenario)) + "\n"


def scenario_schema() -> dict:
    """The JSON Schema describing the scenario format."""
    with resources.files("qdt").joinpath("scenario.schema.json").open("rb") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def _singleton_subsets(key: ElementaryProspect) -> tuple[tuple[int, ...], ...]:
    return tuple((j,) for j in key)


def _h2() -> Scenario:
    """Two-prospect superposition pair over one two-mode factor.

    The amplitude matrix is the 2x2 orthonormal superposition basis; with
    the state of mind aligned to the first prospect, the probabilities are
    (1, 0) while both diagonal sums are 1/2, so the interference terms are
    (+1/2, -1/2).
    """
    factor = ActionFactor.from_labels(0, "choice", ["m0", "m1"])
    r = _SQRT_HALF
    pi1 = ProspectSpec(name="pi1", mode_subsets=((0, 1),),
                       amplitudes={(0,): complex(r), (1,): complex(r)})
    pi2 = ProspectSpec(name="pi2", mode_subsets=((0, 1),),
                       amplitudes={(0,): complex(r), (1,): complex(-r)})
    return Scenario(factors=(factor,), prospects=(pi1, pi2),
                    state_of_mind=(complex(r), complex(r)))


def _disjunction(phase: float = 2.0 * math.pi / 3.0) -> Scenario:
    """Act-or-wait under an uncertain event, with an exposed phase.

    Both prospects have diagonal sum 1/2 (equal classical utility for any
    phase); the interference terms are (cos(phase)/2, -cos(phase)/2), so
    the phase alone decides the ranking.  The default phase of 2*pi/3
    makes acting under uncertainty the repulsive option, matching the
    declared activity attributes.
    """
    action = ActionFactor.from_labels(0, "action", ["act", "wait"])
    event = ActionFactor.from_labels(1, "event", ["win", "lose"])
    w = complex(math.cos(phase), math.sin(phase))
    act = ProspectSpec(
        name="act", mode_subsets=((0,), (0, 1)),
        amplitudes={(0, 0): complex(1.0), (0, 1): w},
        attributes=ProspectAttributes("gain", "uncertain", "active"),
    )
    wait = ProspectSpec(
        name="wait", mode_subsets=((1,), (0, 1)),
        amplitudes={(1, 0): complex(1.0), (1, 1): -w},
        attributes=ProspectAttributes("gain", "uncertain", "passive"),
    )
    psi = (complex(0.5), complex(0.5), complex(0.5), complex(0.5))
    return Scenario(factors=(action, event), prospects=(act, wait), state_of_mind=psi)


def _register(site_amplitudes: list[list[complex]] | None = None) -> Scenario:
    """Multimode register readout: a product state of mind over per-site modes.

    Each site contributes a superposition of its modes; the state of mind
    is their tensor product (site vectors are normalized individually).
    The prospects are the elementary readout patterns, so every prospect
    is simple and the probabilities are plain squared moduli.
    """
    if site_amplitudes is None:
        s = 1.0 / math.sqrt(5.0)
        site_amplitudes = [[0.8, 0.6], [complex(s), 2j * s]]
    if not site_amplitudes:
        raise UsageError("register needs at least one site")
    per_site = []
    for k, amps in enumerate(site_amplitudes):
        arr = np.asarray([complex(a) for a in amps], dtype=complex)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise UsageError(f"site {k} needs at least one mode amplitude")
        try:
            per_site.append(normalize(arr))
        except ZeroNormError:
            raise UsageError(f"site {k} amplitudes are all zero") from None
    factors = tuple(
        ActionFactor.from_labels(k, f"site{k + 1}", [f"m{j}" for j in range(len(arr))])
        for k, arr in enumerate(per_site)
    )
    psi = build_product_state(per_site)
    space = MindSpace.from_factors(factors)
    sep = "" if all(d <= 10 for d in space.factor_dims) else "_"
    prospects = tuple(
        ProspectSpec(name="e" + sep.join(str(j) for j in key),
                     mode_subsets=_singleton_subsets(key),
                     amplitudes={key: complex(1.0)})
        for key in space.basis
    )
    return Scenario(factors=factors, prospects=prospects,
                    state_of_mind=tuple(complex(z) for z in psi))


def builtin_scenario(name: str, **params) -> Scenario:
    """One of the shipped templates: ``h2``, ``disjunction``, or ``register``."""
    builders = {"h2": _h2, "disjunction": _disjunction, "register": _register}
    if name not in builders:
        raise UsageError(f"unknown built-in scenario {name!r}; expected one of {BUILTIN_NAMES}")
    return builders[name](**params)


# ---------------------------------------------------------------------------
# random strict scenarios
# ---------------------------------------------------------------------------

def random_strict_scenario(
    seed: int,
    num_factors: int = 2,
    modes_per_factor: int | list[int] | tuple[int, ...] = 2,
    num_prospects: int | None = None,
) -> Scenario:
    """Seeded random scenario whose amplitude matrix has orthonormal columns.

    Parameters
    ----------
    seed:
        Seed for the generator; the output is deterministic in it.
    num_factors, modes_per_factor:
        Shape of the mode grid; ``modes_per_factor`` may be a single count
        or one count per factor.
    num_prospects:
        Number of prospects (rows); defaults to the dimension and must be
        at least the dimension, otherwise orthonormal columns cannot exist.

    The matrix comes from a QR factorization of a seeded complex Gaussian
    matrix with the usual phase fix (columns scaled by the phases of the
    R diagonal), so its columns are orthonormal to machine precision and
    the probability sum equals one for every normalized state of mind.
    """
    if isinstance(modes_per_factor, int):
        dims = (modes_per_factor,) * num_factors
    else:
        dims = tuple(modes_per_factor)
        if len(dims) != num_factors:
            raise InvalidScenario(
                f"modes_per_factor has {len(dims)} entries, num_factors is {num_factors}"
            )
    if num_factors < 1 or any(d < 1 for d in dims):
        raise InvalidScenario("every factor needs at least one mode")
    dim = math.prod(dims)
    n = dim if num_prospects is None else num_prospects
    if n < dim:
        raise InvalidScenario(
            f"need at least {dim} prospects for orthonormal columns, got {n}"
        )

    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))) / math.sqrt(2.0)
    qmat, rmat = np.linalg.qr(g)
    diag = np.diagonal(rmat).copy()
    diag[diag == 0] = 1.0
    matrix = qmat * (diag / np.abs(diag))
    psi = normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))

    factors = tuple(
        ActionFactor.from_labels(k, f"f{k + 1}", [f"m{j}" for j in range(d)])
        for k, d in enumerate(dims)
    )
    basis = MindSpace.from_factors(factors).basis  # row-major: position i is basis index i
    full_subsets = tuple(tuple(range(d)) for d in dims)
    prospects = tuple(
        ProspectSpec(name=f"p{i + 1}", mode_subsets=full_subsets, amplitudes=dict(zip(basis, row)))
        for i, row in enumerate(matrix.tolist())
    )
    return Scenario(
        factors=factors, prospects=prospects,
        state_of_mind=tuple(complex(z) for z in psi),
        options=ScenarioOptions(seed=seed),
    )


# ---------------------------------------------------------------------------
# decision reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecisionReport:
    """Evaluated probabilities plus ranking, residual checks, and extras."""

    probabilistic_state: ProbabilisticState
    ranking: tuple[str, ...]
    optimal: str
    checks: dict[str, float]
    ties: tuple[tuple[str, ...], ...] = ()
    attraction_report: AttractionReport | None = None
    oracle_max_dev: float | None = None


def build_report(scenario: Scenario, state: ProbabilisticState, with_oracle: bool = False) -> DecisionReport:
    """Assemble a DecisionReport from an already-evaluated state."""
    lattice = ProspectLattice(prospects=scenario.prospects)
    ranking, ties = rank_order(state)
    optimal = optimal_prospect(lattice, state)
    # lattice bounds: nothing drops below the empty prospect, optimal attains the max
    if not all(r.p_raw >= 0.0 for r in state.results):
        raise NumericalError("a prospect probability lies below the empty prospect's zero")
    if state.active_p(state[optimal]) != max(state.active_p(r) for r in state.results):
        raise NumericalError(f"optimal prospect {optimal!r} does not attain the maximum probability")

    checks = {
        "sum_p": state.checks["sum_p"],
        "sum_q": state.checks["sum_q"],
        "column_norm_max_dev": state.checks["column_norm_max_dev"],
    }
    oracle_max_dev = None
    if with_oracle or scenario.options.oracle:
        dense = dense_evaluate(scenario)
        p_dev = max(abs(state[name].p_raw - dense.p[i]) for i, name in enumerate(dense.names))
        q_dev = max(abs(state[name].q - dense.q[i]) for i, name in enumerate(dense.names))
        c_dev = max(
            float(np.max(np.abs(np.asarray(state[name].conjunction) - dense.conjunction[i])))
            for i, name in enumerate(dense.names)
        )
        oracle_max_dev = max(p_dev, q_dev, c_dev)
        checks["identity_residual"] = dense.identity_residual
    checks["prop1_max_residual"] = state.checks["prop1_max_residual"]

    attraction = None
    if any(spec.attributes is not None for spec in scenario.prospects):
        attraction = check_attraction_consistency(lattice, state)

    return DecisionReport(
        probabilistic_state=state, ranking=ranking, optimal=optimal,
        checks=checks, ties=ties, attraction_report=attraction, oracle_max_dev=oracle_max_dev,
    )


def evaluate_scenario(scenario: Scenario, with_oracle: bool = False) -> DecisionReport:
    """Evaluate a scenario and assemble its report.

    Strict-mode normalization violations propagate as NormalizationError;
    the completed ProbabilisticState rides on the exception, so callers
    may still build a report from it via `build_report`.
    """
    state = evaluate_all(scenario)
    return build_report(scenario, state, with_oracle=with_oracle)


# ---------------------------------------------------------------------------
# report emitters
# ---------------------------------------------------------------------------

def _ordered_results(report: DecisionReport, ranked: bool):
    state = report.probabilistic_state
    if not ranked:
        return list(state.results)
    return [state[name] for name in report.ranking]


def report_json(report: DecisionReport, ranked: bool = False) -> str:
    """DecisionReport as JSON: prospects, checks, optimal; nothing else."""
    state = report.probabilistic_state
    rank_of = {name: i + 1 for i, name in enumerate(report.ranking)}
    prospects = []
    for r in _ordered_results(report, ranked):
        entry: dict[str, Any] = {
            "name": r.name, "p_raw": r.p_raw, "diag_sum": r.diag_sum, "q": r.q,
        }
        if r.p_normalized is not None:
            entry["p_normalized"] = r.p_normalized
        entry["rank"] = rank_of[r.name]
        prospects.append(entry)
    doc = {"prospects": prospects, "checks": report.checks, "optimal": report.optimal}
    return _emit(doc) + "\n"


def report_csv(report: DecisionReport, ranked: bool = False) -> str:
    rank_of = {name: i + 1 for i, name in enumerate(report.ranking)}
    lines = ["name,p_raw,diag_sum,q,p_normalized,rank"]
    for r in _ordered_results(report, ranked):
        p_norm = "" if r.p_normalized is None else _fmt_float(r.p_normalized)
        lines.append(",".join([
            r.name, _fmt_float(r.p_raw), _fmt_float(r.diag_sum), _fmt_float(r.q),
            p_norm, str(rank_of[r.name]),
        ]))
    return "\n".join(lines) + "\n"


def _fmt_cell(x: float) -> str:
    return format(x, ".12g")


def report_table(report: DecisionReport, ranked: bool = False) -> str:
    state = report.probabilistic_state
    rank_of = {name: i + 1 for i, name in enumerate(report.ranking)}
    show_norm = any(r.p_normalized is not None for r in state.results)
    header = ["prospect", "p_raw", "diag_sum", "q"] + (["p_normalized"] if show_norm else []) + ["rank"]
    rows = [header]
    for r in _ordered_results(report, ranked):
        row = [r.name, _fmt_cell(r.p_raw), _fmt_cell(r.diag_sum), _fmt_cell(r.q)]
        if show_norm:
            row.append(_fmt_cell(r.p_normalized if r.p_normalized is not None else float("nan")))
        row.append(str(rank_of[r.name]))
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    out.append("")
    out.append("checks")
    for key, value in report.checks.items():
        out.append(f"  {key:<21} {_fmt_cell(value)}")
    out.append(f"optimal: {report.optimal}  (ordered by {state.ordering_field})")
    for group in report.ties:
        out.append(f"tie: {' = '.join(group)}")
    if report.attraction_report is not None:
        out.append("")
        out.append("attraction checks")
        if not report.attraction_report.constraints:
            out.append("  no attribute-ordered pairs")
        for c in report.attraction_report.constraints:
            verdict = "PASS" if c.ok else "FAIL"
            out.append(
                f"  {c.more_repulsive} < {c.less_repulsive} ({c.reason}): "
                f"q {_fmt_cell(c.q_more)} vs {_fmt_cell(c.q_less)}  {verdict}"
            )
        if report.attraction_report.skipped_pairs:
            pairs = ", ".join(f"{a}/{b}" for a, b in report.attraction_report.skipped_pairs)
            out.append(f"  skipped (missing attributes): {pairs}")
    return "\n".join(out) + "\n"
