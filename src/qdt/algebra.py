"""Action-ring combinatorics: factors, modes, elementary prospects.

An intended action is split into disjoint modes; a decision scenario is a
conjunction of several such actions (the "factors").  An elementary
prospect picks exactly one mode per factor and is represented throughout
the package as a plain tuple of mode indices, one entry per factor, in
factor order.  Elementary prospects are enumerated row-major (last factor
varies fastest) and that order fixes the basis indexing used everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InvalidScenario, SupportViolation

# One mode index per factor, in factor order.
ElementaryProspect = tuple[int, ...]


class EmptyAction:
    """Zero element of the action ring; absorbing under the product."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EmptyAction"


#: The distinguished zero element (a singleton, not a tuple).
EMPTY_ACTION = EmptyAction()


@dataclass(frozen=True)
class ActionMode:
    """One disjoint branch of an action factor."""

    factor_index: int
    mode_index: int
    label: str


@dataclass(frozen=True)
class ActionFactor:
    """An action together with its ordered modes."""

    index: int
    label: str
    modes: tuple[ActionMode, ...]

    def __post_init__(self):
        if len(self.modes) < 1:
            raise InvalidScenario(f"factor {self.label!r} has no modes")
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise InvalidScenario(f"factor {self.label!r} has duplicate mode labels")
        for j, mode in enumerate(self.modes):
            if mode.factor_index != self.index or mode.mode_index != j:
                raise InvalidScenario(
                    f"factor {self.label!r}: mode {mode.label!r} carries indices "
                    f"({mode.factor_index}, {mode.mode_index}), expected ({self.index}, {j})"
                )

    @classmethod
    def from_labels(cls, index: int, label: str, mode_labels: list[str] | tuple[str, ...]) -> "ActionFactor":
        modes = tuple(ActionMode(index, j, m) for j, m in enumerate(mode_labels))
        return cls(index=index, label=label, modes=modes)

    @property
    def num_modes(self) -> int:
        return len(self.modes)

    @property
    def is_composite(self) -> bool:
        return len(self.modes) > 1


@dataclass(frozen=True)
class ProspectAttributes:
    """Qualitative gain/certainty/activity classification of a prospect."""

    payoff_sign: str
    certainty: str
    activity: str

    _PAYOFF = ("gain", "loss", "neutral")
    _CERTAINTY = ("certain", "uncertain")
    _ACTIVITY = ("active", "passive", "neutral")

    def __post_init__(self):
        if self.payoff_sign not in self._PAYOFF:
            raise InvalidScenario(f"payoff_sign must be one of {self._PAYOFF}, got {self.payoff_sign!r}")
        if self.certainty not in self._CERTAINTY:
            raise InvalidScenario(f"certainty must be one of {self._CERTAINTY}, got {self.certainty!r}")
        if self.activity not in self._ACTIVITY:
            raise InvalidScenario(f"activity must be one of {self._ACTIVITY}, got {self.activity!r}")


@dataclass(frozen=True)
class ProspectSpec:
    """A prospect: per-factor mode subsets plus complex amplitudes on its support.

    ``mode_subsets`` holds one sorted tuple of mode indices per factor;
    ``amplitudes`` maps elementary prospects (multi-index tuples) to complex
    amplitudes.  The amplitudes dict is treated as immutable after
    construction.
    """

    name: str
    mode_subsets: tuple[tuple[int, ...], ...]
    amplitudes: dict[ElementaryProspect, complex] = field(default_factory=dict)
    attributes: ProspectAttributes | None = None

    @property
    def is_empty(self) -> bool:
        return not self.mode_subsets and not self.amplitudes


#: Minimal element of every prospect lattice; its state is the vacuum.
EMPTY_PROSPECT = ProspectSpec(name="0", mode_subsets=(), amplitudes={})


def enumerate_elementary(factors: list[ActionFactor] | tuple[ActionFactor, ...]) -> list[ElementaryProspect]:
    """All mode-index tuples, row-major (last factor varies fastest)."""
    if not factors:
        raise InvalidScenario("a scenario needs at least one factor")
    return list(itertools.product(*(range(f.num_modes) for f in factors)))


def ring_product(a: ElementaryProspect, b: ElementaryProspect) -> ElementaryProspect | EmptyAction:
    """Ring product of two elementary prospects: idempotent, zero off-diagonal."""
    if len(a) != len(b):
        raise InvalidScenario(f"elementary prospects over {len(a)} and {len(b)} factors cannot be multiplied")
    return a if a == b else EMPTY_ACTION


def prospect_support(spec: ProspectSpec) -> set[ElementaryProspect]:
    """Cartesian product of the prospect's mode subsets.

    Raises SupportViolation if any amplitude key falls outside the product.
    """
    if spec.is_empty:
        return set()
    support = set(itertools.product(*spec.mode_subsets))
    stray = set(spec.amplitudes) - support
    if stray:
        raise SupportViolation(
            f"prospect {spec.name!r} assigns amplitudes outside its declared support: "
            f"{sorted(stray)}"
        )
    return support


def is_composite(spec: ProspectSpec) -> bool:
    """True iff some chosen mode subset has more than one mode."""
    return any(len(subset) > 1 for subset in spec.mode_subsets)


def check_mode_subsets(spec: ProspectSpec, factors: tuple[ActionFactor, ...]) -> None:
    """Check that a prospect picks one nonempty subset of existing modes per factor.

    A mode is an integral number in range; ``0.0`` names mode 0.
    """
    if spec.is_empty:
        return
    if len(spec.mode_subsets) != len(factors):
        raise InvalidScenario(
            f"prospect {spec.name!r} declares subsets for {len(spec.mode_subsets)} factors, "
            f"scenario has {len(factors)}"
        )
    for subset, factor in zip(spec.mode_subsets, factors):
        if not subset:
            raise InvalidScenario(f"prospect {spec.name!r} has an empty mode subset for factor {factor.label!r}")
        for j in subset:
            if not 0 <= j < factor.num_modes:
                raise InvalidScenario(
                    f"prospect {spec.name!r} references mode {j} of factor {factor.label!r} "
                    f"which has {factor.num_modes} modes"
                )
            if j != int(j):
                raise InvalidScenario(
                    f"prospect {spec.name!r} references mode {j} of factor {factor.label!r}, "
                    f"which is not an integer"
                )


def validate_prospect(
    spec: ProspectSpec,
    factors: tuple[ActionFactor, ...],
    allow_free_support: bool = False,
) -> None:
    """Check a prospect against its factors.

    The mode subsets must pass `check_mode_subsets`; amplitude keys must
    name an existing mode of every factor and, unless
    ``allow_free_support`` is set, lie in the Cartesian product of the
    mode subsets.
    """
    if spec.is_empty:
        return
    check_mode_subsets(spec, factors)
    for key in spec.amplitudes:
        if len(key) != len(factors):
            raise SupportViolation(
                f"prospect {spec.name!r} amplitude key {key} has {len(key)} entries, "
                f"expected {len(factors)}"
            )
        for k, j in enumerate(key):
            if not 0 <= j < factors[k].num_modes:
                raise SupportViolation(
                    f"prospect {spec.name!r} amplitude key {key} is out of range for factor "
                    f"{factors[k].label!r}"
                )
    if not allow_free_support:
        prospect_support(spec)

