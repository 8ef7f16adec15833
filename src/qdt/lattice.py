"""Prospect ordering: indifference, preference, and attraction comparisons.

The ordering field is ``p_normalized`` when the renorm policy produced
one, ``p_raw`` otherwise; rescaling by the positive probability sum never
changes the argmax, and `optimal_prospect` checks that invariance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ProspectAttributes, ProspectSpec
from .errors import InvalidScenario, NumericalError, StateError
from .measure import ProbabilisticState

#: Exact algebra separates the preference criterion from presentation-level
#: ranking; ties tighter than this are reported as ties.
TIE_EPSILON = 1e-12


@dataclass(frozen=True)
class ProspectLattice:
    """Probability-ordered prospect set, bounded by the empty prospect."""

    prospects: tuple[ProspectSpec, ...]


@dataclass(frozen=True)
class OrderingRelation:
    relation: str  # "less" | "equal" | "greater"
    p_gap: float
    q_gap: float


@dataclass(frozen=True)
class AttractionCheck:
    """One declared-ordering constraint and whether the interference terms obey it."""

    more_repulsive: str
    less_repulsive: str
    reason: str
    q_more: float
    q_less: float
    ok: bool


@dataclass(frozen=True)
class AttractionReport:
    constraints: tuple[AttractionCheck, ...]
    skipped_pairs: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.constraints)


def _result(state: ProbabilisticState, name: str):
    try:
        return state[name]
    except KeyError:
        raise StateError(f"prospect {name!r} is not present in the evaluated state") from None


def compare(name1: str, name2: str, state: ProbabilisticState, tie_epsilon: float = TIE_EPSILON) -> OrderingRelation:
    """Order two evaluated prospects by probability."""
    r1, r2 = _result(state, name1), _result(state, name2)
    p_gap = state.active_p(r1) - state.active_p(r2)
    q_gap = r1.q - r2.q
    if p_gap > tie_epsilon:
        relation = "greater"
    elif p_gap < -tie_epsilon:
        relation = "less"
    else:
        relation = "equal"
    return OrderingRelation(relation=relation, p_gap=p_gap, q_gap=q_gap)


def rank_order(state: ProbabilisticState, tie_epsilon: float = TIE_EPSILON) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Names sorted by descending probability (declaration order breaks ties).

    Returns (ordered names, tie groups); a tie group lists 2+ prospects
    whose adjacent probabilities differ by at most ``tie_epsilon``.
    """
    order = sorted(range(len(state.results)), key=lambda i: (-state.active_p(state.results[i]), i))
    names = tuple(state.results[i].name for i in order)
    ties: list[tuple[str, ...]] = []
    group = [order[0]] if order else []
    for prev, cur in zip(order, order[1:]):
        close = abs(state.active_p(state.results[prev]) - state.active_p(state.results[cur])) <= tie_epsilon
        if close:
            group.append(cur)
        else:
            if len(group) > 1:
                ties.append(tuple(state.results[i].name for i in group))
            group = [cur]
    if len(group) > 1:
        ties.append(tuple(state.results[i].name for i in group))
    return names, tuple(ties)


def optimal_prospect(lattice: ProspectLattice, state: ProbabilisticState) -> str:
    """Name of the prospect attaining the supremum probability.

    Ties are broken by lowest declaration index; use `rank_order` to see
    the tie group.  The argmax is invariant under the renorm rescaling;
    a violation of that invariance raises NumericalError.
    """
    if not lattice.prospects:
        raise InvalidScenario("cannot pick an optimal prospect from an empty lattice")
    for spec in lattice.prospects:
        _result(state, spec.name)
    names, _ = rank_order(state, tie_epsilon=0.0)
    if state.ordering_field == "p_normalized":
        raw_best = max(range(len(state.results)), key=lambda i: (state.results[i].p_raw, -i))
        if state.results[raw_best].name != names[0]:
            raise NumericalError(
                f"argmax changed under positive rescaling: {state.results[raw_best].name!r} by p_raw, "
                f"{names[0]!r} by p_normalized"
            )
    return names[0]


def preference_criterion(name1: str, name2: str, state: ProbabilisticState) -> bool:
    """Preference via the decomposition: diagonal gap must exceed the interference gap.

    Returns True iff ``sum_a [p(pi1 e_a) - p(pi2 e_a)] > q(pi2) - q(pi1)``.
    The direct probability comparison is computed as well and the two are
    cross-asserted whenever the probability gap is resolvable (beyond
    1e-12); a disagreement there is analytically impossible.
    """
    r1, r2 = _result(state, name1), _result(state, name2)
    criterion = (r1.diag_sum - r2.diag_sum) > (r2.q - r1.q)
    direct = r1.p_raw > r2.p_raw
    if criterion != direct and abs(r1.p_raw - r2.p_raw) > TIE_EPSILON:
        raise NumericalError(
            f"preference criterion disagrees with direct comparison for {name1!r} vs {name2!r}"
        )
    return criterion


def attraction_compare(q1: float, q2: float, tie_epsilon: float = TIE_EPSILON) -> str:
    """Compare interference terms: lower q means more repulsive."""
    if q1 < q2 - tie_epsilon:
        return "more_repulsive"
    if q2 < q1 - tie_epsilon:
        return "less_repulsive"
    return "equal"


def _declared_more_repulsive(a1: ProspectAttributes, a2: ProspectAttributes) -> str | None:
    """Reason the first attribute set is ranked more repulsive, if any."""
    if a1.payoff_sign == "gain" and a2.payoff_sign == "gain" \
            and a1.certainty == "uncertain" and a2.certainty == "certain":
        return "more uncertain gain"
    if a1.payoff_sign == "loss" and a2.payoff_sign == "loss" \
            and a1.certainty == "certain" and a2.certainty == "uncertain":
        return "more certain loss"
    if a1.certainty == "uncertain" and a2.certainty == "uncertain" \
            and a1.activity == "active" and a2.activity == "passive":
        return "more active under uncertainty"
    if a1.certainty == "certain" and a2.certainty == "certain" \
            and a1.activity == "passive" and a2.activity == "active":
        return "more passive under certainty"
    return None


def check_attraction_consistency(lattice: ProspectLattice, state: ProbabilisticState) -> AttractionReport:
    """Check declared gain/certainty/activity orderings against interference terms.

    For every ordered pair whose attributes rank the first prospect more
    repulsive, the constraint ``q(first) < q(second)`` is evaluated.
    Attributes are user-declared inputs; no q magnitude is ever derived
    from them.  Pairs with missing attributes are skipped and listed.
    """
    constraints: list[AttractionCheck] = []
    skipped: list[tuple[str, str]] = []
    specs = lattice.prospects
    for i, s1 in enumerate(specs):
        for j, s2 in enumerate(specs):
            if i == j:
                continue
            if s1.attributes is None or s2.attributes is None:
                skipped.append((s1.name, s2.name))
                continue
            reason = _declared_more_repulsive(s1.attributes, s2.attributes)
            if reason is None:
                continue
            q1, q2 = _result(state, s1.name).q, _result(state, s2.name).q
            constraints.append(AttractionCheck(
                more_repulsive=s1.name, less_repulsive=s2.name, reason=reason,
                q_more=q1, q_less=q2, ok=q1 < q2,
            ))
    return AttractionReport(constraints=tuple(constraints), skipped_pairs=tuple(skipped))
