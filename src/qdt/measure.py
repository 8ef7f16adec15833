"""Probability-operator measure over prospect states.

For a prospect with amplitude row ``b`` and a state of mind ``c`` (both over
the elementary-prospect basis), the three quantities of interest are

* prospect probability    ``p = |sum_a conj(b_a) c_a|^2``
* conjunction probability ``p_a = |b_a|^2 |c_a|^2`` (the classical, diagonal part)
* interference term       ``q = sum_{a != b} conj(c_a) b_a conj(b_b) c_b``

``evaluate_all`` computes all three for every row of the N x K amplitude
matrix at once, with array operations.  ``q`` comes from the off-diagonal
sum grouped by row, ``sum_a conj(v_a) (S - v_a)`` with ``v = conj(b) c`` and
``S = sum_a v_a``.  That grouped form equals ``|S|^2 - sum_a |v_a|^2``
algebraically, so ``p = sum_a p_a + q`` holds by construction and the
``prop1_max_residual`` check measures rounding only: it cannot catch a
defect in how ``b`` or ``c`` was built.  The independent check is the dense
operator oracle in `qdt.oracle`.

Three normalization policies mediate the two normalization conditions the
theory imposes (unit probability sum over the lattice, and unit column
norms of the amplitude matrix, which is the diagonal form of the
resolution of identity):

* ``strict``  - assert both conditions for the scenario's state of mind;
* ``given``   - compute everything, report residuals, never fail;
* ``renorm``  - additionally report probabilities divided by their sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, NormalizationError, NumericalError
from .hilbert import MindSpace, build_amplitude_matrix, check_state_of_mind

if TYPE_CHECKING:
    from .scenario_io import Scenario

#: Algebraic identities are checked at this tolerance; user input at the
#: (larger, configurable) policy tolerance.
IDENTITY_TOL = 1e-12

#: The normalization policies, by name.
NORMALIZATION_MODES = ("strict", "given", "renorm")


@dataclass(frozen=True)
class NormalizationPolicy:
    """Which normalization conditions to enforce, and how tightly."""

    mode: str = "strict"
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.mode not in NORMALIZATION_MODES:
            raise NormalizationError(
                f"unknown normalization mode {self.mode!r}; expected one of {NORMALIZATION_MODES}"
            )
        if not self.tolerance > 0:
            raise NormalizationError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class ProspectResult:
    """Evaluated quantities for one prospect."""

    name: str
    p_raw: float
    diag_sum: float
    q: float
    conjunction: tuple[float, ...]
    p_normalized: float | None = None


@dataclass(frozen=True)
class ProbabilisticState:
    """All prospect probabilities, diagonal sums, and interference terms."""

    results: tuple[ProspectResult, ...]
    checks: dict[str, float]
    policy: NormalizationPolicy
    ordering_field: str

    @cached_property
    def _by_name(self) -> dict[str, ProspectResult]:
        # reversed, so that a repeated name maps to its first result
        return {r.name: r for r in reversed(self.results)}

    def __getitem__(self, name: str) -> ProspectResult:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.results)

    def active_p(self, result: ProspectResult) -> float:
        """Probability in the field that orders the lattice."""
        if self.ordering_field == "p_normalized":
            if result.p_normalized is None:
                raise NumericalError(f"prospect {result.name!r} has no p_normalized to order by")
            return result.p_normalized
        return result.p_raw


def prospect_probability(prospect_state: np.ndarray, psi: np.ndarray, tolerance: float = 1e-10) -> float:
    """Squared modulus of the transition amplitude between prospect state and psi."""
    b = np.asarray(prospect_state, dtype=complex)
    c = np.asarray(psi, dtype=complex)
    if b.shape != c.shape or b.ndim != 1:
        raise DimensionError(f"prospect state has shape {b.shape}, psi has shape {c.shape}")
    dev = abs(float(np.sum(np.abs(c) ** 2)) - 1.0)
    if dev > tolerance:
        raise NormalizationError("psi is not normalized", {"psi_norm_dev": dev})
    return float(abs(np.vdot(b, c)) ** 2)


def conjunction_probability(b: complex, c: complex) -> float:
    """Diagonal (classical) probability of selecting one elementary prospect."""
    return float(abs(b) ** 2 * abs(c) ** 2)


def _off_diagonal(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # sum_{a != b} u_a v_b along the last axis, grouped as sum_a u_a (S - v_a)
    # with S = sum_b v_b, so it costs O(K) per row.
    return np.sum(u * (np.sum(v, axis=-1, keepdims=True) - v), axis=-1)


def _imaginary_residue_rows(qc: np.ndarray, v: np.ndarray, imag_tolerance: float) -> np.ndarray:
    """Indices of the rows whose interference sum fails the imaginary-residue gate.

    The terms of the sum come in conjugate pairs, so the exact sum is real
    and its imaginary part is rounding, which scales with the summed term
    moduli ``(sum_a |v_a|)^2``.  The gate is ``imag_tolerance`` times that
    bound, and never less than ``imag_tolerance``; a NaN residue fails it.
    """
    bound = imag_tolerance * np.maximum(1.0, np.sum(np.abs(v), axis=-1) ** 2)
    return np.flatnonzero(~(np.abs(qc.imag) < bound))


def interference_term(
    prospect_state: np.ndarray,
    psi: np.ndarray,
    imag_tolerance: float = IDENTITY_TOL,
) -> float:
    """Off-diagonal double sum capturing attraction/repulsion bias.

    The sum is analytically real (terms come in conjugate pairs); an
    imaginary residue at or above ``imag_tolerance`` times the summed term
    moduli (at least ``imag_tolerance``) signals a code defect and raises
    NumericalError.
    """
    b = np.asarray(prospect_state, dtype=complex)
    c = np.asarray(psi, dtype=complex)
    if b.shape != c.shape or b.ndim != 1:
        raise DimensionError(f"prospect state has shape {b.shape}, psi has shape {c.shape}")
    v = np.conj(b) * c
    qc = _off_diagonal(np.conj(c) * b, v)
    if _imaginary_residue_rows(qc, v, imag_tolerance).size:
        raise NumericalError(f"interference sum has imaginary residue {qc.imag:.3e}")
    return float(qc.real)


def decompose(prospect_state: np.ndarray, psi: np.ndarray) -> tuple[float, float]:
    """Split a prospect's probability into (diagonal sum, interference term)."""
    q = interference_term(prospect_state, psi)  # checks the shapes
    b = np.asarray(prospect_state, dtype=complex)
    c = np.asarray(psi, dtype=complex)
    return float(np.sum(np.abs(b) ** 2 * np.abs(c) ** 2)), q


def column_norm_deviation(matrix: np.ndarray) -> float:
    """Max deviation of squared column norms from one."""
    if matrix.size == 0:
        return 1.0
    return float(np.max(np.abs(np.sum(np.abs(matrix) ** 2, axis=0) - 1.0)))


def gram_deviation(matrix: np.ndarray) -> float:
    """Max entrywise deviation of the column Gram matrix from the identity."""
    k = matrix.shape[1]
    gram = matrix.conj().T @ matrix
    return float(np.max(np.abs(gram - np.eye(k))))


def evaluate_all(scenario: "Scenario") -> ProbabilisticState:
    """Evaluate every prospect of a scenario under its normalization policy.

    Always computes raw probabilities, diagonal sums, interference terms,
    and the residual checks.  In strict mode, a NormalizationError is
    raised when the probability sum or the column norms are off by more
    than the policy tolerance; the completed state rides along on the
    exception so callers can still report it.
    """
    policy = NormalizationPolicy(scenario.options.normalization, scenario.options.tolerance)
    space = MindSpace.from_factors(scenario.factors)
    psi = check_state_of_mind(np.asarray(scenario.state_of_mind, dtype=complex), space, policy.tolerance)
    matrix = build_amplitude_matrix(
        scenario.prospects, space, factors=scenario.factors,
        allow_free_support=scenario.options.allow_free_support,
    )

    names = [spec.name for spec in scenario.prospects]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are rejected here
        v = matrix.conj() * psi
        qc = _off_diagonal(np.conj(psi) * matrix, v)
        conjunction = np.abs(matrix) ** 2 * np.abs(psi) ** 2
        diag = np.sum(conjunction, axis=1)
        p = np.abs(np.vecdot(matrix, psi)) ** 2
        bad = np.flatnonzero(~(np.isfinite(p) & np.isfinite(diag) & np.isfinite(qc)))
        if bad.size:
            i = bad[0]
            raise NumericalError(
                f"prospect {names[i]!r} has a non-finite result: "
                f"p_raw={float(p[i])}, diag_sum={float(diag[i])}, q={complex(qc[i])}"
            )
        bad = _imaginary_residue_rows(qc, v, IDENTITY_TOL)
        if bad.size:
            i = bad[0]
            raise NumericalError(
                f"interference sum of prospect {names[i]!r} has imaginary residue {qc.imag[i]:.3e}"
            )
    q = qc.real

    p_raw, diag_sum, q_list = p.tolist(), diag.tolist(), q.tolist()
    sum_p = float(sum(p_raw))
    sum_q = float(sum(q_list))
    col_dev = column_norm_deviation(matrix)
    checks = {
        "sum_p": sum_p,
        "sum_q": sum_q,
        "column_norm_max_dev": col_dev,
        "prop1_max_residual": float(np.max(np.abs(p - diag - q), initial=0.0)),
    }

    ordering_field = "p_raw"
    p_normalized = [None] * len(names)
    if policy.mode == "renorm":
        if sum_p <= 0.0:
            raise NormalizationError("probabilities sum to zero; cannot renormalize", {"sum_p": sum_p})
        p_normalized = [x / sum_p for x in p_raw]
        ordering_field = "p_normalized"
    rows = zip(names, p_raw, diag_sum, q_list, conjunction.tolist(), p_normalized)
    results = [
        ProspectResult(name=name, p_raw=pr, diag_sum=d, q=qv, conjunction=tuple(row), p_normalized=pn)
        for name, pr, d, qv, row, pn in rows
    ]

    state = ProbabilisticState(
        results=tuple(results), checks=checks, policy=policy, ordering_field=ordering_field,
    )

    if policy.mode == "strict":
        violations = {}
        if abs(sum_p - 1.0) > policy.tolerance:
            violations["sum_p_dev"] = abs(sum_p - 1.0)
        if col_dev > policy.tolerance:
            violations["column_norm_max_dev"] = col_dev
        if violations:
            raise NormalizationError("strict normalization violated", violations, state=state)
    return state
