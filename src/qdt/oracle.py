"""Brute-force verification path built on explicit dense operators.

Everything here is recomputed from scratch with literal matrix products:
rank-one prospect projectors, sandwiched conjunction operators, and the
off-diagonal interference double loop.  No intermediate result is shared
with the fast path in `measure`; independence is the point.  The cost
grows as N * K^5 for N prospects in dimension K (about 1.4 s per prospect
at K = 64), so `dense_evaluate` refuses spaces above `ORACLE_MAX_DIM`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, NumericalError
from .hilbert import MindSpace, build_prospect_state
from .measure import IDENTITY_TOL

if TYPE_CHECKING:
    from .scenario_io import Scenario

#: Largest space dimension `dense_evaluate` accepts.
ORACLE_MAX_DIM = 64


def _as_state(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    return v


def _basis_projector(dim: int, index: int) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    e[index, index] = 1.0
    return e


def dense_prospect_operator(prospect_state: np.ndarray) -> np.ndarray:
    """Rank-one probability operator: the outer product of the state with itself."""
    v = _as_state(prospect_state)
    return np.outer(v, v.conj())


def dense_conjunction_operator(prospect_state: np.ndarray, e_index: int) -> np.ndarray:
    """Basis projector sandwich around the prospect operator, as literal matmuls."""
    v = _as_state(prospect_state)
    dim = v.shape[0]
    if not 0 <= e_index < dim:
        raise DimensionError(f"basis index {e_index} out of range for dimension {dim}")
    e = _basis_projector(dim, e_index)
    return e @ dense_prospect_operator(v) @ e


def dense_expectation(op: np.ndarray, psi: np.ndarray) -> complex:
    """Expectation value of an operator under psi; real for Hermitian operators."""
    op = np.asarray(op, dtype=complex)
    c = _as_state(psi)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or op.shape[0] != c.shape[0]:
        raise DimensionError(f"operator shape {op.shape} does not match psi shape {c.shape}")
    return complex(c.conj() @ op @ c)


def dense_interference(prospect_state: np.ndarray, psi: np.ndarray) -> float:
    """Interference term by explicit double loop over distinct basis-projector pairs."""
    v = _as_state(prospect_state)
    c = _as_state(psi)
    if v.shape != c.shape:
        raise DimensionError(f"prospect state has shape {v.shape}, psi has shape {c.shape}")
    dim = v.shape[0]
    op = dense_prospect_operator(v)
    projectors = [_basis_projector(dim, a) for a in range(dim)]
    total = 0.0 + 0.0j
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            total += dense_expectation(projectors[a] @ op @ projectors[b], c)
    if abs(total.imag) >= IDENTITY_TOL:
        raise NumericalError(f"dense interference sum has imaginary residue {total.imag:.3e}")
    return total.real


def resolution_of_identity_check(prospect_states: list[np.ndarray]) -> float:
    """Max-entry deviation of the summed conjunction operators from the identity."""
    if not prospect_states:
        return 1.0
    dim = _as_state(prospect_states[0]).shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for state in prospect_states:
        for a in range(dim):
            acc += dense_conjunction_operator(state, a)
    return float(np.max(np.abs(acc - np.eye(dim))))


@dataclass(frozen=True)
class DenseEvaluation:
    """Oracle recomputation of every probabilistic quantity of a scenario."""

    names: tuple[str, ...]
    p: np.ndarray            # shape (N,)
    conjunction: np.ndarray  # shape (N, K)
    q: np.ndarray            # shape (N,)
    identity_residual: float


def dense_evaluate(scenario: "Scenario") -> DenseEvaluation:
    """Recompute p, conjunction probabilities, and q for every prospect from dense operators.

    Raises DimensionError above `ORACLE_MAX_DIM`, before any work.
    """
    space = MindSpace.from_factors(scenario.factors)
    if space.dimension > ORACLE_MAX_DIM:
        raise DimensionError(
            f"the dense oracle is limited to dimension {ORACLE_MAX_DIM}, "
            f"this scenario has dimension {space.dimension}"
        )
    psi = np.asarray(scenario.state_of_mind, dtype=complex)
    free = scenario.options.allow_free_support
    states = [build_prospect_state(spec, space, free) for spec in scenario.prospects]

    n, dim = len(states), space.dimension
    p = np.zeros(n)
    conjunction = np.zeros((n, dim))
    q = np.zeros(n)
    for i, state in enumerate(states):
        op = dense_prospect_operator(state)
        val = dense_expectation(op, psi)
        if abs(val.imag) >= IDENTITY_TOL:
            raise NumericalError(f"dense prospect probability has imaginary residue {val.imag:.3e}")
        p[i] = val.real
        for a in range(dim):
            cval = dense_expectation(dense_conjunction_operator(state, a), psi)
            if abs(cval.imag) >= IDENTITY_TOL:
                raise NumericalError(f"dense conjunction probability has imaginary residue {cval.imag:.3e}")
            conjunction[i, a] = cval.real
        q[i] = dense_interference(state, psi)

    return DenseEvaluation(
        names=tuple(s.name for s in scenario.prospects),
        p=p, conjunction=conjunction, q=q,
        identity_residual=resolution_of_identity_check(states),
    )
