"""Mind space: the tensor product of per-factor mode spaces.

State vectors live in a dense complex array of length ``prod(factor_dims)``
indexed row-major by elementary prospect.  Vectors are plain numpy arrays;
``MindSpace`` carries the factor dimensions and the basis bookkeeping.
Prospect states are not auto-normalized; normalization policy is applied
by the measure layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .algebra import (
    ActionFactor, ElementaryProspect, ProspectSpec, check_mode_subsets, prospect_support, validate_prospect,
)
from .errors import DimensionError, InvalidScenario, NormalizationError, NumericalError, ZeroNormError

#: Tolerance used by `normalize` on its own output.
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class MindSpace:
    """Tensor-product space over the given per-factor mode counts."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        if not self.factor_dims or any(d < 1 for d in self.factor_dims):
            raise DimensionError(f"factor dimensions must all be >= 1, got {self.factor_dims}")

    @classmethod
    def from_factors(cls, factors: list[ActionFactor] | tuple[ActionFactor, ...]) -> "MindSpace":
        return cls(factor_dims=tuple(f.num_modes for f in factors))

    @property
    def dimension(self) -> int:
        return math.prod(self.factor_dims)

    @cached_property
    def basis(self) -> tuple[ElementaryProspect, ...]:
        """All elementary prospects, row-major (matches basis indexing)."""
        return tuple(itertools.product(*(range(d) for d in self.factor_dims)))

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = []
        acc = 1
        for d in reversed(self.factor_dims):
            strides.append(acc)
            acc *= d
        return tuple(reversed(strides))


def basis_index(e: ElementaryProspect, space: MindSpace) -> int:
    """Row-major linear index of an elementary prospect."""
    if len(e) != len(space.factor_dims):
        raise IndexError(f"multi-index {e} has {len(e)} entries, space has {len(space.factor_dims)} factors")
    for j, d in zip(e, space.factor_dims):
        if not 0 <= j < d:
            raise IndexError(f"multi-index {e} out of range for factor dims {space.factor_dims}")
    return sum(j * s for j, s in zip(e, space._strides))


def basis_unindex(i: int, space: MindSpace) -> ElementaryProspect:
    """Inverse of `basis_index`."""
    if not 0 <= i < space.dimension:
        raise IndexError(f"basis index {i} out of range for dimension {space.dimension}")
    out = []
    for s in space._strides:
        out.append(i // s)
        i %= s
    return tuple(out)


def vacuum_state(space: MindSpace) -> np.ndarray:
    """The all-zeros vector (state of the empty prospect)."""
    return np.zeros(space.dimension, dtype=complex)


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Scalar product, conjugate-linear in the first argument."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionError(f"inner product needs equal-length vectors, got {u.shape} and {v.shape}")
    return complex(np.vdot(u, v))


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit norm; direction is preserved."""
    v = np.asarray(v, dtype=complex)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ZeroNormError("cannot normalize the zero vector")
    out = v / n
    dev = abs(np.linalg.norm(out) - 1.0)
    if not dev < UNIT_NORM_TOL:
        raise NumericalError(f"normalized vector has norm deviation {dev:.3e}")
    return out


def check_state_of_mind(c: np.ndarray, space: MindSpace, tolerance: float = 1e-10) -> np.ndarray:
    """Validate a state-of-mind vector: right dimension, unit norm within tolerance."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1 or c.shape[0] != space.dimension:
        raise DimensionError(f"state of mind has shape {c.shape}, space dimension is {space.dimension}")
    dev = abs(float(np.sum(np.abs(c) ** 2)) - 1.0)
    if dev > tolerance:
        raise NormalizationError("state of mind is not normalized", {"psi_norm_dev": dev})
    return c


def build_prospect_state(
    spec: ProspectSpec,
    space: MindSpace,
    allow_free_support: bool = False,
) -> np.ndarray:
    """Amplitude vector of a prospect: its amplitudes on support, zero elsewhere."""
    state = vacuum_state(space)
    if spec.is_empty:
        return state
    if not allow_free_support:
        prospect_support(spec)
    for key, amp in spec.amplitudes.items():
        state[basis_index(key, space)] = amp
    return state


def build_product_state(per_factor: list[np.ndarray]) -> np.ndarray:
    """Tensor product of per-factor amplitude arrays.

    The amplitude at multi-index alpha is the product of the per-factor
    entries; row-major ordering is inherited from the Kronecker product.
    """
    if not per_factor:
        raise DimensionError("product state needs at least one factor array")
    arrays = []
    for k, a in enumerate(per_factor):
        a = np.asarray(a, dtype=complex)
        if a.ndim != 1 or a.shape[0] < 1:
            raise DimensionError(f"factor array {k} must be a nonempty 1-d array, got shape {a.shape}")
        arrays.append(a)
    return reduce(np.kron, arrays)


def _supported(specs: tuple[ProspectSpec, ...], rows: np.ndarray, cols: np.ndarray, space: MindSpace) -> bool:
    """Whether every amplitude key lies in the product of its prospect's mode subsets.

    ``rows`` and ``cols`` give each key's prospect and basis index.  One
    (N, modes) mask per factor marks the declared subsets; subset modes
    that no key can match (out of range, not integral, or of a prospect
    with another number of subsets) are left out of it.
    """
    dims = space.factor_dims
    subsets = [s.mode_subsets if len(s.mode_subsets) == len(dims) else ((),) * len(dims) for s in specs]
    for k, (d, stride) in enumerate(zip(dims, space._strides)):
        sizes = [len(s[k]) for s in subsets]
        owners = np.repeat(np.arange(len(specs)), sizes)
        modes = np.fromiter(itertools.chain.from_iterable(s[k] for s in subsets), float, sum(sizes))
        keep = (modes >= 0) & (modes < d) & (modes % 1 == 0)
        mask = np.zeros((len(specs), d), dtype=bool)
        mask[owners[keep], modes[keep].astype(np.int64)] = True
        if not mask[rows, cols // stride % d].all():
            return False
    return True


def build_amplitude_matrix(
    specs: list[ProspectSpec] | tuple[ProspectSpec, ...],
    space: MindSpace,
    factors: tuple[ActionFactor, ...] | None = None,
    allow_free_support: bool = False,
) -> np.ndarray:
    """Stack prospect state rows into the N x K amplitude matrix.

    One pass over the whole scenario: when ``factors`` is given, the mode
    subsets are checked with `check_mode_subsets`; the amplitude keys of
    all prospects are looked up in one basis-index table, which rejects
    keys of the wrong length or with a mode out of range; declared supports
    are checked with boolean masks; every entry is placed with a single
    assignment.  When a check fails, the per-prospect checks of
    `validate_prospect` and `build_prospect_state` run to raise their typed
    error for the first bad prospect.
    """
    specs = tuple(specs)
    dims = space.factor_dims
    if factors is not None and tuple(f.num_modes for f in factors) != dims:
        raise DimensionError(
            f"factors have mode counts {tuple(f.num_modes for f in factors)}, space has {dims}"
        )
    counts = [len(spec.amplitudes) for spec in specs]
    nnz = sum(counts)
    index = {key: i for i, key in enumerate(space.basis)}
    try:
        for spec in specs if factors is not None else ():
            check_mode_subsets(spec, factors)
        cols = np.fromiter(
            map(index.__getitem__, itertools.chain.from_iterable(spec.amplitudes for spec in specs)),
            np.int64, nnz,
        )
    except (InvalidScenario, KeyError):  # a bad mode subset, or a key of the wrong length or out of range
        cols = None
    rows = np.repeat(np.arange(len(specs)), counts)
    if cols is None or not (allow_free_support or _supported(specs, rows, cols, space)):
        for spec in specs:
            if factors is not None:
                validate_prospect(spec, factors, allow_free_support)
            build_prospect_state(spec, space, allow_free_support)
        raise AssertionError("the per-prospect checks accept a scenario that the array checks reject")

    values = np.fromiter(
        itertools.chain.from_iterable(spec.amplitudes.values() for spec in specs), complex, nnz,
    )
    matrix = np.zeros((len(specs), space.dimension), dtype=complex)
    matrix[rows, cols] = values
    return matrix
