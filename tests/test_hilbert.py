import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdt.algebra import EMPTY_PROSPECT, ProspectSpec, enumerate_elementary
from qdt.errors import DimensionError, NormalizationError, NumericalError, ZeroNormError
from qdt.hilbert import (
    MindSpace,
    basis_index,
    basis_unindex,
    build_amplitude_matrix,
    build_product_state,
    build_prospect_state,
    check_state_of_mind,
    inner,
    normalize,
    vacuum_state,
)
from tests.conftest import make_factors

SQ2 = 1.0 / math.sqrt(2.0)


class TestMindSpace:
    def test_dimension_and_basis(self):
        space = MindSpace((2, 3))
        assert space.dimension == 6
        assert list(space.basis) == enumerate_elementary(make_factors([2, 3]))

    def test_from_factors(self):
        assert MindSpace.from_factors(make_factors([3, 2])).factor_dims == (3, 2)

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            MindSpace(())
        with pytest.raises(DimensionError):
            MindSpace((2, 0))


class TestBasisIndex:
    def test_first_element(self):
        assert basis_index((0, 0), MindSpace((2, 2))) == 0

    def test_last_element(self):
        assert basis_index((1, 1), MindSpace((2, 2))) == 3

    def test_mixed_radix_example(self):
        # 1*(2*3) + 0*3 + 2, verified below against the full enumeration
        assert basis_index((1, 0, 2), MindSpace((2, 2, 3))) == 8

    def test_matches_enumeration_order(self):
        space = MindSpace((2, 2, 3))
        for i, key in enumerate(space.basis):
            assert basis_index(key, space) == i

    def test_round_trip_all(self):
        space = MindSpace((2, 3, 2))
        for key in space.basis:
            assert basis_unindex(basis_index(key, space), space) == key

    def test_out_of_range(self):
        space = MindSpace((2, 2))
        with pytest.raises(IndexError):
            basis_index((0, 2), space)
        with pytest.raises(IndexError):
            basis_index((0,), space)
        with pytest.raises(IndexError):
            basis_unindex(4, space)


class TestInner:
    def test_distinct_basis_vectors_orthogonal(self):
        space = MindSpace((2, 2))
        eye = np.eye(space.dimension)
        for a in range(4):
            for b in range(4):
                expected = 1.0 if a == b else 0.0
                assert inner(eye[a], eye[b]) == pytest.approx(expected)

    def test_vacuum_annihilates(self, rng):
        space = MindSpace((2, 3))
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert inner(v, vacuum_state(space)) == 0
        assert inner(vacuum_state(space), v) == 0

    def test_hand_expansion(self):
        u = np.array([SQ2, SQ2])
        v = np.array([1.0, 0.0])
        assert inner(u, v) == pytest.approx(0.7071067811865475)

    def test_conjugate_linear_first_argument(self):
        u = np.array([1.0 + 2.0j, -0.5j])
        v = np.array([0.25, 1.0 - 1.0j])
        alpha = 0.3 - 0.7j
        assert inner(alpha * u, v) == pytest.approx(np.conj(alpha) * inner(u, v))
        assert inner(u, alpha * v) == pytest.approx(alpha * inner(u, v))

    def test_self_inner_nonnegative_real(self, rng):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        val = inner(v, v)
        assert val.imag == 0
        assert val.real >= 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner(np.ones(2), np.ones(3))


class TestNormalize:
    def test_scaling(self):
        assert np.allclose(normalize(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_symmetry(self):
        assert np.allclose(normalize(np.array([1.0, 1.0])), [SQ2, SQ2])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_unit_norm_output(self, seed):
        g = np.random.default_rng(seed)
        v = g.standard_normal(12) + 1j * g.standard_normal(12)
        assert abs(np.linalg.norm(normalize(v)) - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroNormError):
            normalize(np.zeros(3))

    def test_output_check_survives_optimization(self):
        # the norm overflows to inf, so the "normalized" output is all zeros
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="norm deviation"):
            normalize(np.array([1e300, 1e300]))


class TestBuildProspectState:
    def test_empty_prospect_is_vacuum(self):
        space = MindSpace((2, 2))
        assert np.array_equal(build_prospect_state(EMPTY_PROSPECT, space), np.zeros(4))

    def test_single_support_gives_basis_vector(self):
        space = MindSpace((2, 2))
        spec = ProspectSpec("a", ((1,), (0,)), {(1, 0): 1.0})
        state = build_prospect_state(spec, space)
        expected = np.zeros(4, dtype=complex)
        expected[basis_index((1, 0), space)] = 1.0
        assert np.array_equal(state, expected)

    def test_h2_superposition_row(self):
        space = MindSpace((2,))
        spec = ProspectSpec("pi1", ((0, 1),), {(0,): SQ2, (1,): SQ2})
        state = build_prospect_state(spec, space)
        assert state == pytest.approx(np.array([0.7071067811865476, 0.7071067811865476]))

    def test_support_violation_propagates(self):
        space = MindSpace((2, 2))
        spec = ProspectSpec("a", ((0,), (0,)), {(1, 1): 1.0})
        from qdt.errors import SupportViolation
        with pytest.raises(SupportViolation):
            build_prospect_state(spec, space)
        free = build_prospect_state(spec, space, allow_free_support=True)
        assert free[basis_index((1, 1), space)] == 1.0


class TestBuildProductState:
    def test_pure_modes_give_basis_vector(self):
        state = build_product_state([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert np.array_equal(state, [1, 0, 0, 0])

    def test_superposition_times_pure(self):
        state = build_product_state([np.array([SQ2, SQ2]), np.array([1.0, 0.0])])
        assert state == pytest.approx([SQ2, 0.0, SQ2, 0.0])

    def test_norms_multiply(self, rng):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = np.linalg.norm(build_product_state([u, v]))
        assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
        unit = build_product_state([normalize(u), normalize(v)])
        assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (2, 2, 2, 2, 2, 2, 2, 2)])
    def test_one_hot_factors_hit_every_basis_vector(self, dims):
        space = MindSpace(dims)
        assert space.dimension <= 256
        for key in space.basis:
            per_factor = []
            for d, j in zip(dims, key):
                a = np.zeros(d)
                a[j] = 1.0
                per_factor.append(a)
            state = build_product_state(per_factor)
            expected = np.zeros(space.dimension)
            expected[basis_index(key, space)] = 1.0
            assert np.array_equal(state, expected)

    def test_amplitudes_are_products(self, rng):
        dims = (2, 3)
        arrays = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        state = build_product_state(arrays)
        space = MindSpace(dims)
        for key in space.basis:
            expected = arrays[0][key[0]] * arrays[1][key[1]]
            assert state[basis_index(key, space)] == pytest.approx(expected)

    def test_errors(self):
        with pytest.raises(DimensionError):
            build_product_state([])
        with pytest.raises(DimensionError):
            build_product_state([np.zeros((2, 2))])


class TestAmplitudeMatrix:
    def test_rows_are_prospect_states(self):
        space = MindSpace((2,))
        specs = [
            ProspectSpec("a", ((0, 1),), {(0,): SQ2, (1,): SQ2}),
            ProspectSpec("b", ((0, 1),), {(0,): SQ2, (1,): -SQ2}),
        ]
        matrix = build_amplitude_matrix(specs, space)
        assert matrix.shape == (2, 2)
        for spec, row in zip(specs, matrix):
            assert np.array_equal(row, build_prospect_state(spec, space))

    def test_partial_supports_and_empty_prospect(self, rng):
        factors = make_factors([2, 3, 2])
        space = MindSpace.from_factors(factors)
        specs = [EMPTY_PROSPECT, ProspectSpec("bare", ((0,), (1, 2), (0, 1)), {})]
        for i in range(6):
            subsets = tuple(
                tuple(sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist()))
                for d in space.factor_dims
            )
            keys = [key for key in space.basis if all(j in s for j, s in zip(key, subsets))]
            amplitudes = {key: complex(rng.standard_normal()) for key in keys}
            specs.append(ProspectSpec(f"p{i}", subsets, amplitudes))
        matrix = build_amplitude_matrix(specs, space, factors=factors)
        assert matrix.shape == (len(specs), space.dimension)
        for spec, row in zip(specs, matrix):
            assert np.array_equal(row, build_prospect_state(spec, space))

    def test_integral_float_modes(self):
        factors = make_factors([2, 3])
        space = MindSpace.from_factors(factors)
        amplitudes = {(0, 2): SQ2, (1, 2): -SQ2}
        ints = ProspectSpec("a", ((0, 1), (2,)), amplitudes)
        floats = ProspectSpec("a", ((0.0, np.float64(1)), (2.0,)), amplitudes)
        expected = build_amplitude_matrix([ints], space, factors=factors)
        for f in (factors, None):
            assert np.array_equal(build_amplitude_matrix([floats], space, factors=f), expected)

    def test_no_prospects(self):
        assert build_amplitude_matrix([], MindSpace((2, 2))).shape == (0, 4)

    def test_factors_must_match_space(self):
        with pytest.raises(DimensionError):
            build_amplitude_matrix([], MindSpace((2, 2)), factors=make_factors([2, 3]))


class TestCheckStateOfMind:
    def test_accepts_normalized(self):
        space = MindSpace((2,))
        check_state_of_mind(np.array([SQ2, SQ2]), space)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionError):
            check_state_of_mind(np.ones(3), MindSpace((2,)))

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            check_state_of_mind(np.array([1.0, 1.0]), MindSpace((2,)))
