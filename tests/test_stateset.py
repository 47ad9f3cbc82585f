import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    DomainError,
    NonFinite,
    NormPolicy,
    NotNormalized,
    RegimeViolation,
    column_means,
    random_state_set,
    random_state_vector,
    validate_state_set,
)
from qdecimate.stateset import deviation_matrix

from helpers import random_columns


class TestValidate:
    def test_basis_state_accepted(self):
        raw = np.zeros((4, 1), dtype=complex)
        raw[0, 0] = 1.0
        s = validate_state_set(raw)
        assert s.dim == 4 and s.count == 1
        assert np.array_equal(s.column(1), raw[:, 0])

    def test_unnormalized_rejected_strict(self):
        raw = np.zeros((4, 1), dtype=complex)
        raw[0, 0] = 1.0
        raw[1, 0] = 1.0
        with pytest.raises(NotNormalized):
            validate_state_set(raw, policy=NormPolicy.STRICT)

    def test_regime_violation(self):
        raw = np.eye(3, dtype=complex)
        with pytest.raises(RegimeViolation):
            validate_state_set(raw)

    def test_regime_boundary_rejected(self):
        # D = M+1 is still outside the regime
        raw = np.eye(4, dtype=complex)[:, :3]
        with pytest.raises(RegimeViolation):
            validate_state_set(raw)

    def test_nonfinite_rejected(self):
        raw = np.zeros((4, 1), dtype=complex)
        raw[0, 0] = np.nan
        with pytest.raises(NonFinite):
            validate_state_set(raw)

    def test_auto_normalize_rescales(self):
        raw = random_columns(8, 2, seed=3) * 1.001
        with pytest.raises(NotNormalized):
            validate_state_set(raw, policy=NormPolicy.STRICT)
        s = validate_state_set(raw, policy=NormPolicy.AUTO_NORMALIZE)
        assert np.abs(np.linalg.norm(s.matrix, axis=0) - 1.0).max() <= 1e-12

    def test_matrix_read_only(self):
        s = validate_state_set(random_columns(8, 2, seed=5))
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 0.0

    def test_matrix_is_a_c_order_copy(self):
        raw = np.asfortranarray(random_columns(8, 2, seed=5))
        s = validate_state_set(raw)
        assert s.matrix.flags.c_contiguous and np.array_equal(s.matrix, raw)
        assert not np.shares_memory(s.matrix, raw)

    def test_non_2d_rejected(self):
        with pytest.raises(DomainError):
            validate_state_set(np.zeros(4, dtype=complex))


class TestColumnNorms:
    @pytest.mark.parametrize("block", [8, 2**16])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("dim, count", [(16, 1), (16, 7), (300, 41)])
    def test_bit_identical_to_numpy_norm(self, block, layout, dim, count):
        # The set is validated in slices of about `block` entries (at least two
        # columns each; block=8 gives two- and three-column slices, 2**16 the
        # whole set): a state's normalised bytes must not depend on the other
        # states it is validated with.
        raw = random_columns(2 * dim, count, seed=dim + count) * 1.25
        raw = {"C": raw[:dim], "F": np.asfortranarray(raw[:dim]), "strided": raw[::2]}[layout]
        want = raw / np.linalg.norm(raw, axis=0)
        pieces = max(1, count // max(2, block // dim))
        edges = [count * i // pieces for i in range(pieces + 1)]
        got = [
            validate_state_set(raw[:, lo:hi], policy=NormPolicy.AUTO_NORMALIZE).matrix
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        assert np.hstack(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestMeansAndDeviations:
    def test_uniform_state_mean(self):
        raw = np.full((4, 1), 0.5, dtype=complex)
        s = validate_state_set(raw)
        assert np.allclose(column_means(s), [0.5], atol=1e-15)

    def test_basis_state_mean(self):
        raw = np.zeros((4, 1), dtype=complex)
        raw[0, 0] = 1.0
        s = validate_state_set(raw)
        assert np.allclose(column_means(s), [0.25], atol=1e-15)

    def test_mean_matches_summation_loop(self):
        # independent oracle: direct summation
        s = validate_state_set(random_columns(8, 1, seed=6))
        acc = 0.0 + 0.0j
        for i in range(8):
            acc += s.matrix[i, 0]
        assert abs(column_means(s)[0] - acc / 8.0) <= 1e-15

    def test_uniform_column_has_zero_deviation(self):
        raw = np.full((4, 1), 0.5, dtype=complex)
        s = validate_state_set(raw)
        delta = deviation_matrix(s, column_means(s))
        assert np.abs(delta).max() == 0.0

    def test_basis_state_deviation_arithmetic(self):
        # e1 at D=4: mean 1/4, deviation (3/4, -1/4, -1/4, -1/4)
        raw = np.zeros((4, 1), dtype=complex)
        raw[0, 0] = 1.0
        s = validate_state_set(raw)
        delta = deviation_matrix(s, column_means(s))
        assert np.allclose(delta[:, 0], [0.75, -0.25, -0.25, -0.25], atol=1e-15)

    def test_deviation_columns_have_zero_mean(self):
        s = validate_state_set(random_columns(8, 3, seed=7))
        delta = deviation_matrix(s, column_means(s))
        recomputed = delta.mean(axis=0)
        assert np.abs(recomputed).max() <= 1e-12

    def test_mean_profile_reconstruction(self):
        s = validate_state_set(random_columns(10, 4, seed=8))
        means = column_means(s)
        delta = deviation_matrix(s, means)
        rebuilt = delta + np.ones((10, 1)) * means[np.newaxis, :]
        assert np.abs(rebuilt - s.matrix).max() <= 1e-12

    def test_deviation_orthogonal_to_uniform_vector(self):
        s = validate_state_set(random_columns(12, 5, seed=9))
        delta = deviation_matrix(s, column_means(s))
        o = np.ones(12, dtype=complex)
        overlaps = o.conj() @ delta
        assert np.abs(overlaps).max() <= 1e-10 * np.sqrt(12)

    def test_means_linearity(self):
        s1 = validate_state_set(random_columns(8, 3, seed=10))
        s2 = validate_state_set(random_columns(8, 3, seed=11))
        m1, m2 = column_means(s1), column_means(s2)
        alpha, beta = 0.3 - 0.2j, 1.7 + 0.5j
        combo = alpha * s1.matrix + beta * s2.matrix
        assert np.abs(combo.mean(axis=0) - (alpha * m1 + beta * m2)).max() <= 1e-12

    def test_deviation_shape_check(self):
        s = validate_state_set(random_columns(8, 3, seed=12))
        with pytest.raises(DomainError):
            deviation_matrix(s, np.zeros(2, dtype=complex))

    @settings(deadline=None, max_examples=40)
    @given(
        dim=st.integers(min_value=6, max_value=32),
        count=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_deviation_invariants_random(self, dim, count, seed):
        if dim <= count + 1:
            return
        s = validate_state_set(random_columns(dim, count, seed))
        means = column_means(s)
        delta = deviation_matrix(s, means)
        o = np.ones(dim, dtype=complex)
        assert np.abs(o.conj() @ delta).max() <= 1e-10 * np.sqrt(dim)
        profile = np.ones((dim, 1)) * means[np.newaxis, :]
        assert np.abs(delta + profile - s.matrix).max() <= 1e-12


class TestGenerators:
    def test_random_state_set_deterministic(self):
        a = random_state_set(16, 3, seed=1)
        b = random_state_set(16, 3, seed=1)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_state_set(16, 3, seed=2)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_random_state_set_normalized(self):
        s = random_state_set(32, 5, seed=3)
        assert np.abs(np.linalg.norm(s.matrix, axis=0) - 1.0).max() <= 1e-12

    def test_random_state_set_regime(self):
        with pytest.raises(RegimeViolation):
            random_state_set(4, 4, seed=0)

    def test_random_state_vector(self):
        v = random_state_vector(16, seed=4)
        assert v.shape == (16,)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.array_equal(v, random_state_vector(16, seed=4))

    def test_column_indexing_is_one_based(self):
        s = random_state_set(16, 3, seed=5)
        assert np.array_equal(s.column(1), s.matrix[:, 0])
        assert np.array_equal(s.column(3), s.matrix[:, 2])
