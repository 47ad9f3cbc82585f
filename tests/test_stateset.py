import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    DimMismatch,
    DomainError,
    NonFinite,
    NormPolicy,
    NotNormalized,
    RegimeViolation,
    StateSet,
    fit_pca,
    random_state_set,
    random_state_vector,
    validate_state_set,
)
from qdecimate.stateset import column_norms

from helpers import peak_bytes, random_columns


def _with_entry(value):
    raw = random_columns(8, 2, seed=21)
    raw[3, 1] = value
    return raw


# each builds a fresh matrix that a StateSet must refuse, with the error it must raise
REFUSED = {
    "regime-3x5": (lambda: np.zeros((3, 5), complex), RegimeViolation),
    "non-unit": (lambda: np.full((8, 2), 3.0 + 0j), NotNormalized),
    "nan": (lambda: _with_entry(np.nan), NonFinite),
    "inf": (lambda: _with_entry(np.inf), NonFinite),
    "1-d": (lambda: random_columns(8, 1, seed=22)[:, 0], RegimeViolation),
    "3-d": (lambda: random_columns(8, 2, seed=23)[:, :, np.newaxis], RegimeViolation),
    "M=0": (lambda: np.zeros((8, 0), complex), RegimeViolation),
    "D=M+1": (lambda: random_columns(4, 3, seed=24), RegimeViolation),
}


class TestRecord:
    def test_matrix_is_the_only_field(self):
        assert [field.name for field in dataclasses.fields(StateSet)] == ["matrix"]
        assert isinstance(StateSet.dim, property) and isinstance(StateSet.count, property)

    def test_hand_built_set_is_read_only(self):
        s = StateSet(np.eye(8, 3, dtype=complex))
        assert (s.dim, s.count) == (8, 3)
        assert not s.matrix.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.dim = 9

    @pytest.mark.parametrize("build", ["direct", "replace"])
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_however_built(self, case, build):
        make, error = REFUSED[case]
        matrix = make()
        with pytest.raises(error):
            if build == "direct":
                StateSet(matrix)
            else:
                dataclasses.replace(StateSet(np.eye(8, 3, dtype=complex)), matrix=matrix)
        assert matrix.flags.writeable

    def test_f_order_and_strided_sets_accepted(self):
        raw = random_columns(8, 3, seed=25)
        strided = np.zeros((16, 6), dtype=complex)
        strided[::2, ::2] = raw
        for matrix in (np.asfortranarray(raw), strided[::2, ::2]):
            s = StateSet(matrix)
            assert (s.dim, s.count) == (8, 3) and not s.matrix.flags.writeable


class TestColumnNormFunction:
    def test_layout_and_neighbours_do_not_change_a_norm(self):
        raw = random_columns(300, 41, seed=26) * np.linspace(0.5, 2.0, 41)
        strided = np.zeros((600, 82), dtype=complex)
        strided[::2, ::2] = raw
        want = column_norms(raw).tobytes()
        for matrix in (np.asfortranarray(raw), strided[::2, ::2]):
            assert column_norms(matrix).tobytes() == want
        alone = [column_norms(raw[:, mu : mu + 1]) for mu in range(41)]
        assert np.concatenate(alone).tobytes() == want
        assert np.allclose(column_norms(raw), np.linspace(0.5, 2.0, 41), rtol=1e-15, atol=0)

    def test_overflow_is_an_infinite_norm_not_a_warning(self):
        raw = np.zeros((8, 2), dtype=complex)
        raw[0] = [1e200, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert column_norms(raw).tolist() == [np.inf, 1.0]
        with pytest.raises(NotNormalized, match="column 0 has norm inf; it cannot be rescaled"):
            StateSet(raw)


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

    @pytest.mark.parametrize("policy", list(NormPolicy))
    @pytest.mark.parametrize("shape", [(), (4,), (8, 2, 1)])
    def test_non_2d_rejected_under_every_policy(self, shape, policy):
        # a DomainError, never numpy's AxisError from a norm over axis 0
        with pytest.raises(DomainError):
            validate_state_set(np.full(shape, 0.5, dtype=complex), policy)

    @pytest.mark.parametrize("scale", [0.0, 1e200])
    def test_auto_normalize_refuses_zero_and_overflowing_columns(self, scale):
        raw = random_columns(8, 3, seed=27)
        raw[:, 1] = 0.0
        raw[0, 1] = scale
        with pytest.raises(NotNormalized, match="cannot auto-normalize column 1"):
            validate_state_set(raw, NormPolicy.AUTO_NORMALIZE)

    def test_peak_is_the_copy_of_a_reader_view(self):
        # read_state_set gives the transposed view of the file's rows
        view = np.ascontiguousarray(random_state_set(4096, 200, seed=28).matrix.T).T
        assert view.flags.f_contiguous
        assert peak_bytes(lambda: validate_state_set(view)) <= view.nbytes + 2**20


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


def _means_and_deviations(s):
    """Each state's mean and deviation, as the fit holds them.

    Row 0 of the weights is sqrt(D) times every mean; the deviation of
    state mu is the rest of its expansion, basis[:, 1:] @ W[1:, mu].
    """
    model = fit_pca(s)
    return model.weights[0] / math.sqrt(s.dim), model.basis[:, 1:] @ model.weights[1:]


class TestMeansAndDeviations:
    def test_uniform_state_mean(self):
        raw = np.full((4, 1), 0.5, dtype=complex)
        s = validate_state_set(raw)
        means, _ = _means_and_deviations(s)
        assert np.allclose(means, [0.5], atol=1e-15)

    def test_basis_state_mean(self):
        raw = np.zeros((4, 1), dtype=complex)
        raw[0, 0] = 1.0
        s = validate_state_set(raw)
        means, _ = _means_and_deviations(s)
        assert np.allclose(means, [0.25], atol=1e-15)

    def test_mean_matches_summation_loop(self):
        # independent oracle: direct summation
        s = validate_state_set(random_columns(8, 1, seed=6))
        acc = 0.0 + 0.0j
        for i in range(8):
            acc += s.matrix[i, 0]
        means, _ = _means_and_deviations(s)
        assert abs(means[0] - acc / 8.0) <= 1e-15

    def test_uniform_column_has_zero_deviation(self):
        raw = np.full((4, 1), 0.5, dtype=complex)
        s = validate_state_set(raw)
        _, delta = _means_and_deviations(s)
        assert np.abs(delta).max() == 0.0

    def test_basis_state_deviation_arithmetic(self):
        # e1 at D=4: mean 1/4, deviation (3/4, -1/4, -1/4, -1/4)
        raw = np.zeros((4, 1), dtype=complex)
        raw[0, 0] = 1.0
        s = validate_state_set(raw)
        _, delta = _means_and_deviations(s)
        assert np.allclose(delta[:, 0], [0.75, -0.25, -0.25, -0.25], atol=1e-15)

    def test_deviation_columns_have_zero_mean(self):
        s = validate_state_set(random_columns(8, 3, seed=7))
        _, delta = _means_and_deviations(s)
        recomputed = delta.mean(axis=0)
        assert np.abs(recomputed).max() <= 1e-12

    def test_mean_profile_reconstruction(self):
        s = validate_state_set(random_columns(10, 4, seed=8))
        means, delta = _means_and_deviations(s)
        rebuilt = delta + np.ones((10, 1)) * means[np.newaxis, :]
        assert np.abs(rebuilt - s.matrix).max() <= 1e-12

    def test_deviation_orthogonal_to_uniform_vector(self):
        s = validate_state_set(random_columns(12, 5, seed=9))
        _, delta = _means_and_deviations(s)
        o = np.ones(12, dtype=complex)
        overlaps = o.conj() @ delta
        assert np.abs(overlaps).max() <= 1e-10 * np.sqrt(12)

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
        means, delta = _means_and_deviations(s)
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

    @pytest.mark.parametrize("mu", [0, 4])
    def test_column_index_outside_one_to_m(self, mu):
        # 0 would wrap to the last state, 4 past the end
        with pytest.raises(DimMismatch, match=rf"1\.\.3, got {mu}"):
            random_state_set(16, 3, seed=5).column(mu)
