import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    DEFAULT_TOL,
    AllZeroDeviations,
    DimMismatch,
    NoConvergence,
    PcaModel,
    Tolerances,
    build_map,
    column_means,
    decimate_state,
    evolve_sequence,
    fit_pca,
    importances,
    ising_chain,
    random_state_set,
    validate_state_set,
)
from qdecimate import fileio, pca
from qdecimate.decimation import retained_power
from qdecimate.numerics import gram_deviation, svd
from qdecimate.stateset import deviation_matrix

from helpers import random_columns, random_unitary


def _fit(dim, count, seed):
    return random_state_set(dim, count, seed=seed), None


def _slow_ising_trajectory():
    # slow dynamics: singular values decay through the rank cut
    psi0 = np.zeros(256, dtype=complex)
    psi0[0] = 1.0
    return evolve_sequence(ising_chain(8), psi0, 0.05, 30)


def _canonical_duplicates():
    return validate_state_set(np.eye(16, dtype=complex)[:, [0, 0, 1, 1, 2]])


def _model_with_singular_values(sv):
    sv = np.asarray(sv, dtype=np.float64)
    count = sv.size
    return PcaModel(
        dim=count + 2,
        count=count,
        basis=np.zeros((count + 2, count + 1), dtype=complex),
        singular_values=sv,
        weights=np.zeros((count + 1, count), dtype=complex),
        rank=count,
    )


class TestFitAnalytic:
    def test_uniform_state(self):
        # M=1 uniform superposition at D=4: zero deviation, W = (1, 0)^T
        raw = np.full((4, 1), 0.5, dtype=complex)
        model = fit_pca(validate_state_set(raw))
        assert model.rank == 0
        assert abs(model.singular_values[0]) == 0.0
        assert np.allclose(model.weights[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(model.basis[:, 0], 0.5, atol=1e-15)

    def test_basis_state(self):
        # M=1, state e1 at D=4: mean 1/4, w0 = 1/2, e1 = sqrt(3)/2,
        # phi1 = (3,-1,-1,-1)/(2 sqrt(3)), w1 = sqrt(3)/2
        raw = np.zeros((4, 1), dtype=complex)
        raw[0, 0] = 1.0
        model = fit_pca(validate_state_set(raw))
        s3 = math.sqrt(3.0)
        assert model.rank == 1
        assert abs(model.singular_values[0] - s3 / 2.0) <= 1e-12
        assert abs(model.weights[0, 0] - 0.5) <= 1e-12
        assert abs(model.weights[1, 0] - s3 / 2.0) <= 1e-12
        expected_phi1 = np.array([3.0, -1.0, -1.0, -1.0]) / (2.0 * s3)
        assert np.abs(model.basis[:, 1] - expected_phi1).max() <= 1e-12
        power = np.abs(model.weights[:, 0]) ** 2
        assert abs(power.sum() - 1.0) <= 1e-12

    def test_random_reconstruction(self):
        s = random_state_set(16, 3, seed=21)
        model = fit_pca(s)
        # direct matrix-multiply oracle
        assert np.abs(model.basis @ model.weights - s.matrix).max() <= 1e-10

    def test_basis_column_zero_is_uniform(self):
        s = random_state_set(16, 3, seed=22)
        model = fit_pca(s)
        assert np.abs(model.basis[:, 0] - 1.0 / 4.0).max() == 0.0

    def test_full_rank_on_random_set(self):
        s = random_state_set(32, 5, seed=23)
        model = fit_pca(s)
        assert model.rank == 5

    def test_weight_row_zero_is_scaled_means(self):
        s = random_state_set(16, 4, seed=24)
        model = fit_pca(s)
        expected = math.sqrt(16) * s.matrix.mean(axis=0)
        assert np.abs(model.weights[0, :] - expected).max() <= 1e-12


class TestRankDeficiency:
    def test_all_uniform_set(self):
        raw = np.full((16, 3), 0.25, dtype=complex)
        model = fit_pca(validate_state_set(raw))
        assert model.rank == 0
        assert np.all(model.singular_values == 0.0)
        gram = model.basis.conj().T @ model.basis
        assert np.abs(gram - np.eye(4)).max() <= 1e-10
        assert np.abs(model.basis @ model.weights - raw).max() <= 1e-10
        assert np.abs(model.weights[1:, :]).max() == 0.0

    def test_duplicate_columns(self):
        col = random_columns(16, 1, seed=25)
        raw = np.concatenate([col, col, random_columns(16, 1, seed=26)], axis=1)
        model = fit_pca(validate_state_set(raw))
        assert model.rank == 2
        gram = model.basis.conj().T @ model.basis
        assert np.abs(gram - np.eye(4)).max() <= 1e-10
        assert np.abs(model.basis @ model.weights - raw).max() <= 1e-10

    def test_deficient_weight_rows_are_zero(self):
        col = random_columns(16, 1, seed=27)
        raw = np.concatenate([col, col], axis=1)
        model = fit_pca(validate_state_set(raw))
        assert model.rank == 1
        assert np.abs(model.weights[2, :]).max() == 0.0


class TestBasisCompletion:
    @pytest.mark.parametrize("states", [_slow_ising_trajectory, _canonical_duplicates])
    def test_completed_basis(self, states):
        s = states()
        model = fit_pca(s)
        assert model.rank < model.count
        assert np.array_equal(model.basis[:, 0], np.full(s.dim, 1.0 / math.sqrt(s.dim)))
        x = deviation_matrix(s, column_means(s))
        u, sv, _ = svd(x)
        retained = slice(1, model.rank + 1)
        overlaps = np.einsum("ij,ij->j", model.basis[:, retained].conj(), u[:, : model.rank])
        # Wedin: a backward-stable SVD moves singular vector k by up to
        # eps * e_1 / gap_k, where gap_k separates sigma_k from the others
        gaps = np.abs(sv[: model.rank, np.newaxis] - sv[np.newaxis, :])
        gaps[np.arange(model.rank), np.arange(model.rank)] = np.inf
        bound = 10.0 * np.finfo(float).eps * sv[0] / gaps.min(axis=1)
        assert np.all(np.abs(overlaps - 1.0) <= bound)
        residual = x.conj().T @ model.basis[:, retained] - model.weights[retained].conj().T
        assert np.abs(residual).max() <= 1e-12
        assert np.all(model.weights[model.rank + 1 :, :] == 0.0)
        gram = model.basis.conj().T @ model.basis
        assert np.abs(gram - np.eye(model.count + 1)).max() <= DEFAULT_TOL.base
        assert np.abs(model.basis @ model.weights - s.matrix).max() <= 1e-10

    def test_gram_check_raises(self):
        with pytest.raises(NoConvergence):
            fit_pca(_canonical_duplicates(), Tolerances(base=1e-20))


def _rank_deficient_set(dim, count, rank, seed):
    """count unit combinations of the same rank random states."""
    base = random_columns(dim, rank, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    mixed = base @ (rng.standard_normal((rank, count)) + 1j * rng.standard_normal((rank, count)))
    return validate_state_set(mixed / np.linalg.norm(mixed, axis=0))


def _check_against_svd_oracle(s, model):
    sv = np.linalg.svd(deviation_matrix(s, column_means(s)), compute_uv=False)
    assert np.abs(model.singular_values - sv).max() <= 1e-13 * sv[0]
    assert gram_deviation(model.basis) <= 1e-13
    assert np.abs(model.basis @ model.weights - s.matrix).max() <= 1e-10
    assert np.all(model.weights[model.rank + 1 :, :] == 0.0)


class TestRowBlocks:
    """The fit's QR runs over blocks of rows; the blocks must not show in the model."""

    @pytest.mark.parametrize(
        "states",
        [
            lambda: random_state_set(600, 30, seed=50),
            lambda: _rank_deficient_set(600, 30, 6, seed=51),
            _slow_ising_trajectory,
        ],
        ids=["random", "rank-6", "slow-ising"],
    )
    @pytest.mark.parametrize("rows, widths", [(64, 1), (32, 4), (100, 1)])
    def test_multi_block_matches_single_block(self, monkeypatch, states, rows, widths):
        s = states()
        one = fit_pca(s)
        monkeypatch.setattr(pca, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(pca, "_BLOCK_WIDTHS", widths)
        many = fit_pca(s)
        assert many.rank == one.rank
        e1 = one.singular_values[0]
        assert np.abs(many.singular_values - one.singular_values).max() <= 1e-13 * e1
        assert np.abs(retained_power(many) - retained_power(one)).max() <= 1e-13
        assert gram_deviation(many.basis) <= 1e-13
        assert np.abs(many.basis @ many.weights - s.matrix).max() <= 1e-10

    @pytest.mark.parametrize("rows", [1024, 448])
    def test_dimension_not_a_multiple_of_the_block_height(self, monkeypatch, rows):
        # 1500 rows: one block of 1500 at 1024, blocks of 500 at 448
        monkeypatch.setattr(pca, "_BLOCK_ROWS", rows)
        s = random_state_set(1500, 40, seed=52)
        _check_against_svd_oracle(s, fit_pca(s))

    def test_blocks_narrower_than_the_basis(self, monkeypatch):
        # M+1 = 41 > 16 rows: every block is raised to at least 41 rows
        monkeypatch.setattr(pca, "_BLOCK_ROWS", 16)
        monkeypatch.setattr(pca, "_BLOCK_WIDTHS", 1)
        s = _rank_deficient_set(203, 40, 9, seed=53)
        model = fit_pca(s)
        assert model.rank == 9
        _check_against_svd_oracle(s, model)

    def test_more_states_than_block_rows(self):
        # M+1 = 1025 > 1024
        s = random_state_set(1040, 1024, seed=54)
        model = fit_pca(s)
        assert model.rank == 1024
        _check_against_svd_oracle(s, model)

    def test_model_files_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pca, "_BLOCK_ROWS", 64)
        sets = {"random": random_state_set(300, 12, seed=55), "ising": _slow_ising_trajectory()}
        for name, s in sets.items():
            a, b = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
            fileio.write_model(a, fit_pca(s))
            fileio.write_model(b, fit_pca(s))
            assert a.read_bytes() == b.read_bytes()

    def test_constant_states_have_rank_zero_in_every_block(self, monkeypatch):
        monkeypatch.setattr(pca, "_BLOCK_ROWS", 64)
        raw = np.ones((256, 3), dtype=complex) * np.array([1.0, 1j, -(0.6 + 0.8j)]) / 16.0
        model = fit_pca(validate_state_set(raw))
        assert model.rank == 0 and np.all(model.singular_values == 0.0)
        assert np.abs(model.weights[1:]).max() == 0.0
        assert gram_deviation(model.basis) <= 1e-13
        assert np.abs(model.basis @ model.weights - raw).max() <= 1e-15


def _full_weights(model, v):
    """Weights of a unit D-vector in the whole basis: decimation at d = M+1."""
    return decimate_state(build_map(model, model.count + 1), v).weights


class TestWeightsOf:
    def test_phi0_maps_to_first_unit_vector(self):
        s = random_state_set(16, 3, seed=28)
        model = fit_pca(s)
        w = _full_weights(model, model.basis[:, 0])
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1.0
        assert np.abs(w - expected).max() <= 1e-12

    def test_fitted_state_reproduces_stored_column(self):
        s = random_state_set(16, 3, seed=29)
        model = fit_pca(s)
        for mu in range(1, 4):
            w = _full_weights(model, s.column(mu))
            assert np.abs(w - model.weights[:, mu - 1]).max() <= 1e-10

    def test_span_vector_round_trip(self):
        s = random_state_set(16, 3, seed=30)
        model = fit_pca(s)
        rng = np.random.Generator(np.random.PCG64(31))
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = model.basis @ (x / np.linalg.norm(x))
        assert np.abs(model.basis @ _full_weights(model, v) - v).max() <= 1e-10

    def test_dim_mismatch(self):
        model = fit_pca(random_state_set(16, 3, seed=32))
        with pytest.raises(DimMismatch):
            _full_weights(model, np.zeros(5, dtype=complex))


class TestImportance:
    def test_direct_ratio(self):
        model = _model_with_singular_values([3.0, 1.0])
        assert importances(model)[0] == 0.75
        assert importances(model)[1] == 0.25

    def test_symmetric_values(self):
        model = _model_with_singular_values([0.7, 0.7, 0.7, 0.7])
        for k in range(1, 5):
            assert abs(importances(model)[k - 1] - 0.25) <= 1e-15

    def test_sum_to_one(self):
        model = fit_pca(random_state_set(32, 6, seed=33))
        assert abs(importances(model).sum() - 1.0) <= 1e-12

    def test_all_zero_deviations(self):
        model = _model_with_singular_values([0.0, 0.0])
        with pytest.raises(AllZeroDeviations):
            importances(model)


class TestReconstruct:
    def test_mean_component_only(self):
        model = fit_pca(random_state_set(16, 3, seed=34))
        w = np.zeros(4, dtype=complex)
        w[0] = 1.0
        assert np.abs(model.basis @ w - 0.25).max() <= 1e-12

    def test_stored_weights_give_back_states(self):
        s = random_state_set(16, 3, seed=35)
        model = fit_pca(s)
        for mu in range(1, 4):
            v = model.basis @ model.weights[:, mu - 1]
            assert np.abs(v - s.column(mu)).max() <= 1e-10

    def test_isometry_preserves_norm(self):
        model = fit_pca(random_state_set(16, 3, seed=36))
        rng = np.random.Generator(np.random.PCG64(37))
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(np.linalg.norm(model.basis @ w) - np.linalg.norm(w)) <= 1e-10


class TestModelInvariants:
    @settings(deadline=None, max_examples=40)
    @given(
        dim=st.integers(min_value=8, max_value=40),
        count=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fitted_model_invariants(self, dim, count, seed):
        if dim <= count + 1:
            return
        s = random_state_set(dim, count, seed=seed)
        model = fit_pca(s)
        width = count + 1
        gram = model.basis.conj().T @ model.basis
        assert np.abs(gram - np.eye(width)).max() <= 1e-10
        assert np.abs(model.basis @ model.weights - s.matrix).max() <= 1e-10
        norms = np.abs(model.weights) ** 2
        assert np.abs(norms.sum(axis=0) - 1.0).max() <= 1e-9
        sv = model.singular_values
        assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0.0)
        o = np.ones(dim, dtype=complex)
        overlaps = o.conj() @ model.basis[:, 1:]
        assert np.abs(overlaps).max() <= 1e-10 * math.sqrt(dim)
        projected = model.basis @ (model.basis.conj().T @ s.matrix)
        assert np.abs(projected - s.matrix).max() <= 1e-10

    def test_inner_product_preservation(self):
        s = random_state_set(24, 5, seed=39)
        model = fit_pca(s)
        fine = s.matrix.conj().T @ s.matrix
        coarse = model.weights.conj().T @ model.weights
        assert np.abs(fine - coarse).max() <= 1e-10

    def test_pairwise_distance_preservation(self):
        s = random_state_set(24, 5, seed=40)
        model = fit_pca(s)
        for mu in range(5):
            for nu in range(mu + 1, 5):
                fine = np.linalg.norm(s.matrix[:, mu] - s.matrix[:, nu])
                coarse = np.linalg.norm(model.weights[:, mu] - model.weights[:, nu])
                assert abs(fine - coarse) <= 1e-10

    def test_basis_invariance_of_gram_matrix(self):
        s = random_state_set(16, 4, seed=41)
        model = fit_pca(s)
        lam = random_unitary(16, seed=42)
        rotated = validate_state_set(lam @ s.matrix)
        model2 = fit_pca(rotated)
        gram1 = model.weights.conj().T @ model.weights
        gram2 = model2.weights.conj().T @ model2.weights
        assert np.abs(gram1 - gram2).max() <= 1e-9

    def test_model_arrays_read_only(self):
        model = fit_pca(random_state_set(16, 3, seed=43))
        with pytest.raises(ValueError):
            model.basis[0, 0] = 0.0
        with pytest.raises(ValueError):
            model.weights[0, 0] = 0.0

    def test_determinism_bit_identical(self):
        for s in (random_state_set(24, 5, seed=44), _canonical_duplicates()):
            a = fit_pca(s)
            b = fit_pca(s)
            assert a.basis.tobytes() == b.basis.tobytes()
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.singular_values.tobytes() == b.singular_values.tobytes()
