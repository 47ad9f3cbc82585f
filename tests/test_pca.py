import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    DEFAULT_TOL,
    DimMismatch,
    DomainError,
    NoConvergence,
    PcaModel,
    Tolerances,
    build_map,
    decimate_state,
    evolve_sequence,
    fit_pca,
    ising_chain,
    random_state_set,
    validate_state_set,
)
from qdecimate import fileio, pca
from qdecimate.decimation import retained_power
from qdecimate.numerics import gram_deviation, pivot_phases, svd

import oracle
from helpers import peak_bytes, random_columns, random_unitary, reflector_completion


def _fit(dim, count, seed):
    return random_state_set(dim, count, seed=seed), None


def _slow_ising_trajectory():
    # slow dynamics: singular values decay through the rank cut
    psi0 = np.zeros(256, dtype=complex)
    psi0[0] = 1.0
    return evolve_sequence(ising_chain(8), psi0, 0.05, 30)


def _canonical_duplicates():
    return validate_state_set(np.eye(16, dtype=complex)[:, [0, 0, 1, 1, 2]])


def _fourier_basis(dim, width):
    """The first width columns of the unitary DFT matrix; column 0 is exactly u0."""
    return np.fft.fft(np.eye(dim))[:, :width] / np.sqrt(dim)


def _model_with_singular_values(sv):
    sv = np.asarray(sv, dtype=np.float64)
    count = sv.size
    return PcaModel(
        basis=_fourier_basis(count + 2, count + 1),
        singular_values=sv,
        weights=np.zeros((count + 1, count), dtype=complex),
    )


class TestRecord:
    """A model stores its three arrays, read-only, and derives D, M and the rank."""

    def test_fields_are_the_arrays(self):
        names = [field.name for field in dataclasses.fields(PcaModel)]
        assert names == ["basis", "singular_values", "weights"]
        for name in ("dim", "count", "rank"):
            assert isinstance(getattr(PcaModel, name), property)

    def test_rank_follows_the_singular_values(self, tmp_path):
        model = fit_pca(random_state_set(16, 3, seed=1))
        zeroed = dataclasses.replace(model, singular_values=np.zeros(3))
        assert (model.rank, zeroed.rank) == (3, 0)
        fileio.write_model(tmp_path / "m.json", zeroed)
        assert fileio.read_model(tmp_path / "m.json").rank == zeroed.rank

    def test_hand_built_model_is_read_only(self):
        model = _model_with_singular_values([2.0, 1.0, 0.0])
        assert (model.dim, model.count, model.rank) == (5, 3, 2)
        for arr in (model.basis, model.singular_values, model.weights):
            assert not arr.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.rank = 3


class TestModelRules:
    """Every PcaModel, however built, holds the rules that read_model checks."""

    @pytest.mark.parametrize(
        "basis, sv, weights",
        [
            ((5, 4), (3,), (4, 2)),  # 2 weight columns beside 3 singular values
            ((5, 4), (3,), (3, 3)),  # weights need M+1 rows
            ((5, 3), (3,), (4, 3)),  # basis needs M+1 columns
            ((3, 4), (3,), (4, 3)),  # D < M+1 rows cannot hold M+1 orthonormal columns
            ((4,), (3,), (4, 3)),  # a basis must be 2-d
            ((5, 4), (3, 1), (4, 3)),  # singular values must be 1-d
            ((5, 1), (0,), (1, 0)),  # M >= 1
        ],
        ids=[
            "weight-columns",
            "weight-rows",
            "basis-columns",
            "short-basis",
            "1-d-basis",
            "2-d-spectrum",
            "no-state",
        ],
    )
    def test_each_shape_is_checked(self, basis, sv, weights):
        with pytest.raises(DimMismatch):
            PcaModel(basis=np.zeros(basis), singular_values=np.ones(sv), weights=np.zeros(weights))

    @pytest.mark.parametrize(
        "sv",
        [[1.0, 2.0, 3.0], [1.0, -0.5, -1.0], [np.nan, 1.0, 0.5]],
        ids=["ascending", "negative", "nan"],
    )
    def test_spectrum_refused_before_any_file_exists(self, tmp_path, sv):
        # write_model can only receive a model that read_model would accept
        model = fit_pca(random_state_set(16, 3, seed=1))
        with pytest.raises(DomainError, match="finite, non-negative and descending"):
            bad = dataclasses.replace(model, singular_values=np.array(sv))
            fileio.write_model(tmp_path / "m.json", bad)
        assert not list(tmp_path.iterdir())

    def test_column_zero_must_be_u0(self):
        model = fit_pca(random_state_set(16, 3, seed=2))
        # still orthonormal: columns 0 and 1 swapped
        basis = model.basis[:, [1, 0, 2, 3]]
        assert gram_deviation(basis) <= 1e-13
        with pytest.raises(DomainError, match="column 0 is not the uniform superposition"):
            dataclasses.replace(model, basis=basis)

    @pytest.mark.parametrize("entry", [1e-9, 1e200])
    def test_basis_must_be_orthonormal(self, entry):
        model = fit_pca(random_state_set(16, 3, seed=3))
        basis = model.basis.copy()
        basis[3, 2] += entry
        with pytest.raises(NoConvergence, match="not orthonormal"):
            dataclasses.replace(model, basis=basis)

    def test_a_refused_model_leaves_its_arrays_writable(self):
        # the arrays are frozen only once every rule holds
        basis = np.zeros((5, 4))
        with pytest.raises(DomainError):
            PcaModel(basis=basis, singular_values=np.ones(3), weights=np.zeros((4, 3)))
        assert basis.flags.writeable


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
        x = s.matrix - s.matrix.mean(axis=0)
        u, sv, vh = svd(x)
        # the fit's phase convention: the pivot of each row of vh real and positive
        pivots = vh[np.arange(vh.shape[0]), _pivot_rows(vh.T)]
        u = u * (pivots / np.abs(pivots))
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

    def test_gram_check_raises(self, monkeypatch):
        monkeypatch.setattr(Tolerances, "base", 1e-20)
        with pytest.raises(NoConvergence):
            fit_pca(_canonical_duplicates())


def _rank_deficient_set(dim, count, rank, seed):
    """count unit combinations of the same rank random states."""
    base = random_columns(dim, rank, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    mixed = base @ (rng.standard_normal((rank, count)) + 1j * rng.standard_normal((rank, count)))
    return validate_state_set(mixed / np.linalg.norm(mixed, axis=0))


def _check_against_svd_oracle(s, model):
    sv = np.linalg.svd(s.matrix - s.matrix.mean(axis=0), compute_uv=False)
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


def _constant_set():
    raw = np.ones((256, 3), dtype=complex) * np.array([1.0, 1j, -(0.6 + 0.8j)]) / 16.0
    return validate_state_set(raw)


# full rank in one row block of the fit's QR and in two (3000 rows), rank 8 of 150, rank 0
BUFFER_SETS = {
    "one-block": lambda: random_state_set(600, 30, seed=90),
    "several-blocks": lambda: random_state_set(3000, 40, seed=91),
    "lowrank": lambda: _rank_deficient_set(2**10, 150, 8, seed=92),
    "constant": _constant_set,
}


def _buffer_of(s):
    """A fresh D x (M+1) fit buffer: the states in columns 1..M, NaN in column 0."""
    phi = np.full((s.dim, s.count + 1), np.nan, dtype=complex)
    phi[:, 1:] = s.matrix
    return phi


class TestBufferInput:
    """fit_pca of a D x (M+1) buffer factors it in place: the buffer becomes the basis."""

    @pytest.mark.parametrize("case", sorted(BUFFER_SETS))
    def test_bit_identical_to_the_state_set_path(self, case):
        s = BUFFER_SETS[case]()
        want = fit_pca(s)
        phi = _buffer_of(s)
        got = fit_pca(phi)
        assert np.shares_memory(got.basis, phi) and not phi.flags.writeable
        for name in ("basis", "singular_values", "weights"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert np.abs(got.basis @ got.weights - s.matrix).max() <= 1e-10

    @pytest.mark.parametrize(
        "layout",
        [
            lambda phi: np.asfortranarray(phi),
            lambda phi: phi.astype(np.complex64),
            lambda phi: phi[:, ::2],
            lambda phi: np.lib.stride_tricks.as_strided(phi, writeable=False),
            lambda phi: phi.tolist(),
        ],
        ids=["F-order", "complex64", "strided", "read-only", "list"],
    )
    def test_a_buffer_of_another_layout_is_refused_untouched(self, layout):
        buffer = layout(_buffer_of(random_state_set(16, 4, seed=93)))
        before = np.array(buffer).tobytes()
        with pytest.raises(DomainError, match="writable C-order complex128"):
            fit_pca(buffer)
        assert np.array(buffer).tobytes() == before


def _explicit_q_fit(s):
    """The fit with every Q formed by np.linalg.qr and multiplied by the lift: the reference.

    Returns the basis, singular values and weights, and the number of row blocks.
    """
    dim, count = s.dim, s.count
    width = count + 1
    blocks = max(1, dim // max(pca._BLOCK_ROWS, pca._BLOCK_WIDTHS * width))
    edges = [dim * i // blocks for i in range(blocks + 1)]
    a = np.empty((dim, width), dtype=complex)
    a[:, 1:] = s.matrix
    means = a[:, 1:].mean(axis=0)
    a[:, 0] = 1.0 / math.sqrt(dim)
    qs, rs = zip(*(np.linalg.qr(a[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])))
    q2, r = np.linalg.qr(np.concatenate(rs))
    u_b, sv, vh = np.linalg.svd(np.ascontiguousarray(r[1:, 1:]), full_matrices=False)
    if np.all(s.matrix == s.matrix[0]):
        sv = np.zeros(count)
    phase = pivot_phases(vh.T)
    lift = q2[:, 1:] @ (u_b * phase)
    basis = np.concatenate([q @ lift[i * width : (i + 1) * width] for i, q in enumerate(qs)])
    basis = np.concatenate([a[:, :1], basis], axis=1)
    rank = int(np.sum(sv > Tolerances.rank_rel * sv[0]))
    weights = np.zeros((width, count), dtype=complex)
    weights[0] = math.sqrt(dim) * means
    weights[1 : rank + 1] = sv[:rank, np.newaxis] * (vh[:rank] * np.conj(phase[:rank, np.newaxis]))
    return basis, sv, weights, blocks


# sets whose QR meets identity reflectors (tau = 0, a column already zero
# below its diagonal), beside a random one
REFLECTOR_SETS = {
    "constant": _constant_set,
    "uniform-state": lambda: validate_state_set(np.full((4, 1), 0.5, dtype=complex)),
    "uniform-state-16": lambda: validate_state_set(np.full((16, 1), 0.25, dtype=complex)),
    "standard-basis": lambda: validate_state_set(np.eye(64, dtype=complex)[:, :5]),
    "random": lambda: random_state_set(600, 30, seed=94),
}


class TestHouseholderFactors:
    """The basis comes from each QR's reflectors in compact WY form, never from an explicit Q."""

    @pytest.mark.parametrize("rows", [1024, 4], ids=["one-block", "many-blocks"])
    @pytest.mark.parametrize("case", sorted(REFLECTOR_SETS))
    def test_matches_the_explicit_q_reference(self, monkeypatch, case, rows):
        monkeypatch.setattr(pca, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(pca, "_BLOCK_WIDTHS", 1)
        s = REFLECTOR_SETS[case]()
        basis, sv, weights, blocks = _explicit_q_fit(s)
        if rows == 1024:
            assert blocks == 1
        elif s.dim >= 16:  # 4 rows at D=4 make one block
            assert blocks >= 3
        model = fit_pca(s)
        assert model.singular_values.tobytes() == sv.tobytes()
        assert model.weights.tobytes() == weights.tobytes()
        kept = model.rank + 1
        scale = np.abs(basis).max()
        assert np.abs(model.basis[:, :kept] - basis[:, :kept]).max() <= 1e-14 * scale
        # past the rank, the Householder completion of the kept columns
        completion = reflector_completion(model.basis[:, :kept], model.count + 1)
        assert np.abs(model.basis[:, kept:] - completion).max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize(
        "case, rows",
        [
            ("uniform-state", 1024),
            ("uniform-state-16", 4),
            ("constant", 4),
            ("standard-basis", 4),
        ],
    )
    def test_the_degenerate_sets_meet_identity_reflectors(self, monkeypatch, case, rows):
        # blocks where every column but u0's is zero, or a multiple of it, to the last bit
        monkeypatch.setattr(pca, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(pca, "_BLOCK_WIDTHS", 1)
        taus, factor = [], pca._householder_qr
        monkeypatch.setattr(pca, "_householder_qr", lambda a, r: taus.append(factor(a, r)) or taus[-1])
        fit_pca(REFLECTOR_SETS[case]())
        assert any(np.any(tau == 0.0) for tau in taus)

    def test_an_identity_reflector_leaves_an_exact_zero_row_and_column(self):
        # columns 3..5 are zero, and stay zero under the reflectors of columns 0..2
        a = np.zeros((40, 6), dtype=complex)
        a[:, 0] = 1.0 / math.sqrt(40)
        a[:, 1:3] = random_columns(40, 2, seed=95)
        tau = pca._householder_qr(a, np.empty((6, 6), dtype=complex))
        zero = np.flatnonzero(tau == 0.0)
        assert list(zero) == [3, 4, 5]
        t = pca._wy_triangle(a, tau)
        assert np.all(t[zero, :] == 0.0) and np.all(t[:, zero] == 0.0)
        wy = np.eye(40, dtype=complex) - a @ t @ a.conj().T
        reference = np.eye(40, dtype=complex)
        for j in range(6):
            v = a[:, j : j + 1]
            reference = reference @ (np.eye(40) - tau[j] * (v @ v.conj().T))
        assert np.abs(wy - reference).max() <= 1e-14

    def test_peak_holds_no_q_factor(self):
        # D=2^12, M=200, four row blocks: 10.53 MiB with explicit Q factors,
        # 9.54 MiB with a per-block product of the stacked level, 7.70 MiB
        # when the stacked level is written over its own reflectors
        s = random_state_set(2**12, 200, seed=3)
        phi = _buffer_of(s)
        assert peak_bytes(lambda: fit_pca(phi)) <= 8.8 * 2**20


# rank-deficient sets whose top rows hold structure: where a pivot of the
# completion sat at round-off, the completion could jump
STRUCTURED_SETS = {
    "constant": _constant_set,
    "uniform-state": REFLECTOR_SETS["uniform-state-16"],
    "late-standard-basis": lambda: validate_state_set(
        np.eye(64, dtype=complex)[:, [40, 50, 60, 40, 50]]
    ),
    "lowrank": BUFFER_SETS["lowrank"],
    "parity-ising": lambda: evolve_sequence(
        ising_chain(8), np.full(256, 1.0 / 16.0, dtype=complex), 0.1, 40
    ),
}


class TestCompleteBasis:
    """Columns past the rank are the Householder completion of the retained ones alone."""

    @pytest.mark.parametrize("case", sorted(STRUCTURED_SETS))
    def test_matches_the_reflector_oracle(self, case):
        model = fit_pca(STRUCTURED_SETS[case]())
        kept = model.rank + 1
        assert kept <= model.count
        completion = reflector_completion(model.basis[:, :kept], model.count + 1)
        assert np.abs(model.basis[:, kept:] - completion).max() <= 1e-14

    @pytest.mark.parametrize("fill", ["nan", "zero", "own"])
    @pytest.mark.parametrize("case", ["constant", "lowrank", "parity-ising"])
    def test_same_bits_whatever_the_columns_held(self, case, fill):
        model = fit_pca(STRUCTURED_SETS[case]())
        phi = np.array(model.basis)
        if fill != "own":
            phi[:, model.rank + 1 :] = np.nan if fill == "nan" else 0.0
        pca.complete_basis(phi, model.rank)
        assert phi.tobytes() == model.basis.tobytes()

    def test_full_rank_buffer_untouched(self):
        phi = np.full((8, 4), np.nan, dtype=complex)
        pca.complete_basis(phi, 3)
        assert np.all(np.isnan(phi))

    def test_peak_holds_small_arrays_only(self):
        # D=2^14, M=100, rank 76: K alone is 19.3 MiB, the k x k and
        # k x (M - rank) arrays 0.1 MiB together
        model = fit_pca(_rank_deficient_set(2**14, 100, 76, seed=96))
        assert model.rank == 76
        phi = np.array(model.basis)
        assert peak_bytes(lambda: pca.complete_basis(phi, 76)) < 2**20
        assert phi.tobytes() == model.basis.tobytes()


def _full_weights(model, v):
    """Weights of a unit D-vector in the whole basis: decimation at d = M+1."""
    return decimate_state(build_map(model, model.count + 1), v)[0]


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


def _pivot_rows(columns):
    """Row of each column's pivot: its first entry at or above (1 - 1e-12) * max."""
    mag = np.abs(columns)
    return np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)


class TestPhaseConvention:
    # the large case: D = 2^13 + 17 rows, eight row blocks of the fit's QR
    CASES = ["full-rank", "rank-deficient", "several-pivot-blocks"]

    @staticmethod
    def _states(case):
        if case == "full-rank":
            return random_state_set(64, 6, seed=45)
        if case == "rank-deficient":
            # 6 states in the span of 2 random vectors: 3 basis columns past the rank
            pair = random_columns(64, 2, seed=46)
            mix = np.array([[1.0, 0.0, 1.0, 1.0, 2.0, 1.0j], [0.0, 1.0, 1.0, -1.0, 1.0, 2.0]])
            raw = pair @ mix
            return validate_state_set(raw / np.linalg.norm(raw, axis=0))
        return random_state_set(2**13 + 17, 8, seed=47)

    @pytest.mark.parametrize("case", CASES)
    def test_every_weight_row_pivot_is_real_positive(self, case):
        model = fit_pca(self._states(case))
        if case == "rank-deficient":
            assert model.rank == 2
        rows = model.weights[1 : model.rank + 1]
        pivots = rows[np.arange(model.rank), _pivot_rows(rows.T)]
        assert np.all(pivots.real > 0.0)
        assert np.all(np.abs(pivots.imag) <= 1e-12 * pivots.real)

    @pytest.mark.parametrize("case", CASES)
    def test_independent_of_the_svd_phases(self, monkeypatch, case):
        # the M x M SVD fixes no phase: any unit p on its vector pairs gives the same model
        s = self._states(case)
        want = fit_pca(s)
        rng = np.random.Generator(np.random.PCG64(48))

        def rotated(m):
            u, sv, vh = svd(m)
            p = np.exp(2j * np.pi * rng.random(sv.size))
            return u * p, sv, np.conj(p)[:, np.newaxis] * vh

        monkeypatch.setattr(pca, "svd", rotated)
        got = fit_pca(s)
        assert got.singular_values.tobytes() == want.singular_values.tobytes()
        assert np.abs(got.basis - want.basis).max() <= 1e-15
        assert np.abs(got.weights - want.weights).max() <= 1e-15


class TestDenseOracle:
    """The fit against numpy's SVD of the deviations (tests/oracle.py), gauge-invariant parts only."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        qubits=st.sampled_from(range(2, 8)),
        high=st.booleans(),
        kind=st.sampled_from(oracle.KINDS),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_matches_the_dense_oracle(self, qubits, high, kind, fraction, seed):
        # M at either edge of the regime 1 <= M <= D-2; blocks of 4 rows at M = 1
        dim = 2**qubits
        count = dim - 2 if high else 1
        r = 1 + int(fraction * (count - 1))
        s = oracle.state_set(kind, dim, count, r, seed)
        with mock.patch.object(pca, "_BLOCK_ROWS", 4):
            model = fit_pca(validate_state_set(s))
        u, e = oracle.deviation_svd(s)
        assert model.rank == oracle.rank(e)
        assert np.abs(model.singular_values - e).max() <= 1e-13 * e[0]
        assert np.abs(model.basis @ model.weights - s).max() <= 1e-13
        # running projectors onto the first k deviation directions of each
        retained, wanted = np.zeros((2, dim, dim), dtype=complex)
        cuts = dict(oracle.gapped_cuts(e))
        for k in range(1, max(cuts, default=0) + 1):
            b = model.basis[:, k]
            retained += np.outer(b, b.conj())
            wanted += np.outer(u[:, k - 1], u[:, k - 1].conj())
            if k in cuts:
                assert np.abs(retained - wanted).max() <= 1e-13 * e[0] / cuts[k], k
