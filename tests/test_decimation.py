import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    BadDimension,
    DimMismatch,
    DomainError,
    NonFinite,
    NotHermitian,
    PcaModel,
    ZeroNorm,
    build_map,
    coarse_grain_operator,
    decimate_state,
    fit_pca,
    outside_span,
    random_state_set,
    retained_power,
    select_dimension,
    validate_state_set,
)

from qdecimate import decimation, numerics

from helpers import (
    brute_force_minimal_d,
    peak_bytes,
    random_columns,
    random_hermitian_oracle,
    real_expectation,
)


def _weights_model(columns):
    """A valid model carrying prescribed weight columns (selection tests only).

    Its basis is the first M+1 columns of the unitary DFT matrix, whose
    column 0 is exactly u0.
    """
    w = np.asarray(columns, dtype=complex)
    rows, count = w.shape
    return PcaModel(
        basis=np.fft.fft(np.eye(rows + 2))[:, :rows] / np.sqrt(rows + 2),
        singular_values=np.linspace(1.0, 0.5, count),
        weights=w,
    )


class TestBuildMap:
    def test_full_dimension_is_whole_adjoint(self):
        model = fit_pca(random_state_set(16, 3, seed=50))
        b = build_map(model, 4)
        assert np.array_equal(b.conj().T, model.basis.conj().T)

    def test_columns_are_a_read_only_view_of_the_basis(self):
        model = fit_pca(random_state_set(16, 3, seed=54))
        b = build_map(model, 3)
        assert not b.flags.writeable
        assert np.shares_memory(b, model.basis)
        assert np.array_equal(b, model.basis[:, :3])

    def test_map_allocates_no_vector(self):
        # the map is a view of the basis: at d = M+1 it makes no D-vector
        model = fit_pca(random_state_set(2**12, 40, seed=59))
        peak = peak_bytes(lambda: build_map(model, 41))
        assert peak < 16 * model.dim, f"peak {peak} bytes"

    def test_row_orthonormality(self):
        model = fit_pca(random_state_set(16, 3, seed=51))
        for d in (2, 3, 4):
            g = build_map(model, d).conj().T
            assert np.abs(g @ g.conj().T - np.eye(d)).max() <= 1e-10

    def test_maps_states_to_leading_weights(self):
        s = random_state_set(16, 3, seed=52)
        model = fit_pca(s)
        g = build_map(model, 3).conj().T
        for mu in range(1, 4):
            out = g @ s.column(mu)
            assert np.abs(out - model.weights[:3, mu - 1]).max() <= 1e-10

    def test_dimension_bounds(self):
        # every d outside [2, M+1], M = 3, is refused before a view is made
        model = fit_pca(random_state_set(16, 3, seed=53))
        for d in (-1, 0, 1, 5):
            with pytest.raises(BadDimension):
                build_map(model, d)


class TestDecimateState:
    def test_uniform_superposition(self):
        model = fit_pca(random_state_set(16, 3, seed=54))
        v = np.full(16, 0.25, dtype=complex)
        weights, power = decimate_state(build_map(model, 2), v)
        expected = np.zeros(2, dtype=complex)
        expected[0] = 1.0
        assert np.abs(weights - expected).max() <= 1e-12
        assert abs(math.sqrt(power) - 1.0) <= 1e-12
        assert not outside_span(model, v)
        assert weights.shape == (2,) and not weights.flags.writeable

    def test_no_truncated_mass(self):
        model = fit_pca(random_state_set(16, 3, seed=55))
        w = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
        v = model.basis @ w
        with pytest.raises(BadDimension):
            build_map(model, 1)
        weights, power = decimate_state(build_map(model, 2), v)
        assert np.abs(weights - np.array([0.6, 0.8])).max() <= 1e-10
        assert abs(math.sqrt(power) - 1.0) <= 1e-10

    def test_norm_before_matches_stored_weights(self):
        s = random_state_set(16, 3, seed=56)
        model = fit_pca(s)
        cg = build_map(model, 2)
        for mu in range(1, 4):
            _, power = decimate_state(cg, s.column(mu))
            w = model.weights[:, mu - 1]
            expected = abs(w[0]) ** 2 + abs(w[1]) ** 2
            assert abs(power - expected) <= 1e-10

    def test_zero_norm_raises(self):
        model = fit_pca(random_state_set(16, 3, seed=57))
        v = model.basis[:, 3]  # orthogonal to the first two components
        with pytest.raises(ZeroNorm):
            decimate_state(build_map(model, 2), v)

    def test_outside_span_flag(self):
        model = fit_pca(random_state_set(16, 3, seed=58))
        v = np.zeros(16, dtype=complex)
        v[7] = 1.0
        assert outside_span(model, v)
        inside_vec = model.basis @ np.ones(4) / 2.0
        assert not outside_span(model, inside_vec)
        # small out-of-span amplitudes must be flagged too
        off = v - model.basis @ (model.basis.conj().T @ v)
        off /= np.linalg.norm(off)
        for amp in (1e-6, 1e-8):
            assert outside_span(model, inside_vec + amp * off)

    def test_a_completion_column_lies_outside(self):
        # 150 complex mixtures of 8 states: the data reached columns 0..8 of
        # the basis, and column 9 onwards only complete it
        base = random_state_set(2**10, 8, 1).matrix
        rng = np.random.Generator(np.random.PCG64([1, 8]))
        mixed = base @ (rng.standard_normal((8, 150)) + 1j * rng.standard_normal((8, 150)))
        model = fit_pca(validate_state_set(mixed / np.linalg.norm(mixed, axis=0)))
        assert model.rank == 8
        assert not outside_span(model, model.basis[:, 8])
        assert outside_span(model, model.basis[:, 9])
        assert outside_span(model, model.basis[:, 150])

    def test_outside_span_checks_its_input(self):
        model = fit_pca(random_state_set(16, 3, seed=60))
        with pytest.raises(DimMismatch):
            outside_span(model, np.zeros(5, dtype=complex))
        v = model.basis[:, 0].copy()
        v[5] = np.nan
        with pytest.raises(NonFinite):
            outside_span(model, v)
        # the caller's vector is left as it was
        assert np.isnan(v[5]) and np.array_equal(v[:5], model.basis[:5, 0])

    def test_reads_only_the_retained_columns(self, monkeypatch):
        # one adjoint product per state, against the D x d retained block only
        model = fit_pca(random_state_set(64, 9, seed=63))
        v = random_state_set(64, 1, seed=64).column(1)
        before = v.copy()
        seen = []

        def record(b, x):
            seen.append(b)
            return numerics.adjoint_times(b, x)

        monkeypatch.setattr(decimation, "adjoint_times", record)
        for d in (2, 5, 10):
            decimate_state(build_map(model, d), v)
        assert [b.shape for b in seen] == [(64, 2), (64, 5), (64, 10)]
        assert all(np.shares_memory(b, model.basis) for b in seen)
        assert np.array_equal(v, before)

    @pytest.mark.parametrize("case", ["full-rank", "rank-deficient"])
    def test_fitted_states_match_retained_power_table(self, case):
        # decimating a fitted state is slicing its weight column and renormalizing
        if case == "full-rank":
            model = fit_pca(random_state_set(32, 6, seed=65))
        else:
            mixed = random_columns(32, 3, 66) @ random_columns(3, 8, 67)
            model = fit_pca(validate_state_set(mixed / np.linalg.norm(mixed, axis=0)))
        assert (model.rank == model.count) == (case == "full-rank")
        power = retained_power(model)
        for d in sorted({2, model.rank + 1, model.count + 1}):
            cg = build_map(model, d)
            for mu in range(model.count):
                weights, got = decimate_state(cg, model.basis @ model.weights[:, mu])
                assert abs(got - power[d - 1, mu]) <= 1e-12
                want = model.weights[:d, mu] / math.sqrt(power[d - 1, mu])
                assert np.abs(weights - want).max() <= 1e-12

    def test_normalized_output(self):
        s = random_state_set(16, 3, seed=59)
        model = fit_pca(s)
        weights, _ = decimate_state(build_map(model, 2), s.column(1))
        assert abs(np.linalg.norm(weights) - 1.0) <= 1e-10

    def test_dim_mismatch(self):
        model = fit_pca(random_state_set(16, 3, seed=60))
        with pytest.raises(DimMismatch):
            decimate_state(build_map(model, 2), np.zeros(5, dtype=complex))

    @pytest.mark.parametrize("bad", ["all-nan", "one-inf"])
    def test_non_finite_state_refused(self, bad):
        model = fit_pca(random_state_set(16, 3, seed=60))
        v = np.full(16, np.nan, dtype=complex)
        if bad == "one-inf":
            v = model.basis[:, 0].copy()
            v[5] = np.inf
        with pytest.raises(NonFinite):
            decimate_state(build_map(model, 2), v)

    def test_nested_consistency(self):
        s = random_state_set(24, 5, seed=61)
        model = fit_pca(s)
        for mu in range(1, 6):
            v = s.column(mu)
            for d in (4, 6):
                for d_prime in (2, 3):
                    direct = decimate_state(build_map(model, d_prime), v)[0]
                    via_d = decimate_state(build_map(model, d), v)[0]
                    truncated = via_d[:d_prime]
                    truncated = truncated / np.linalg.norm(truncated)
                    assert np.abs(direct - truncated).max() <= 1e-10


class TestSelectDimension:
    def test_clamp_to_two(self):
        # cumulative power at d=1 is 0.64 >= 0.5 but the floor is d=2
        model = _weights_model(np.array([[0.8], [0.6]]))
        assert select_dimension(model, 0.5, state=1) == 2

    def test_cumulative_arithmetic(self):
        # three weight rows need M = 2 states; the second one is not asked about
        cols = np.array([[0.6, 1.0], [0.6, 0.0], [math.sqrt(0.28), 0.0]])
        model = _weights_model(cols)
        assert select_dimension(model, 0.2, state=1) == 3

    def test_set_max_is_max_of_per_state(self):
        s = random_state_set(32, 4, seed=62)
        model = fit_pca(s)
        eps = 0.05
        per_state = [
            select_dimension(model, eps, state=mu)
            for mu in range(1, 5)
        ]
        got = select_dimension(model, eps)
        assert type(got) is int and got == max(per_state)

    def test_matches_brute_force_scan(self):
        # exhaustive-scan oracle, exact equality required, on a full-rank set
        # and a rank-2 one (weight rows past the rank are exactly zero)
        pair = random_state_set(32, 2, seed=64).matrix
        mix = np.array([[1.0, 0.0, 1.0, 1.0, 2.0, 1.0j], [0.0, 1.0, 1.0, -1.0, 1.0, 2.0]])
        raw = pair @ mix
        rank_two = fit_pca(validate_state_set(raw / np.linalg.norm(raw, axis=0)))
        assert rank_two.rank == 2
        never_reached = 0
        for model in (fit_pca(random_state_set(32, 6, seed=63)), rank_two):
            for eps in (0.0, 1e-15, 1e-6, 0.01, 0.1, 0.5, 0.9):
                for mu in range(1, 7):
                    got = select_dimension(model, eps, state=mu)
                    want = brute_force_minimal_d(model.weights[:, mu - 1], eps)
                    assert got == want
            # at eps=0 a total power that rounds below 1 needs all M+1 components
            for mu in range(1, 7):
                if retained_power(model)[-1, mu - 1] < 1.0:
                    never_reached += 1
                    got = select_dimension(model, 0.0, state=mu)
                    assert got == model.count + 1
        assert never_reached > 0

    def test_retained_power_table(self):
        # sequential re^2 + im^2 partial sums, as in the brute-force oracle: exact
        model = fit_pca(random_state_set(16, 4, seed=69))
        table = retained_power(model)
        assert table.shape == (5, 4)
        for mu in range(4):
            running = 0.0
            for k in range(5):
                w = model.weights[k, mu]
                running += w.real**2 + w.imag**2
                assert table[k, mu] == running
        assert np.abs(table[-1] - 1.0).max() <= 1e-12

    def test_huge_eps_returns_floor(self):
        model = fit_pca(random_state_set(16, 3, seed=64))
        assert select_dimension(model, 0.999999) == 2

    def test_eps_domain(self):
        model = fit_pca(random_state_set(16, 3, seed=65))
        with pytest.raises(DomainError):
            select_dimension(model, -0.1)
        with pytest.raises(DomainError):
            select_dimension(model, 1.0)

    def test_state_index_range(self):
        model = fit_pca(random_state_set(16, 3, seed=66))
        for state in (0, 4, -1):
            with pytest.raises(DimMismatch):
                select_dimension(model, 0.1, state=state)

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        eps=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    )
    def test_brute_force_agreement_random(self, seed, eps):
        s = random_state_set(24, 5, seed=seed)
        model = fit_pca(s)
        got = select_dimension(model, eps)
        want = max(
            brute_force_minimal_d(model.weights[:, mu], eps) for mu in range(5)
        )
        assert got == want
        assert 2 <= got <= 6


class TestCoarseGrainOperator:
    def test_identity_maps_to_identity(self):
        model = fit_pca(random_state_set(16, 3, seed=67))
        cg = build_map(model, 3)
        out = coarse_grain_operator(cg, np.eye(16))
        assert np.abs(out - np.eye(3)).max() <= 1e-12

    def test_scaled_identity(self):
        model = fit_pca(random_state_set(16, 3, seed=68))
        cg = build_map(model, 3)
        out = coarse_grain_operator(cg, 2.5 * np.eye(16))
        assert np.abs(out - 2.5 * np.eye(3)).max() <= 1e-12

    def test_endpoint_expectations_match_fine(self):
        s = random_state_set(16, 3, seed=69)
        model = fit_pca(s)
        cg = build_map(model, 4)
        op = random_hermitian_oracle(16, seed=70)
        op_cg = coarse_grain_operator(cg, op)
        for mu in range(1, 4):
            fine = real_expectation(s.column(mu), op)
            coarse = real_expectation(model.weights[:, mu - 1], op_cg)
            assert abs(fine - coarse) <= 1e-10

    def test_hermiticity_preserved(self):
        model = fit_pca(random_state_set(16, 3, seed=71))
        cg = build_map(model, 3)
        out = coarse_grain_operator(cg, random_hermitian_oracle(16, seed=72))
        assert np.abs(out - out.conj().T).max() <= 1e-10

    def test_linearity(self):
        model = fit_pca(random_state_set(16, 3, seed=73))
        cg = build_map(model, 3)
        a = random_hermitian_oracle(16, seed=74)
        b = random_hermitian_oracle(16, seed=75)
        combined = coarse_grain_operator(cg, 2.0 * a + 3.0 * b)
        separate = 2.0 * coarse_grain_operator(cg, a) + 3.0 * coarse_grain_operator(cg, b)
        assert np.abs(combined - separate).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        model = fit_pca(random_state_set(16, 3, seed=76))
        cg = build_map(model, 3)
        bad = np.zeros((16, 16), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            coarse_grain_operator(cg, bad)

    def test_rejects_a_non_hermitian_result(self):
        # an operator with apply is never checked as a matrix, only its d x d result
        model = fit_pca(random_state_set(16, 3, seed=76))
        bad = np.zeros((16, 16), dtype=complex)
        bad[0, 1] = 1.0
        op = SimpleNamespace(apply=bad.__matmul__)
        with pytest.raises(NotHermitian):
            coarse_grain_operator(build_map(model, 4), op)

    def test_result_checked_against_its_own_scale(self):
        # 1e8 (I - BB^H) vanishes on the fitted span up to round-off of 1e8,
        # about 1e-8, beside entries of about 2e-3 from 1e-3 H: the result is
        # refused by the rule write_operator and read_operator apply to it
        model = fit_pca(random_state_set(64, 6, seed=1))
        b = model.basis
        op = 1e8 * (np.eye(64) - b @ b.conj().T) + 1e-3 * random_hermitian_oracle(64, seed=3)
        op = (op + op.conj().T) / 2
        with pytest.raises(NotHermitian, match="coarse-grained operator"):
            coarse_grain_operator(build_map(model, 7), op)

    def test_holds_two_blocks_and_the_result(self):
        # op @ B and the d x d result are all that a dense compression holds;
        # a block is the 16 * D * d bytes of the d retained columns
        model = fit_pca(random_state_set(2**10, 40, seed=78))
        op = random_hermitian_oracle(2**10, seed=79)
        cg = build_map(model, 41)
        block, result = 16 * model.dim * cg.shape[1], 16 * cg.shape[1] ** 2
        peak = peak_bytes(lambda: coarse_grain_operator(cg, op))
        assert peak <= 2 * block + result, f"peak {peak / block:.2f} blocks"

    def test_hermiticity_check_holds_a_few_rows(self):
        # the check of the input reads 8 rows at a time and holds about three
        # such panels of 16 * D bytes; at d = 2 it, not op @ B, sets the peak
        model = fit_pca(random_state_set(2**10, 40, seed=80))
        op = random_hermitian_oracle(2**10, seed=81)
        cg = build_map(model, 2)
        vector = 16 * model.dim
        peak = peak_bytes(lambda: coarse_grain_operator(cg, op))
        bound = 4 * numerics._HERMITIAN_ROWS * vector
        assert peak <= bound, f"peak {peak / vector:.2f} vectors"

    def test_rejects_wrong_dim(self):
        model = fit_pca(random_state_set(16, 3, seed=77))
        cg = build_map(model, 3)
        with pytest.raises(DimMismatch):
            coarse_grain_operator(cg, np.eye(8))
