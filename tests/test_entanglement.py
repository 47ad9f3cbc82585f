import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    BadQubitIndex,
    DimMismatch,
    EntropyCurve,
    NonFinite,
    NotDensityMatrix,
    NotPowerOfTwo,
    QubitFactorization,
    ZeroNorm,
    entropy_vs_dimension_curve,
    fit_pca,
    random_state_set,
    random_state_vector,
    reduced_density_matrix,
    saturation_dimension,
    validate_state_set,
    von_neumann_entropy,
)

from qdecimate.entanglement import _qubit_entropies

from helpers import (
    dense_reduced_density_matrix,
    entropy_2x2_analytic,
    entropy_eigvalsh,
    peak_bytes,
)


class TestFactorization:
    def test_power_of_two(self):
        assert QubitFactorization.from_dim(16).n == 4
        assert QubitFactorization.from_dim(2).n == 1

    def test_not_power_of_two(self):
        for dim in (0, 12, 15, -4):
            with pytest.raises(NotPowerOfTwo):
                QubitFactorization.from_dim(dim)

    def test_dim_round_trip(self):
        assert QubitFactorization(n=5).dim == 32


class TestReducedDensityMatrix:
    def test_product_state(self):
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # |00>
        rho = reduced_density_matrix(v, QubitFactorization(n=2), 1)
        assert np.abs(rho - np.diag([1.0, 0.0])).max() <= 1e-15

    def test_bell_pair(self):
        v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
        rho = reduced_density_matrix(v, QubitFactorization(n=2), 2)
        assert np.abs(rho - np.eye(2) / 2.0).max() <= 1e-15

    def test_big_endian_ordering(self):
        # |0> on qubit 1 tensor (alpha|0> + beta|1>) on qubit 2
        alpha, beta = 0.6, 0.8j
        v = np.array([alpha, beta, 0.0, 0.0], dtype=complex)
        f = QubitFactorization(n=2)
        rho1 = reduced_density_matrix(v, f, 1)
        assert np.abs(rho1 - np.diag([1.0, 0.0])).max() <= 1e-15
        rho2 = reduced_density_matrix(v, f, 2)
        expected = np.array(
            [[abs(alpha) ** 2, alpha * np.conj(beta)], [np.conj(alpha) * beta, abs(beta) ** 2]]
        )
        assert np.abs(rho2 - expected).max() <= 1e-15

    def test_matches_dense_oracle(self):
        # independent route: full outer product plus explicit index sums
        v = random_state_vector(16, seed=80)
        f = QubitFactorization(n=4)
        for q in range(1, 5):
            got = reduced_density_matrix(v, f, q)
            want = dense_reduced_density_matrix(v, 4, q)
            assert np.abs(got - want).max() <= 1e-12

    def test_qubit_index_bounds(self):
        v = random_state_vector(16, seed=81)
        f = QubitFactorization(n=4)
        for q in (0, 5, -1):
            with pytest.raises(BadQubitIndex):
                reduced_density_matrix(v, f, q)

    def test_length_mismatch(self):
        with pytest.raises(DimMismatch):
            reduced_density_matrix(np.zeros(8, dtype=complex), QubitFactorization(n=4), 1)

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=5),
        q_offset=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_trace_preservation_random(self, n, q_offset, seed):
        q = 1 + (q_offset % n)
        v = random_state_vector(2**n, seed=seed)
        rho = reduced_density_matrix(v, QubitFactorization(n=n), q)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert abs(np.trace(rho).imag) <= 1e-14


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2.0) - math.log(2)) <= 1e-12

    def test_scalar_evaluation(self):
        # oracle: direct scalar formula -sum(lam ln lam)
        want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert abs(von_neumann_entropy(np.diag([0.75, 0.25])) - want) <= 1e-12
        assert abs(want - 0.5623351446188083) <= 1e-15

    def test_trace_violation(self):
        with pytest.raises(NotDensityMatrix):
            von_neumann_entropy(np.diag([0.9, 0.3]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NotDensityMatrix):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("scale", [1 - 9.9e-10, 1 - 4e-10, 1 + 4e-10, 1 + 9.9e-10])
    def test_trace_of_an_admitted_state(self, scale):
        # a column norm that validation admits (within state_norm of 1) squares
        # to a trace within 2 * state_norm; the entropy is that of rho / tr(rho)
        v = random_state_vector(16, seed=160) * scale
        validate_state_set(v[:, None])
        rho = reduced_density_matrix(v, QubitFactorization(n=4), 2)
        want = entropy_eigvalsh(rho / np.trace(rho).real)
        assert abs(von_neumann_entropy(rho) - want) <= 1e-12

    @pytest.mark.parametrize("trace", [1 - 2.2e-9, 1 + 2.2e-9])
    def test_trace_beyond_the_admitted_bound(self, trace):
        with pytest.raises(NotDensityMatrix, match="trace"):
            von_neumann_entropy(np.diag([0.75, 0.25]) * trace)

    def test_non_hermitian(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotDensityMatrix):
            von_neumann_entropy(rho)

    def test_not_one_qubit_refused(self):
        for rho in (np.eye(4) / 4.0, np.array([[1.0]]), np.full(2, 0.5)):
            with pytest.raises(NotDensityMatrix):
                von_neumann_entropy(rho)

    @pytest.mark.parametrize("bad", ["all-nan", "one-inf"])
    def test_non_finite_refused(self, bad):
        rho = np.full((2, 2), np.nan) if bad == "all-nan" else np.diag([1.0, np.inf])
        with pytest.raises(NonFinite):
            von_neumann_entropy(rho)

    def test_closed_form_rejects_negative_eigenvalue(self):
        # the curve's 2x2 spectra: |rho01|^2 = 0.3 > rho00 * rho11 = 0.25
        half = np.array([0.5])
        with pytest.raises(NotDensityMatrix):
            _qubit_entropies(half, half, np.array([0.3]))
        assert _qubit_entropies(half, half, np.array([0.25 + 1e-13]))[0] == 0.0

    def test_tiny_negative_eigenvalue_clipped(self):
        rho = np.diag([1.0 + 1e-13, -1e-13])
        assert von_neumann_entropy(rho) >= 0.0

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_entropy_range_random(self, n, seed):
        v = random_state_vector(2**n, seed=seed)
        rho = reduced_density_matrix(v, QubitFactorization(n=n), 1)
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= math.log(2) + 1e-9

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=5),
        q_offset=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_eigvalsh_oracle(self, n, q_offset, seed):
        v = random_state_vector(2**n, seed=seed)
        rho = reduced_density_matrix(v, QubitFactorization(n=n), 1 + q_offset % n)
        assert abs(von_neumann_entropy(rho) - entropy_eigvalsh(rho)) <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_two_qubit_complementarity(self, seed):
        v = random_state_vector(4, seed=seed)
        f = QubitFactorization(n=2)
        s1 = von_neumann_entropy(reduced_density_matrix(v, f, 1))
        s2 = von_neumann_entropy(reduced_density_matrix(v, f, 2))
        assert abs(s1 - s2) <= 1e-10


class TestCurve:
    def test_uniform_states_give_zero_column(self):
        raw = np.full((16, 3), 0.25, dtype=complex)
        s = validate_state_set(raw)
        curve = entropy_vs_dimension_curve(s, fit_pca(s), 1, 1)
        assert len(curve.points) == 4
        assert all(abs(value) <= 1e-12 for _, value in curve.points)

    def test_endpoint_matches_fine_entropy(self):
        s = random_state_set(16, 5, seed=82)
        model = fit_pca(s)
        f = QubitFactorization(n=4)
        for mu in (1, 3, 5):
            curve = entropy_vs_dimension_curve(s, model, mu, 2)
            fine = entropy_eigvalsh(reduced_density_matrix(s.column(mu), f, 2))
            assert abs(curve.points[-1][1] - fine) <= 1e-8

    @staticmethod
    def _rank_two_set():
        # 6 states in the span of 2 random vectors: the deviations have rank <= 2
        pair = random_state_set(16, 2, seed=88).matrix
        mix = np.array([[1.0, 0.0, 1.0, 1.0, 2.0, 1.0j], [0.0, 1.0, 1.0, -1.0, 1.0, 2.0]])
        raw = pair @ mix
        return validate_state_set(raw / np.linalg.norm(raw, axis=0))

    @staticmethod
    def _blocked_set():
        # D = 2^10 spans several row blocks of the curve at every qubit
        return random_state_set(2**10, 6, seed=90)

    # q = 1 and 3 slice the lower bits of a block; q = 9 and 10 group higher bits
    CURVE_CASES = (
        [("random", 2, q) for q in (1, 2, 3, 4)]
        + [("rank-2", mu, 2) for mu in (1, 4, 6)]
        + [("blocked", 4, q) for q in (1, 3, 9, 10)]
    )

    @pytest.mark.parametrize(
        "case, mu, q", CURVE_CASES, ids=[f"{c}-mu{mu}-q{q}" for c, mu, q in CURVE_CASES]
    )
    def test_matches_independent_pipeline(self, case, mu, q):
        # truncate by explicit loop, dense partial trace, closed-form 2x2 entropy
        s = {
            "random": lambda: random_state_set(16, 5, seed=83),
            "rank-2": self._rank_two_set,
            "blocked": self._blocked_set,
        }[case]()
        model = fit_pca(s)
        if case == "rank-2":
            assert model.rank <= 2
        curve = entropy_vs_dimension_curve(s, model, mu, q)
        assert [d for d, _ in curve.points] == list(range(1, s.count + 2))
        n = s.dim.bit_length() - 1
        for d, value in curve.points:
            vec = np.zeros(s.dim, dtype=complex)
            for k in range(d):
                vec += model.weights[k, mu - 1] * model.basis[:, k]
            vec = vec / math.sqrt(sum(abs(x) ** 2 for x in vec))
            rho = dense_reduced_density_matrix(vec, n, q)
            assert abs(value - entropy_2x2_analytic(rho)) <= 1e-10

    @pytest.mark.parametrize("q", [1, 3, 9, 10])
    def test_mean_component_is_exactly_pure_across_blocks(self, q):
        # the uniform d=1 reconstruction has equal bit-q halves in every block
        s = self._blocked_set()
        curve = entropy_vs_dimension_curve(s, fit_pca(s), 2, q)
        assert curve.points[0] == (1, 0.0)

    def test_zero_mean_component_raises_at_d1(self):
        # (|0...0> - |1...1>)/sqrt(2) is orthogonal to the uniform superposition;
        # D = 2^10 spans several row blocks of the curve
        for dim in (8, 2**10):
            ghz_minus = np.zeros(dim, dtype=complex)
            ghz_minus[0], ghz_minus[-1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
            others = random_state_set(dim, 2, seed=89).matrix
            s = validate_state_set(np.column_stack([others[:, 0], ghz_minus, others[:, 1]]))
            with pytest.raises(ZeroNorm, match="d=1 "):
                entropy_vs_dimension_curve(s, fit_pca(s), 2, 1)

    def test_holds_a_row_block_not_the_basis(self):
        # the running sums live in one block of rows, never in a D x (M+1) array
        s = random_state_set(2**12, 60, seed=91)
        model = fit_pca(s)
        peak = peak_bytes(lambda: entropy_vs_dimension_curve(s, model, 7, 5))
        assert peak < model.basis.nbytes / 4, f"peak {peak / model.basis.nbytes:.2f} bases"

    def test_points_cover_all_dimensions(self):
        s = random_state_set(16, 3, seed=84)
        curve = entropy_vs_dimension_curve(s, fit_pca(s), 1, 1)
        assert [d for d, _ in curve.points] == [1, 2, 3, 4]

    def test_non_power_of_two_rejected(self):
        s = random_state_set(12, 3, seed=85)
        with pytest.raises(NotPowerOfTwo):
            entropy_vs_dimension_curve(s, fit_pca(s), 1, 1)

    def test_index_validation(self):
        s = random_state_set(16, 3, seed=86)
        model = fit_pca(s)
        with pytest.raises(DimMismatch):
            entropy_vs_dimension_curve(s, model, 0, 1)
        with pytest.raises(DimMismatch):
            entropy_vs_dimension_curve(s, model, 4, 1)
        with pytest.raises(BadQubitIndex):
            entropy_vs_dimension_curve(s, model, 1, 5)

    def test_state_set_and_model_of_other_shapes_rejected(self):
        model = fit_pca(random_state_set(16, 3, seed=1))
        with pytest.raises(DimMismatch, match="disagree on dimensions"):
            entropy_vs_dimension_curve(random_state_set(16, 4, seed=2), model, 1, 1)

    def test_entropy_values_within_qubit_bound(self):
        s = random_state_set(32, 6, seed=87)
        curve = entropy_vs_dimension_curve(s, fit_pca(s), 4, 5)
        assert all(0.0 <= value <= math.log(2) + 1e-9 for _, value in curve.points)


class TestSaturation:
    def test_known_curve(self):
        curve = EntropyCurve(
            state_index=1,
            qubit=1,
            points=((1, 0.0), (2, 0.2), (3, 0.69), (4, 0.70), (5, 0.70)),
        )
        # band is 0.05 * 0.70 = 0.035; first d inside is 3
        assert saturation_dimension(curve) == 3

    def test_all_zero_curve(self):
        curve = EntropyCurve(state_index=1, qubit=1, points=((1, 0.0), (2, 0.0), (3, 0.0)))
        assert saturation_dimension(curve) == 1

    def test_endpoint_always_qualifies(self):
        curve = EntropyCurve(state_index=1, qubit=1, points=((1, 0.5), (2, 0.1), (3, 0.4)))
        assert saturation_dimension(curve) == 3
