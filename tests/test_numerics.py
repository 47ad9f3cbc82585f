import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    DEFAULT_TOL,
    DimMismatch,
    NoConvergence,
    NonFinite,
    NotHermitian,
    Tolerances,
)
from qdecimate.numerics import (
    check_finite,
    check_hermitian,
    gram_deviation,
    hermitian_eig,
    pivot_phases,
    svd,
)

from helpers import peak_bytes


def _random_complex(rows, cols, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSvd:
    def test_identity_singular_values(self):
        _, s, _ = svd(np.eye(3))
        assert np.allclose(s, [1.0, 1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((4, 2)))
        assert s.shape == (2,)
        assert np.all(s == 0.0)

    def test_squared_singular_values_match_gram_eigenvalues(self):
        # independent oracle: eigenvalues of m^dag m
        m = _random_complex(8, 3, seed=11)
        _, s, _ = svd(m)
        gram_eigs = np.linalg.eigvalsh(m.conj().T @ m)[::-1]
        assert np.abs(s**2 - gram_eigs).max() <= 1e-10

    def test_thin_shapes(self):
        u, _, vh = svd(_random_complex(8, 3, seed=1))
        assert u.shape == (8, 3)
        assert vh.shape == (3, 3)

    def test_reconstruction(self):
        m = _random_complex(7, 4, seed=2)
        u, s, vh = svd(m)
        rebuilt = u @ np.diag(s) @ vh
        assert np.abs(rebuilt - m).max() <= 1e-10 * np.abs(m).max()

    def test_nan_rejected(self):
        m = np.eye(3, dtype=complex)
        m[1, 1] = np.nan
        with pytest.raises(NonFinite):
            svd(m)

    def test_inf_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.inf
        with pytest.raises(NonFinite):
            svd(m)

    def test_empty_rejected(self):
        # a shape fault, not a value fault
        with pytest.raises(DimMismatch):
            svd(np.zeros((0, 3)))
        with pytest.raises(DimMismatch):
            svd(np.ones(3))

    def test_determinism_bit_identical(self):
        m = _random_complex(10, 5, seed=4)
        a = svd(m)
        b = svd(m.copy())
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_memory_layout_does_not_change_output(self):
        # equal values must give bit-identical factors even for a transposed view
        m = _random_complex(10, 5, seed=7)
        a_u, a_s, _ = svd(m)
        b_u, b_s, _ = svd(np.asfortranarray(m))
        assert a_u.tobytes() == b_u.tobytes()
        assert a_s.tobytes() == b_s.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(
        rows=st.integers(min_value=1, max_value=20),
        cols=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_factor_orthonormality_and_order(self, rows, cols, seed):
        m = _random_complex(rows, cols, seed)
        u, s, vh = svd(m)
        r = min(rows, cols)
        assert np.abs(u.conj().T @ u - np.eye(r)).max() <= 1e-10
        assert np.abs(vh @ vh.conj().T - np.eye(r)).max() <= 1e-10
        assert np.all(s[:-1] >= s[1:])
        assert np.all(s >= 0.0)
        rebuilt = u @ np.diag(s) @ vh
        assert np.abs(rebuilt - m).max() <= 1e-10 * max(np.abs(m).max(), 1.0)



def _pivot_phases_loop(u):
    """Each column's phase, column by column, with a plain argmax pivot."""
    phase = np.ones(u.shape[1], dtype=complex)
    for k in range(u.shape[1]):
        col = u[:, k]
        pivot = col[np.argmax(np.abs(col))]
        mag = abs(pivot)
        if mag != 0.0:
            phase[k] = pivot / mag
    return phase


class TestFixPhases:
    """pivot_phases: the phase of each right singular vector that the fit divides off."""

    @pytest.mark.parametrize("rows, cols", [(9, 4), (50, 7), (3, 6), (9000, 3)])
    def test_bit_identical_to_loop_without_ties(self, rows, cols):
        u = _random_complex(rows, cols, seed=rows + cols)
        assert pivot_phases(u).tobytes() == _pivot_phases_loop(u).tobytes()

    def test_round_off_tie_goes_to_the_lowest_row(self):
        u = np.zeros((6, 1), dtype=complex)
        u[1, 0] = 0.6j
        u[4, 0] = -0.6 * (1.0 + 4e-16)  # larger by round-off
        assert pivot_phases(u)[0] == _pivot_phases_loop(u[:2])[0]
        assert _pivot_phases_loop(u)[0].imag == 0.0

    def test_zero_column_unchanged(self):
        # phase 1: dividing it off leaves the column as it is
        u = _random_complex(5, 3, seed=13)
        u[:, 1] = 0.0
        got = pivot_phases(u)
        assert got[1] == 1.0
        assert got.tobytes() == _pivot_phases_loop(u).tobytes()


class TestGramDeviation:
    def test_matches_the_complex_product(self):
        x = np.linalg.qr(_random_complex(40, 6, seed=15))[0] * 1.001
        x[3, 2] += 0.01j
        direct = np.abs(x.conj().T @ x - np.eye(6)).max()
        assert abs(gram_deviation(x) - direct) <= 1e-15

    def test_orthonormal_columns(self):
        q = np.linalg.qr(_random_complex(64, 9, seed=16))[0]
        assert gram_deviation(q) <= 1e-14
        assert gram_deviation(np.asfortranarray(q)) == gram_deviation(q)

    def test_non_finite_entry_gives_nan(self):
        x = np.eye(4, 2, dtype=complex)
        x[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            assert np.isnan(gram_deviation(x))

class TestHermitianEig:
    def test_diagonal_input(self):
        w, _ = hermitian_eig(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0], atol=1e-12)

    def test_pauli_x_spectrum(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, _ = hermitian_eig(sx)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_trace_identity(self):
        # independent oracle: trace equals eigenvalue sum
        m = _random_complex(6, 6, seed=5)
        m = (m + m.conj().T) / 2
        w, _ = hermitian_eig(m)
        assert abs(np.trace(m).real - w.sum()) <= 1e-10

    def test_not_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            hermitian_eig(m)

    def test_non_square_rejected(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.zeros((2, 3)))

    @settings(deadline=None, max_examples=40)
    @given(
        dim=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_reconstruction_and_unitarity(self, dim, seed):
        m = _random_complex(dim, dim, seed)
        m = (m + m.conj().T) / 2
        w, v = hermitian_eig(m)
        scale = max(np.abs(m).max(), 1.0)
        assert np.all(np.isreal(w))
        assert np.all(np.diff(w) >= 0.0)
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10
        residual = m @ v - v * w[np.newaxis, :]
        assert np.abs(residual).max() <= 1e-9 * scale

    def test_determinism_bit_identical(self):
        m = _random_complex(8, 8, seed=6)
        m = (m + m.conj().T) / 2
        a = hermitian_eig(m)
        b = hermitian_eig(m.copy())
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()


class TestChecks:
    def test_check_finite_passes(self):
        check_finite(np.ones((2, 2), dtype=complex))

    def test_check_finite_complex_nan(self):
        m = np.ones(3, dtype=complex)
        m[2] = complex(0.0, np.nan)
        with pytest.raises(NonFinite):
            check_finite(m)

    def test_check_hermitian_tolerates_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]], dtype=complex)
        check_hermitian(m)

    def test_check_hermitian_scale_spans_every_row(self):
        # the largest entry sits in the last rows, the asymmetry in the first
        m = np.eye(50, dtype=complex)
        m[49, 49] = 1e6
        m[0, 1] = 0.5e-10 * 1e6
        check_hermitian(m)
        m[0, 1] = 2e-10 * 1e6
        with pytest.raises(NotHermitian):
            check_hermitian(m)

    def test_check_hermitian_scale_is_its_own(self):
        # the larger of 1 and the matrix's largest entry: 5 here, 1 for entries of 1e-3
        for diagonal, scale in (([3.0, -5.0, 0.5], 5.0), ([1e-3, 1e-3], 1.0)):
            m = np.diag(diagonal).astype(complex)
            m[0, 1] = 0.9e-10 * scale
            check_hermitian(m)
            m[0, 1] = 1.1e-10 * scale
            with pytest.raises(NotHermitian):
                check_hermitian(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_check_hermitian_non_finite_anywhere(self, bad):
        for i, j in ((0, 0), (3, 40), (40, 3), (49, 49)):
            m = np.eye(50, dtype=complex)
            m[0, 1] = 1.0  # not Hermitian either: the finiteness error comes first
            m[i, j] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFinite):
                    check_hermitian(m)

    def test_check_hermitian_holds_a_few_rows(self):
        # 8 rows at a time: their magnitudes, m^dag's rows, the difference and
        # numpy's buffer of 8192 entries for a strided operand; not a D x D copy
        m = np.eye(1024, dtype=complex)
        vector = 16 * 1024
        peak = peak_bytes(lambda: check_hermitian(m))
        assert peak <= 32 * vector, f"peak {peak / vector:.1f} rows"

    def test_tolerances_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_TOL.base = 1.0

    def test_tolerances_defaults(self):
        tol = Tolerances()
        assert tol.base == 1e-10
        assert tol.state_norm == 1e-9
        assert tol.zero_norm == 1e-14
        assert tol.rank_rel == 1e-12
        assert tol.psd_slack == 1e-12

    def test_noconvergence_is_domain_error(self):
        from qdecimate import DomainError

        assert issubclass(NoConvergence, DomainError)
