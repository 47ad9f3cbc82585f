import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    DEFAULT_TOL,
    NoConvergence,
    NonFinite,
    NotHermitian,
    Tolerances,
)
from qdecimate import numerics
from qdecimate.numerics import (
    _fix_phases,
    check_finite,
    check_hermitian,
    gram_deviation,
    hermitian_eig,
    svd,
)


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

    def test_phase_convention_pivot_real_positive(self):
        u, _, _ = svd(_random_complex(9, 4, seed=3))
        for k in range(4):
            col = u[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0.0
            assert abs(pivot.imag) <= 1e-12 * abs(pivot.real)

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
        with pytest.raises(NonFinite):
            svd(np.zeros((0, 3)))

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



def _fix_phases_loop(u, vh):
    """The column-by-column phase fix with a plain argmax pivot."""
    u = u.copy()
    vh = vh.copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        pivot = col[np.argmax(np.abs(col))]
        mag = abs(pivot)
        if mag == 0.0:
            continue
        phase = pivot / mag
        u[:, k] *= np.conj(phase)
        vh[k, :] *= phase
    return u, vh


class TestFixPhases:
    @pytest.mark.parametrize("rows, cols", [(9, 4), (50, 7), (3, 6), (9000, 3)])
    def test_bit_identical_to_loop_without_ties(self, rows, cols):
        # 9000 rows spans three blocks of the pivot search
        u = _random_complex(rows, cols, seed=rows + cols)
        vh = _random_complex(cols, 5, seed=rows * cols)
        got, want = _fix_phases(u, vh), _fix_phases_loop(u, vh)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()

    def test_round_off_tie_goes_to_the_lowest_row(self):
        u = np.zeros((6, 1), dtype=complex)
        u[1, 0] = 0.6j
        u[4, 0] = -0.6 * (1.0 + 4e-16)  # larger by round-off
        fixed, _ = _fix_phases(u, np.ones((1, 1), dtype=complex))
        assert fixed[1, 0] == 0.6 and fixed[4, 0].imag != 0.0

    def test_pivot_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(numerics, "_PIVOT_ROWS", 4)
        u = _random_complex(23, 5, seed=12)
        u[17, 2] = 10.0j
        u[3, 2] = 10.0 * (1.0 - 1e-9)
        vh = np.eye(5, dtype=complex)
        got, want = _fix_phases(u, vh), _fix_phases_loop(u, vh)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[0][17, 2] == 10.0

    def test_zero_column_unchanged(self):
        u = _random_complex(5, 3, seed=13)
        u[:, 1] = 0.0
        vh = _random_complex(3, 3, seed=14)
        fixed_u, fixed_vh = _fix_phases(u, vh)
        assert np.all(fixed_u[:, 1] == 0.0)
        assert fixed_vh[1].tobytes() == vh[1].tobytes()


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

    def test_tolerances_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_TOL.base = 1.0

    def test_tolerances_defaults(self):
        tol = Tolerances()
        assert tol.base == 1e-10
        assert tol.state_norm == 1e-9
        assert tol.zero_norm == 1e-14
        assert tol.expectation_imag == 1e-8

    def test_noconvergence_is_domain_error(self):
        from qdecimate import DomainError

        assert issubclass(NoConvergence, DomainError)
