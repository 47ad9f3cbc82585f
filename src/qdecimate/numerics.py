"""Dense complex linear algebra kernels with fixed conventions.

Thin wrappers around numpy's LAPACK bindings that add input validation,
a deterministic phase convention for singular vectors, and a shared
tolerance record. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite, NotHermitian


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical tolerances.

    base:             orthonormality / reconstruction / hermiticity checks
    state_norm:       unit-norm validation of input state vectors
    zero_norm:        absolute cutoff below which renormalization is refused
    expectation_imag: allowed imaginary residue of a Hermitian expectation
    rank_rel:         singular values below rank_rel * e_1 count as zero
    psd_slack:        how negative a density-matrix eigenvalue may be
    """

    base: float = 1e-10
    state_norm: float = 1e-9
    zero_norm: float = 1e-14
    expectation_imag: float = 1e-8
    rank_rel: float = 1e-12
    psd_slack: float = 1e-12


DEFAULT_TOL = Tolerances()


def check_finite(m: np.ndarray, name: str = "matrix") -> None:
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{name} contains NaN or Inf entries")


def check_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT_TOL, name: str = "matrix") -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"{name} is not square: shape {m.shape}")
    check_finite(m, name)
    scale = max(np.abs(m).max(), 1.0) if m.size else 1.0
    if np.abs(m - m.conj().T).max() > tol.base * scale:
        raise NotHermitian(f"{name} deviates from its conjugate transpose beyond tolerance")


def _fix_phases(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each left vector so its largest-magnitude entry is real positive.

    The inverse phase goes to the matching right vector, preserving the
    product u @ diag(s) @ vh exactly.
    """
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


def svd(
    m: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD ``m = u @ diag(s) @ vh``, returned as ``(u, s, vh)``.

    Singular values are non-negative and descending; u has orthonormal
    columns and vh orthonormal rows. Phases are fixed so that the
    largest-magnitude entry of each column of u is real and positive.
    """
    # C-contiguous input so equal values give bit-identical backend output
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise NonFinite(f"svd expects a non-empty 2-d matrix, got shape {m.shape}")
    check_finite(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD backend failed: {exc}") from exc
    u, vh = _fix_phases(u, vh)
    for arr in (u, s, vh):
        arr.setflags(write=False)
    return u, s, vh


def hermitian_eig(
    m: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix, eigenvalues ascending."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    check_hermitian(m, tol)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition backend failed: {exc}") from exc
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v
