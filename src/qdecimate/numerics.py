"""Dense complex linear algebra kernels with fixed conventions.

Thin wrappers around numpy's LAPACK bindings that add input validation,
a deterministic phase convention for singular vectors, and a shared
tolerance record. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NoConvergence, NonFinite, NotHermitian


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical tolerances.

    Only base is settable (the CLI's --tolerance); the rest are fixed
    class constants.

    base:             orthonormality / reconstruction / hermiticity checks
    state_norm:       unit-norm validation of input state vectors
    zero_norm:        absolute cutoff below which renormalization is refused
    expectation_imag: allowed imaginary residue of a Hermitian expectation
    rank_rel:         singular values below rank_rel * e_1 count as zero
    psd_slack:        how negative a density-matrix eigenvalue may be
    """

    base: float = 1e-10
    state_norm: ClassVar[float] = 1e-9
    zero_norm: ClassVar[float] = 1e-14
    expectation_imag: ClassVar[float] = 1e-8
    rank_rel: ClassVar[float] = 1e-12
    psd_slack: ClassVar[float] = 1e-12


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


# A column's pivot is its first entry whose magnitude reaches this
# fraction of the column's largest magnitude.
_PIVOT_REL = 1.0 - 1e-12
# Rows of a matrix whose magnitudes are taken at once by pivot_phases.
_PIVOT_ROWS = 4096


def pivot_phases(u: np.ndarray) -> np.ndarray:
    """Unit phase of each column's pivot entry; 1 for a zero column.

    The pivot is the first entry, in row order, whose magnitude reaches
    (1 - 1e-12) times the column maximum. Entries tied with the maximum
    to round-off therefore resolve to the lowest row, not to whichever
    one round-off made largest. Magnitudes are taken a block of rows at
    a time, so no temporary is as large as u.
    """
    rows, cols = u.shape
    top = np.zeros(cols)
    for lo in range(0, rows, _PIVOT_ROWS):
        np.maximum(top, np.abs(u[lo : lo + _PIVOT_ROWS]).max(axis=0), out=top)
    threshold = _PIVOT_REL * top
    pivot = np.zeros(cols, dtype=np.complex128)
    open_cols = np.arange(cols)
    for lo in range(0, rows, _PIVOT_ROWS):
        if open_cols.size == 0:
            break
        block = u[lo : lo + _PIVOT_ROWS, open_cols]
        hit = np.abs(block) >= threshold[open_cols]
        found = hit.any(axis=0)
        first = hit.argmax(axis=0)[found]
        pivot[open_cols[found]] = block[first, np.nonzero(found)[0]]
        open_cols = open_cols[~found]
    # hypot, like abs() of one complex scalar; np.abs of a complex array
    # may round differently
    mag = np.hypot(pivot.real, pivot.imag)
    phase = np.ones(cols, dtype=np.complex128)
    np.divide(pivot, mag, out=phase, where=mag > 0.0)
    return phase


def _fix_phases(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each left vector so its pivot entry (``pivot_phases``) is real positive.

    The inverse phase goes to the matching right vector, preserving the
    product u @ diag(s) @ vh exactly.
    """
    phase = pivot_phases(u)
    return u * np.conj(phase), vh * phase[:, np.newaxis]


def gram_deviation(x: np.ndarray) -> float:
    """Largest entry of |x^H x - I| for a complex matrix x.

    The Gram matrix comes from the real view v of x (re and im parts as
    adjacent columns): ``v.T @ v`` is one symmetric rank-k update, and
    no conjugate copy of x is made. NaN when x holds non-finite entries.
    """
    v = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    g = v.T @ v
    re = g[0::2, 0::2] + g[1::2, 1::2]
    im = g[0::2, 1::2] - g[1::2, 0::2]
    re[np.diag_indices_from(re)] -= 1.0
    return float(np.hypot(re, im).max())


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD ``m = u @ diag(s) @ vh``, returned as ``(u, s, vh)``.

    Singular values are non-negative and descending; u has orthonormal
    columns and vh orthonormal rows. Phases are fixed so that the pivot
    entry of each column of u (``pivot_phases``: its largest-magnitude
    entry, ties going to the lowest row) is real and positive.
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
