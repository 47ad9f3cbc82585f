"""Dense complex linear algebra kernels and the fixed tolerances.

Thin wrappers around numpy's LAPACK bindings that add input validation
and return LAPACK's factors unchanged; singular vectors carry LAPACK's
phases, and the one phase convention is the fit's: ``pca.fit_pca``
passes its right singular vectors to ``pivot_phases``. Every function
leaves its inputs alone except ``adjoint_times``, which overwrites X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimMismatch, NoConvergence, NonFinite, NotHermitian


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical tolerances, all fixed class constants.

    base:             orthonormality / reconstruction / hermiticity checks
    state_norm:       unit-norm validation of input state vectors
    zero_norm:        absolute cutoff below which renormalization is refused
    rank_rel:         singular values below rank_rel * e_1 count as zero
    psd_slack:        how negative a density-matrix eigenvalue may be
    """

    base: ClassVar[float] = 1e-10
    state_norm: ClassVar[float] = 1e-9
    zero_norm: ClassVar[float] = 1e-14
    rank_rel: ClassVar[float] = 1e-12
    psd_slack: ClassVar[float] = 1e-12


DEFAULT_TOL = Tolerances()


def check_finite(m: np.ndarray, name: str = "matrix") -> None:
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{name} contains NaN or Inf entries")


def check_index(value, top: int, error: type[Exception], what: str) -> int:
    """value as an int if it is a 1-based index in 1..top; a bool, float or text never is."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 1 <= value <= top:
        raise error(f"{what} must lie in 1..{top}, got {value}")
    return int(value)


# Rows checked for hermiticity at once: the check holds a few rows, never a matrix
_HERMITIAN_ROWS = 8


def check_hermitian(m: np.ndarray, name: str = "matrix") -> None:
    """Raise NotHermitian if |m - m^dag| passes Tolerances.base times m's scale.

    The scale is m's own: the larger of 1 and m's largest entry.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"{name} is not square: shape {m.shape}")
    scale, deviation = 1.0, 0.0
    for lo in range(0, len(m), _HERMITIAN_ROWS):
        rows, cols = m[lo : lo + _HERMITIAN_ROWS], m[:, lo : lo + _HERMITIAN_ROWS]
        check_finite(rows, name)
        scale = max(scale, np.abs(rows).max())
        deviation = max(deviation, np.abs(rows - cols.T.conj()).max())
    if deviation > Tolerances.base * scale:
        raise NotHermitian(f"{name} deviates from its conjugate transpose beyond tolerance")


# A column's pivot is its first entry whose magnitude reaches this
# fraction of the column's largest magnitude.
_PIVOT_REL = 1.0 - 1e-12


def pivot_phases(u: np.ndarray) -> np.ndarray:
    """Unit phase of each column's pivot entry; 1 for a zero column.

    The pivot is the first entry, in row order, whose magnitude reaches
    (1 - 1e-12) times the column maximum. Entries tied with the maximum
    to round-off therefore resolve to the lowest row, not to whichever
    one round-off made largest.
    """
    mag = np.abs(u)
    first = np.argmax(mag >= _PIVOT_REL * mag.max(axis=0), axis=0)
    pivot = u[first, np.arange(u.shape[1])]
    # hypot, like abs() of one complex scalar; np.abs of a complex array
    # may round differently
    mag = np.hypot(pivot.real, pivot.imag)
    phase = np.ones(u.shape[1], dtype=np.complex128)
    np.divide(pivot, mag, out=phase, where=mag > 0.0)
    return phase


def adjoint_times(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B^dag X as conj(B^T conj(X)): X is overwritten, and no copy of B is made."""
    out = b.T @ np.conjugate(x, out=x)
    return np.conjugate(out, out=out)


def gram(x: np.ndarray) -> np.ndarray:
    """x^H x for a C-order complex128 matrix x.

    It comes from the real view v of x (re and im parts as adjacent
    columns): ``v.T @ v`` is one symmetric rank-k update, and no
    conjugate copy of x is made.
    """
    v = x.view(np.float64)
    g = v.T @ v
    out = np.empty((x.shape[1], x.shape[1]), dtype=np.complex128)
    np.add(g[0::2, 0::2], g[1::2, 1::2], out=out.real)
    np.subtract(g[0::2, 1::2], g[1::2, 0::2], out=out.imag)
    return out


def gram_deviation(x: np.ndarray) -> float:
    """Largest entry of |x^H x - I| for a complex matrix x, by ``gram``.

    NaN when x holds non-finite entries.
    """
    g = gram(np.ascontiguousarray(x, dtype=np.complex128))
    g.real[np.diag_indices_from(g)] -= 1.0
    return float(np.hypot(g.real, g.imag).max())


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD ``m = u @ diag(s) @ vh``, returned as ``(u, s, vh)``.

    Singular values are non-negative and descending; u has orthonormal
    columns and vh orthonormal rows. The factors are LAPACK's: each pair
    of singular vectors carries whatever phase LAPACK gave it.
    """
    # C-contiguous input so equal values give bit-identical backend output
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatch(f"svd expects a non-empty 2-d matrix, got shape {m.shape}")
    check_finite(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD backend failed: {exc}") from exc
    for arr in (u, s, vh):
        arr.setflags(write=False)
    return u, s, vh


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix, eigenvalues ascending."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    check_hermitian(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition backend failed: {exc}") from exc
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v
