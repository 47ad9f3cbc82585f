"""Principal-component model of a state set.

The model holds an isometric basis of M+1 columns: column 0 is the
normalized uniform superposition carrying each state's mean, columns
1..M are the left singular vectors of the deviation matrix ordered by
descending singular value. Weights are the exact expansion coefficients
of every input state in that basis.

When the deviations have rank r < M, or the singular vectors are not
orthonormal to column 0 within tolerance, one Householder QR of
[uniform | first r singular vectors | first M-r canonical vectors]
completes the basis: column k keeps the order and phase of the vector
it came from, and the filler columns are orthonormal by construction.
The Gram check afterwards only validates; it raises NoConvergence.

A state is rebuilt from its weights as ``model.basis @ w``; the numerical
rank is the same function of the singular values whether the model was
just fitted or read back from a file (``numerical_rank``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroDeviations, NoConvergence
from .numerics import DEFAULT_TOL, Tolerances, svd
from .stateset import StateSet, column_means, deviation_matrix

__all__ = ["PcaModel", "fit_pca", "importances"]


@dataclass(frozen=True)
class PcaModel:
    """Fitted basis, singular values, and per-state weights.

    basis:           D x (M+1) isometry; column 0 is ones(D)/sqrt(D)
    singular_values: M deviation singular values, descending
    weights:         (M+1) x M; column mu expands state mu in the basis
    rank:            singular values above rank_rel * e_1 (the rest count
                     as zero; their basis columns come from the QR of the
                     leading canonical vectors against the retained
                     columns, and their weight rows are zero)
    """

    dim: int
    count: int
    basis: np.ndarray
    singular_values: np.ndarray
    weights: np.ndarray
    rank: int


def numerical_rank(sv: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above tol.rank_rel * e_1; sv is descending."""
    return int(np.sum(sv > tol.rank_rel * (float(sv[0]) if sv.size else 0.0)))


def _gram_deviation(phi: np.ndarray) -> float:
    return float(np.abs(phi.conj().T @ phi - np.eye(phi.shape[1])).max())


def fit_pca(s: StateSet, tol: Tolerances = DEFAULT_TOL) -> PcaModel:
    """Fit the mean-plus-deviations PCA model of a state set.

    Raises NoConvergence if the completed basis is not orthonormal
    within tol.base.
    """
    dim, count = s.dim, s.count
    means = column_means(s)
    u, sv, vh = svd(deviation_matrix(s, means), tol)
    rank = numerical_rank(sv, tol)

    phi = np.empty((dim, count + 1), dtype=np.complex128)
    phi[:, 0] = 1.0 / math.sqrt(dim)
    phi[:, 1 : rank + 1] = u[:, :rank]
    if rank < count or _gram_deviation(phi) > tol.base:
        phi[:, rank + 1 :] = np.eye(dim, count - rank)
        q, r = np.linalg.qr(phi)
        # the phase of R_kk turns Q_k back onto input column k
        diag = np.diagonal(r)
        mag = np.abs(diag)
        phase = np.ones_like(diag)
        np.divide(diag, mag, out=phase, where=mag > 0.0)
        phi = q * phase
        phi[:, 0] = 1.0 / math.sqrt(dim)
        gram_dev = _gram_deviation(phi)
        if gram_dev > tol.base:
            raise NoConvergence(f"fitted basis not orthonormal (deviation {gram_dev:.3e})")

    weights = np.zeros((count + 1, count), dtype=np.complex128)
    weights[0, :] = math.sqrt(dim) * means
    weights[1 : rank + 1, :] = sv[:rank, np.newaxis] * vh[:rank, :]

    phi.setflags(write=False)
    weights.setflags(write=False)
    return PcaModel(
        dim=dim,
        count=count,
        basis=phi,
        singular_values=sv,
        weights=weights,
        rank=rank,
    )


def importances(model: PcaModel) -> np.ndarray:
    """All M fractional contributions; they sum to 1."""
    total = float(np.sum(model.singular_values))
    if total <= 0.0:
        raise AllZeroDeviations("every deviation singular value is zero")
    return model.singular_values / total
