"""Principal-component model of a state set.

The model holds an isometric basis of M+1 columns: column 0 is the
normalized uniform superposition u0 carrying each state's mean, columns
1..M are the left singular vectors of the deviation matrix ordered by
descending singular value. Weights are the exact expansion coefficients
of every input state in that basis.

The fit never leaves M+1 dimensions for its factorizations (Chan's
QR-preconditioned SVD, ACM TOMS 8, 72 (1982)). A = [u0 | S] is factored
as Q R by a tall-skinny QR over blocks of rows (Demmel, Grigori, Hoemmen
and Langou, SIAM J. Sci. Comput. 34 (2012) A206): each block's QR, then
one QR of the stacked R factors. Q's column 0 is u0 up to a phase and
R's row 0 holds u0^H S, so the deviations are Q[:, 1:] @ R[1:, 1:], and
the SVD runs on that M x M block, R[1:, 1:] = U_b diag(s) Vh. The basis
is [u0 | Q[:, 1:] @ U_b], written one row block at a time. All M of its
deviation columns come out orthonormal, those past the rank included:
they span the rest of the QR's range, and their weight rows are zero.
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
from .numerics import DEFAULT_TOL, Tolerances, gram_deviation, pivot_phases, svd
from .stateset import StateSet, column_means

__all__ = ["PcaModel", "fit_pca", "importances"]


@dataclass(frozen=True)
class PcaModel:
    """Fitted basis, singular values, and per-state weights.

    basis:           D x (M+1) isometry; column 0 is ones(D)/sqrt(D)
    singular_values: M deviation singular values, descending
    weights:         (M+1) x M; column mu expands state mu in the basis
    rank:            singular values above rank_rel * e_1 (the rest count
                     as zero; their basis columns are the remaining
                     singular vectors of the M x M block R[1:, 1:], still
                     orthonormal to the retained columns, and their weight
                     rows are zero); 0 when every state is constant
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


# Rows per block of the tall-skinny QR. Each block's Q waits in the basis
# rows it turns into, so blocks bound only the temporaries: the peak RSS
# of the random-cli benchmark (D=2^12, M=200; one BLAS thread) read 128,
# 123, 129 and 129 MiB at 512, 1024, 1536 and 2048 rows. A block also has
# at least _BLOCK_WIDTHS * (M+1) rows, so that the stacked R factors stay
# a fraction of A: at D=2^12 and M=1000 the fit took 6.4-7.2 s with blocks
# of M+1 rows and 4.2-4.9 s with blocks of 4(M+1).
_BLOCK_ROWS = 1024
_BLOCK_WIDTHS = 4


def fit_pca(s: StateSet, tol: Tolerances = DEFAULT_TOL) -> PcaModel:
    """Fit the mean-plus-deviations PCA model of a state set.

    When every state is constant over the basis index, the deviations
    are exactly zero: the singular values are set to 0 and the rank
    is 0, whatever round-off the QR left in R[1:, 1:].

    Raises NoConvergence if the basis is not orthonormal within tol.base.
    """
    dim, count = s.dim, s.count
    u0 = 1.0 / math.sqrt(dim)
    # balanced row blocks, none shorter than the block height
    blocks = max(1, dim // max(_BLOCK_ROWS, _BLOCK_WIDTHS * (count + 1)))
    edges = [dim * i // blocks for i in range(blocks + 1)]

    # 1. QR of every row block of [u0 | S]; Q_i waits in the basis rows it becomes
    phi = np.empty((dim, count + 1), dtype=np.complex128)
    phi[:, 0] = u0
    phi[:, 1:] = s.matrix
    constant = bool(np.all(phi[:, 1:] == s.matrix[0]))
    rs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        phi[lo:hi], r = np.linalg.qr(phi[lo:hi])
        rs.append(r)

    # 2. one QR of the stacked R factors, none for a single block. Q's
    # column 0 is u0 up to a phase; the basis takes u0 itself there.
    if blocks == 1:
        r = rs[0]
    else:
        q2, r = np.linalg.qr(np.concatenate(rs))
    del rs

    # 3. the deviations are Q[:, 1:] @ R[1:, 1:]: their SVD is the M x M one
    u_b, sv, vh = svd(r[1:, 1:])
    if constant:
        sv = np.zeros(count)
    rank = numerical_rank(sv, tol)

    # 4. basis rows of block i: Q_i @ (Q2_i[:, 1:] @ U_b), with Q2 = I for one block
    if blocks == 1:
        lift = np.concatenate([np.zeros((1, count)), u_b])
    else:
        lift = q2[:, 1:] @ u_b
    width = count + 1
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        phi[lo:hi, 1:] = phi[lo:hi] @ lift[i * width : (i + 1) * width]
    phi[:, 0] = u0

    # 5. the phase convention of numerics.svd, taken on the D-space columns
    phase = pivot_phases(phi[:, 1:])
    phi[:, 1:] *= np.conj(phase)
    gram_dev = gram_deviation(phi)
    if not gram_dev <= tol.base:
        raise NoConvergence(f"fitted basis not orthonormal (deviation {gram_dev:.3e})")

    weights = np.zeros((count + 1, count), dtype=np.complex128)
    weights[0, :] = math.sqrt(dim) * column_means(s)
    weights[1 : rank + 1, :] = sv[:rank, np.newaxis] * (vh[:rank, :] * phase[:rank, np.newaxis])

    phi.setflags(write=False)
    weights.setflags(write=False)
    sv.setflags(write=False)
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
