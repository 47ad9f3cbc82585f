"""Principal-component model of a state set.

The model holds an isometric basis of M+1 columns: column 0 is the
normalized uniform superposition u0 carrying each state's mean, columns
1..r are the left singular vectors of the deviation matrix ordered by
descending singular value, r the rank, and columns r+1..M complete the
basis (see below). Weights are the exact expansion coefficients
of every input state in that basis.

The fit never leaves M+1 dimensions for its factorizations (Chan's
QR-preconditioned SVD, ACM TOMS 8, 72 (1982)). A = [u0 | S] is factored
as Q R by a tall-skinny QR over blocks of rows (Demmel, Grigori, Hoemmen
and Langou, SIAM J. Sci. Comput. 34 (2012) A206): each block's
Householder QR, then, for more than one block, one Householder QR of the
stacked R factors. Q's column 0 is u0 up to a phase and R's row 0 holds
u0^H S, so the deviations are Q[:, 1:] @ R[1:, 1:], and the SVD runs on
that M x M block, R[1:, 1:] = U_b diag(s) Vh. The basis is
K = [u0 | Q[:, 1:] @ U_b[:, :r]] in its first r+1 columns, r the rank:
the span the states reached. The M - r columns past them carry zero
weight, and the SVD would take them from round-off, so the fit never
computes them from the data: ``complete_basis`` writes them as a
function of K alone, the trailing columns of the Householder Q of K.
A model file stores only K, and its reader rebuilds the rest by the
same call.

No Q is formed. Each QR keeps its reflectors V (n x k, unit lower
trapezoidal, k = M+1) and scalars tau, and one writer overwrites V's
columns 1..r in place with Q [X; 0] = [X; 0] - V T (V[:k]^H X), in
compact WY form (Schreiber and Van Loan, SIAM J. Sci. Stat. Comput. 10
(1989) 53), X being k x r. It writes Q2 [0; U_b[:, :r]] over the
stacked level's reflectors, then each block's basis rows from that
block's k rows of the result.

A singular vector pair is defined up to a phase, and the fit fixes it
once, on the M x M factor: the pivot (``pivot_phases``) of each weight
row is real and positive, and the basis column takes the matching phase.
The right singular vectors are the deviations' own, whatever the QR:
R[1:, 1:] and the deviations have the same Gram matrix.

The factored matrix is one D x (M+1) buffer that becomes the basis. The
fit copies a StateSet into a fresh one, or takes the caller's buffer, whose
columns 1..M already hold the states, and overwrites it: the CLI validates
a state file straight into such a buffer, so it holds the states once.

A state is rebuilt from its weights as ``model.basis @ w``. A model stores
only its arrays, so its rank is one function of the singular values
(``numerical_rank``). However built, a model checks shapes (DimMismatch),
spectrum and column 0 (DomainError) and orthonormality (NoConvergence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DomainError, NoConvergence, RegimeViolation
from .numerics import Tolerances, gram, gram_deviation, pivot_phases, svd
from .stateset import StateSet

__all__ = ["PcaModel", "fit_pca"]


@dataclass(frozen=True)
class PcaModel:
    """Fitted basis, singular values, and per-state weights, made read-only.

    D, M and the rank are read off the arrays. Building one checks, in order:
    shapes (DimMismatch), spectrum and column 0 (DomainError), isometry (NoConvergence).

    basis:           D x (M+1), D > M >= 1; isometric, column 0 ones(D)/sqrt(D), to Tolerances.base
    singular_values: M deviation singular values: finite, non-negative, descending
    weights:         (M+1) x M; column mu expands state mu in the basis,
                     and the pivot entry of each row 1..rank is real positive
    rank:            singular values above rank_rel * e_1 (the rest count
                     as zero; their basis columns are complete_basis's
                     completion of columns 0..rank, orthonormal to them and
                     a function of them alone, and their weight rows are
                     zero); 0 when every state is constant
    """

    basis: np.ndarray
    singular_values: np.ndarray
    weights: np.ndarray

    dim = property(lambda self: self.basis.shape[0])
    count = property(lambda self: self.weights.shape[1])
    rank = property(lambda self: numerical_rank(self.singular_values))

    def __post_init__(self) -> None:
        basis, sv, weights = self.basis, self.singular_values, self.weights
        dim, count = basis.shape[0] if basis.ndim else 0, sv.size
        shapes = (basis.shape, sv.shape, weights.shape)
        if not 1 <= count < dim or shapes != ((dim, count + 1), (count,), (count + 1, count)):
            raise DimMismatch(f"model shapes {shapes} != D x (M+1), (M,), (M+1) x M, D > M > 0")
        if not np.all(np.isfinite(sv)) or np.any(sv < 0) or np.any(np.diff(sv) > 0):
            raise DomainError("singular values must be finite, non-negative and descending")
        if np.abs(basis[:, 0] - 1.0 / math.sqrt(dim)).max() > Tolerances.base:
            raise DomainError("basis column 0 is not the uniform superposition")
        check_orthonormal(basis)
        for arr in (basis, sv, weights):
            arr.setflags(write=False)


def check_orthonormal(x: np.ndarray) -> None:
    """Raise NoConvergence unless x's columns are orthonormal within Tolerances.base.

    x is read as it is laid out; a C-order x is not copied. Overflowing
    entries make the Gram deviation NaN, which fails too, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram_dev = gram_deviation(x)
    if not gram_dev <= Tolerances.base:
        raise NoConvergence(f"basis columns not orthonormal (deviation {gram_dev:.3e})")


def numerical_rank(sv: np.ndarray) -> int:
    """Number of singular values above Tolerances.rank_rel * e_1; sv is descending."""
    return int(np.sum(sv > Tolerances.rank_rel * float(sv[0])))


# Rows per block of the tall-skinny QR. Each block's reflectors wait in the
# basis rows they turn into, so blocks bound only the temporaries: a
# block's QR copies and the stacked R factors. A block also has at least
# _BLOCK_WIDTHS * (M+1) rows, so that the stacked R factors stay a fraction
# of A: at D=2^12 and M=1000 the fit takes 3.7 s with blocks of M+1 rows
# and 2.1 s with one block of 4(M+1) or more (one BLAS thread).
_BLOCK_ROWS = 1024
_BLOCK_WIDTHS = 4
# Rows of a block multiplied at once when its basis rows are written over
# its reflectors: the one product buffer holds this many rows of M entries.
_PRODUCT_ROWS = 256


def _checked_buffer(phi: np.ndarray) -> np.ndarray:
    """phi, once its columns 1..M pass as a StateSet; a refused buffer is left as it was."""
    if not (
        isinstance(phi, np.ndarray)
        and phi.dtype == np.complex128
        and phi.flags.c_contiguous
        and phi.flags.writeable
    ):
        raise DomainError("a fit buffer must be a writable C-order complex128 array")
    if phi.ndim < 2:  # a buffer with no columns to slice
        raise RegimeViolation(f"state matrix must be 2-d, got shape {phi.shape}")
    StateSet(phi[:, 1:])
    return phi


def _householder_qr(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Factor the n x k block a (n >= k) in place by LAPACK's Householder QR.

    R goes to the k x k array r. a becomes V, the unit lower trapezoidal
    reflector vectors, and the reflector scalars tau are returned:
    Q = H_1 ... H_k with H_j = I - tau_j v_j v_j^H.
    """
    h, tau = np.linalg.qr(a, mode="raw")  # R on and above the diagonal, V below, transposed
    a[...] = h.T
    k = tau.size
    np.copyto(r, np.triu(a[:k]))
    a[:k][np.triu_indices(k, 1)] = 0.0
    np.fill_diagonal(a[:k], 1.0)
    return tau


def _wy_triangle(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The upper triangle T of the compact WY form H_1 ... H_k = I - V T V^H.

    Schreiber and Van Loan, SIAM J. Sci. Stat. Comput. 10 (1989) 53. T is
    built directly from V^H V: T_jj = tau_j, and two adjacent column ranges
    with triangles T1 and T2 join as [[T1, -T1 (V1^H V2) T2], [0, T2]].
    No 1/tau is taken, so an identity reflector (tau_j = 0, a column
    already zero below its diagonal) leaves an exact zero row and column.
    """
    k = tau.size
    g = gram(v)
    t = np.diag(tau)
    width = 1
    while width < k:
        for lo in range(0, k - width, 2 * width):
            mid, hi = lo + width, min(lo + 2 * width, k)
            t[lo:mid, mid:hi] = -(t[lo:mid, lo:mid] @ g[lo:mid, mid:hi]) @ t[mid:hi, mid:hi]
        width *= 2
    return t


def _write_basis_rows(rows: np.ndarray, tau: np.ndarray, x: np.ndarray, buffer: np.ndarray) -> None:
    """Overwrite columns 1..r of reflectors V with Q [x; 0] = [x; 0] - V C, C = T V[:k]^H x.

    x is k x r, r the rank; V's columns past r are left as they are. Row j
    of the product V C reads only row j of V, so the rows are written
    _PRODUCT_ROWS at a time through the one buffer of r columns.
    """
    c = _wy_triangle(rows, tau) @ (rows[: tau.size].conj().T @ x)
    written = slice(1, x.shape[1] + 1)
    for lo in range(0, len(rows), _PRODUCT_ROWS):
        part = rows[lo : lo + _PRODUCT_ROWS]
        product = np.matmul(part, c, out=buffer[: len(part)])
        np.negative(product, out=part[:, written])
    rows[: tau.size, written] += x


def _unit_lower_solve(lower: np.ndarray, b: np.ndarray) -> None:
    """Overwrite b with L^-1 b, L the unit lower triangle of the square block lower.

    It recurses on L's two diagonal halves; between them, the block of L
    below the first half updates b's second half by one product.
    """
    k = len(lower)
    if k > 1:
        h = k // 2
        _unit_lower_solve(lower[:h, :h], b[:h])
        b[h:] -= lower[h:, :h] @ b[:h]
        _unit_lower_solve(lower[h:, h:], b[h:])


def _signed_lu(a: np.ndarray, s: np.ndarray) -> None:
    """Overwrite the n x k block a (n >= k) with L and U of a - [diag(s); 0], no pivoting.

    s_j is chosen when pivot p_j is reached: s_j = -p_j / |p_j|, and 1 for
    p_j = 0, so |U_jj| = |p_j| + 1 >= 1. L is unit lower trapezoidal, held
    below the diagonal, and its rows past k are a[k:] U^-1. This is the
    modified LU of Ballard et al., "Reconstructing Householder vectors from
    tall-skinny QR" (IPDPS 2014): for orthonormal columns K, s is the
    diagonal of R in the Householder QR K = Q [diag(s); 0] whose reflector j
    takes the sign s_j, and L holds that QR's reflector vectors. It runs
    recursively (Toledo, SIAM J. Matrix Anal. Appl. 18 (1997) 1065): the
    left half of the columns, one unit-lower solve for U12, one product for
    the trailing block, then its right half.
    """
    k = a.shape[1]
    if k == 1:
        p = a[0, 0]
        s[0] = -p / abs(p) if p != 0 else 1.0
        a[0, 0] = p - s[0]
        a[1:, 0] /= a[0, 0]
        return
    h = k // 2
    _signed_lu(a[:, :h], s[:h])
    _unit_lower_solve(a[:h, :h], a[:h, h:])
    a[h:, h:] -= a[h:, :h] @ a[:h, h:]
    _signed_lu(a[h:, h:], s[h:])


def complete_basis(phi: np.ndarray, rank: int) -> None:
    """Overwrite columns rank+1..M of the D x (M+1) buffer phi from its columns 0..rank alone.

    With K = phi[:, :k], k = rank+1, orthonormal, the columns become
    Q_K [0; I; 0], the trailing columns of the Householder Q of K whose
    reflector j takes the sign s_j of ``_signed_lu`` of K's top M+1 rows:
    orthonormal, orthogonal to K, and fixed by K to round-off whatever the
    columns held before. With Q_K = I - Y T Y^H and K - [S; 0] = Y U
    (S = diag(s)), they equal [0; I; 0] + (K - [S; 0]) G, G = (Z S)^H,
    Z = K[k:M+1] U^-1 L^-1: one product K G, written _PRODUCT_ROWS rows at
    a time, less S G in the top k rows, plus I. The LU of the copied
    (M+1) x k top of K leaves K[k:M+1] U^-1 in its rows past k, and one
    unit-lower solve on reversed transposed views makes them Z, then G in
    place. A full-rank buffer (rank = M) is left as it is.
    """
    k, width = rank + 1, phi.shape[1]
    if k >= width:
        return
    lu = phi[:width, :k].copy()
    s = np.empty(k, dtype=np.complex128)
    _signed_lu(lu, s)
    # Z L = Y is L^T Z^T = Y^T, a unit-lower solve once rows and columns are reversed
    _unit_lower_solve(lu[:k].T[::-1, ::-1], lu[k:].T[::-1])
    z = lu[k:]
    z *= s
    g = np.conjugate(z, out=z).T
    for lo in range(0, len(phi), _PRODUCT_ROWS):
        rows = phi[lo : lo + _PRODUCT_ROWS]
        np.matmul(rows[:, :k], g, out=rows[:, k:])
    phi[:k, k:] -= s[:, np.newaxis] * g
    diagonal = np.arange(k, width)
    phi[diagonal, diagonal] += 1.0


def fit_pca(s: StateSet | np.ndarray) -> PcaModel:
    """Fit the mean-plus-deviations PCA model of a state set.

    s is a StateSet, copied into a fresh D x (M+1) buffer, or that buffer
    itself: a writable C-order complex128 array whose columns 1..M hold the
    states. Those columns are checked as a StateSet checks them, with the
    same errors in the same order, and a refused buffer is left unchanged.
    An accepted buffer is factored in place and becomes the model's basis,
    read-only; column 0 is never read. Both inputs give the same model bit
    for bit.

    No Q factor is formed: one compact WY writer overwrites each QR's
    reflectors in place with the r retained directions, the stacked R
    factors' first, then each row block's, which become basis columns
    1..r. One row block needs no second QR. complete_basis, the only
    writer of columns r+1..M, then computes them from columns 0..r alone.

    When every state is constant over the basis index, the deviations
    are exactly zero: the singular values are set to 0 and the rank
    is 0, whatever round-off the QR left in R[1:, 1:].

    Raises NoConvergence if the basis is not orthonormal within Tolerances.base.
    """
    if isinstance(s, StateSet):
        phi = np.empty((s.dim, s.count + 1), dtype=np.complex128)
        phi[:, 1:] = s.matrix
    else:
        phi = _checked_buffer(s)
    states = phi[:, 1:]
    dim, count = states.shape
    width = count + 1
    u0 = 1.0 / math.sqrt(dim)
    # balanced row blocks, none shorter than the block height
    blocks = max(1, dim // max(_BLOCK_ROWS, _BLOCK_WIDTHS * width))
    edges = [dim * i // blocks for i in range(blocks + 1)]
    spans = list(zip(edges[:-1], edges[1:]))

    # 1. Householder QR of every row block of [u0 | S]: V_i waits in the
    # basis rows it becomes, R_i goes to the stack. What the weights need
    # of the states is read before the QR overwrites them.
    constant = bool(np.all(states == states[0]))
    means = states.mean(axis=0)
    phi[:, 0] = u0
    stacked = np.empty((blocks * width, width), dtype=np.complex128)
    taus = [
        _householder_qr(phi[lo:hi], stacked[i * width : (i + 1) * width])
        for i, (lo, hi) in enumerate(spans)
    ]

    # 2. several blocks: one QR of the stacked R factors, whose reflectors
    # V2 replace them. One block: R_1 is upper triangular with a real
    # diagonal already, where that QR's Q2 is exactly I.
    if blocks == 1:
        r = stacked
    else:
        r = np.empty((width, width), dtype=np.complex128)
        tau2 = _householder_qr(stacked, r)

    # 3. the deviations are Q[:, 1:] @ R[1:, 1:]: their SVD is the M x M one.
    # Each retained Vh row's pivot phase moves onto its U_b column and off
    # the weights; only those r columns are lifted.
    u_b, sv, vh = svd(r[1:, 1:])
    if constant:
        sv = np.zeros(count)
    rank = numerical_rank(sv)
    phase = pivot_phases(vh[:rank].T)
    lift = np.zeros((width, rank), dtype=np.complex128)
    np.multiply(u_b[:, :rank], phase, out=lift[1:])
    del u_b  # not held while the basis is written

    # 4. several blocks: Q2 [lift; 0] is written over the stack's columns
    # 1..r by the same writer. Basis rows of block i are then Q_i X_i, with
    # X_i block i's rows of that (the lift itself with one block). Q's
    # column 0 is u0 up to a phase; the basis takes u0 itself there.
    buffer = np.empty((_PRODUCT_ROWS, rank), dtype=np.complex128)
    if blocks > 1:
        _write_basis_rows(stacked, tau2, lift, buffer)
        lift = stacked[:, 1 : rank + 1]
    for i, (lo, hi) in enumerate(spans):
        _write_basis_rows(phi[lo:hi], taus[i], lift[i * width : (i + 1) * width], buffer)
    phi[:, 0] = u0
    complete_basis(phi, rank)

    weights = np.zeros((count + 1, count), dtype=np.complex128)
    weights[0, :] = math.sqrt(dim) * means
    phased = vh[:rank, :] * np.conj(phase[:, np.newaxis])
    weights[1 : rank + 1, :] = sv[:rank, np.newaxis] * phased

    return PcaModel(basis=phi, singular_values=sv, weights=weights)
