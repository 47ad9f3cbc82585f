"""Truncation of the PCA expansion: every coarse-graining step.

The map g = B^dag is the isometry B, the first d basis columns, which
build_map returns as a read-only D x d view; every coarse-graining
function takes it or the fitted model. Decimating a D-vector reads only
B, in O(D*d); whether it lies in the span the states reached at all is
asked by outside_span. The weights of states, projected or sliced from
a fit, are renormalized by one rule, and every operator, a matrix or an
IsingChain, is compressed by one function. The expectation of a
compressed operator is np.vdot(w, op_cg @ w), w a state's coarse weights.

The power a fitted state keeps at d is read from its weight column
alone: retained_power tabulates the cumulative |W|^2 of every state,
and select_dimension picks d from that table for one state (a 1-based
index) or for the whole set (no index: the largest per-state answer).
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimension, DimMismatch, DomainError, ZeroNorm
from .numerics import Tolerances, adjoint_times, check_finite, check_hermitian
from .pca import PcaModel

__all__ = [
    "build_map",
    "decimate_state",
    "outside_span",
    "retained_power",
    "select_dimension",
    "coarse_grained_trajectory",
    "coarse_grain_operator",
]

# Basis columns a chain acts on at once when it is compressed: its apply
# holds a few D-vectors beside the basis, whatever d is
_COMPRESS_COLUMNS = 8


def check_dimension(count: int, d: int) -> None:
    """Raise BadDimension unless 2 <= d <= M+1 for a set of M = count states."""
    if not 2 <= d <= count + 1:
        raise BadDimension(f"coarse dimension must lie in [2, {count + 1}], got {d}")


def build_map(model: PcaModel, d: int) -> np.ndarray:
    """B, the first 2 <= d <= M+1 basis columns as a read-only D x d view; g = B^dag."""
    check_dimension(model.count, d)
    return model.basis[:, :d]


def _unit_weights(w: np.ndarray, norm: float | np.ndarray) -> np.ndarray:
    """w / norm, read-only, for the retained norm of w's one state or of each of its columns.

    The one renormalization cut: ZeroNorm names the first norm <= Tolerances.zero_norm.
    """
    small = np.atleast_1d(norm)
    small = small[small <= Tolerances.zero_norm]
    if small.size:
        raise ZeroNorm(f"state is orthogonal to the retained subspace (norm {small[0]:.3e})")
    weights = w / norm
    weights.setflags(write=False)
    return weights


def _checked_copy(dim: int, v: np.ndarray) -> np.ndarray:
    """A complex128 copy of the dim-vector v; DimMismatch or NonFinite otherwise."""
    v = np.array(v, dtype=np.complex128)
    if v.shape != (dim,):
        raise DimMismatch(f"expected a vector of length {dim}, got shape {v.shape}")
    check_finite(v, "state")
    return v


def decimate_state(b: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Truncate a D-vector to its d weights w = B^dag v and renormalize.

    b is the D x d map of build_map. Returns the read-only unit d-vector
    w / |w| and the retained power |w|^2, in one O(D*d) product; support
    of v outside the fitted basis is not looked for (outside_span).
    """
    w = adjoint_times(b, _checked_copy(b.shape[0], v))
    norm = np.linalg.norm(w)
    return _unit_weights(w, norm), float(norm) ** 2


def outside_span(model: PcaModel, v: np.ndarray) -> bool:
    """Whether the D-vector v has support outside K = basis[:, :rank+1], the span the data reached.

    True when |v - K K^dag v| > Tolerances.base * max(|v|, 1): there the
    coarse-graining map is not systematic. Columns past K only complete
    the basis. Reads K alone, in O(D * (rank+1)).
    """
    v = _checked_copy(model.dim, v)
    k = model.basis[:, : model.rank + 1]
    residual = float(np.linalg.norm(v - k @ adjoint_times(k, v.copy())))
    return residual > Tolerances.base * max(float(np.linalg.norm(v)), 1.0)


def retained_power(model: PcaModel) -> np.ndarray:
    """(M+1) x M table: entry [d-1, mu] is the power of state mu kept at d.

    Column mu is the running sum of |W[k, mu]|^2 over k < d, so the last
    row is each state's total power (1 for a fitted unit state).
    """
    w = model.weights
    return np.cumsum(w.real**2 + w.imag**2, axis=0)


def select_dimension(model: PcaModel, eps: float, state: int | None = None) -> int:
    """Smallest d whose retained weight power reaches 1 - eps, clamped to >= 2.

    A state whose power never reaches 1 - eps needs all M+1 components.
    With a 1-based state index the rule applies to that state alone; with
    None it returns the maximum of the per-state answers.
    """
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0, 1), got {eps}")
    if state is not None and not 1 <= state <= model.count:
        raise DimMismatch(f"state index must lie in 1..{model.count}, got {state}")
    reached = retained_power(model) >= 1.0 - eps
    first = np.where(reached.any(axis=0), reached.argmax(axis=0) + 1, model.count + 1)
    dims = np.maximum(first, 2)
    return int(dims.max() if state is None else dims[state - 1])


def coarse_grained_trajectory(model: PcaModel, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep d weight components of each fitted state; reads only the weights W.

    Returns the read-only d x M coarse weights W[:d] / sqrt(P[d-1]) and the
    M retained powers P[d-1], P = retained_power(model), so a saved model
    needs no states and no refit. A d outside [2, M+1] is BadDimension;
    ZeroNorm names the first state with no retained norm.
    """
    check_dimension(model.count, d)
    power = retained_power(model)[d - 1]
    return _unit_weights(model.weights[:d], np.sqrt(power)), power


def coarse_grain_operator(b: np.ndarray, op) -> np.ndarray:
    """Conjugate a Hermitian operator down to d x d: g op g^dag = B^dag (op B).

    b is build_map's D x d map. op is a D x D matrix, checked for hermiticity
    first and read once in one product op @ B, or any operator with ``apply``
    (an IsingChain), which is never formed as a matrix and acts on
    _COMPRESS_COLUMNS basis columns at a time, in O(n * D * d). The d x d
    result is checked for hermiticity by check_hermitian against its own
    scale, the rule that fileio.write_operator and read_operator apply to it.
    """
    dim, d = b.shape
    if hasattr(op, "apply"):
        op_cg = np.empty((d, d), dtype=np.complex128)
        for lo in range(0, d, _COMPRESS_COLUMNS):
            block = b[:, lo : lo + _COMPRESS_COLUMNS]
            op_cg[:, lo : lo + block.shape[1]] = adjoint_times(b, op.apply(block))
    else:
        op = np.asarray(op, dtype=np.complex128)
        if op.shape != (dim, dim):
            raise DimMismatch(f"expected a {dim} x {dim} operator, got shape {op.shape}")
        check_hermitian(op, "operator")
        op_cg = adjoint_times(b, op @ b)
    check_hermitian(op_cg, "coarse-grained operator")
    return op_cg
