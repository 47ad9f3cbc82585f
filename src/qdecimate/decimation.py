"""Truncation of the PCA expansion.

Keeping the first d basis components defines a d x D isometry-row map
(the first d rows of the basis adjoint). States pushed through it are
renormalized by hand; Hermitian operators are conjugated by it.

The power a fitted state keeps at d is read from its weight column
alone: retained_power tabulates the cumulative |W|^2 of every state,
and select_dimension picks d from that table for one state (a 1-based
index) or for the whole set (no index: the largest per-state answer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, DimMismatch, DomainError, NonRealExpectation, ZeroNorm
from .numerics import DEFAULT_TOL, Tolerances, check_hermitian
from .pca import PcaModel

__all__ = [
    "CoarseGrainMap",
    "CoarseState",
    "build_map",
    "decimate_state",
    "retained_power",
    "select_dimension",
    "coarse_grain_operator",
    "expectation",
]


@dataclass(frozen=True)
class CoarseGrainMap:
    """d x D map g: basis change plus truncation, with g @ g^dag = I_d."""

    d: int
    g: np.ndarray
    source: PcaModel


@dataclass(frozen=True)
class CoarseState:
    """Unit-norm truncated weight vector plus its pre-normalization norm.

    outside_span flags inputs with support beyond the fitted basis; for
    such states the map alters structure non-systematically.
    """

    d: int
    weights: np.ndarray
    norm_before: float
    outside_span: bool = False


def check_dimension(count: int, d: int) -> None:
    """Raise BadDimension unless 2 <= d <= M+1 for a set of M = count states."""
    if not 2 <= d <= count + 1:
        raise BadDimension(f"coarse dimension must lie in [2, {count + 1}], got {d}")


def build_map(model: PcaModel, d: int) -> CoarseGrainMap:
    """First d rows of the basis adjoint as a coarse-graining map."""
    check_dimension(model.count, d)
    g = model.basis[:, :d].conj().T
    g.setflags(write=False)
    return CoarseGrainMap(d=d, g=g, source=model)


def decimate_state(
    cg: CoarseGrainMap, v: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> CoarseState:
    """Truncate a D-vector to d weight components and renormalize."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (cg.source.dim,):
        raise DimMismatch(f"expected a vector of length {cg.source.dim}, got shape {v.shape}")
    basis = cg.source.basis
    # conj(v^dag basis) = basis^dag v without conjugating a copy of the basis
    full = (v.conj() @ basis).conj()
    w = full[: cg.d]
    norm_before = float(np.linalg.norm(w))
    if norm_before <= tol.zero_norm:
        raise ZeroNorm(
            f"state is orthogonal to the retained subspace (norm {norm_before:.3e})"
        )
    residual = float(np.linalg.norm(v - basis @ full))
    outside = residual > tol.base * max(float(np.linalg.norm(v)), 1.0)
    weights = w / norm_before
    weights.setflags(write=False)
    return CoarseState(d=cg.d, weights=weights, norm_before=norm_before, outside_span=outside)


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


def coarse_grain_operator(
    cg: CoarseGrainMap, op: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Conjugate a D x D Hermitian operator down to d x d."""
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (cg.source.dim, cg.source.dim):
        raise DimMismatch(
            f"expected a {cg.source.dim} x {cg.source.dim} operator, got shape {op.shape}"
        )
    check_hermitian(op, tol, "operator")
    return cg.g @ op @ cg.g.conj().T


def expectation(
    state_weights: np.ndarray, op_matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Quadratic form x^dag O x, verified real within tolerance."""
    x = np.asarray(state_weights, dtype=np.complex128)
    op = np.asarray(op_matrix, dtype=np.complex128)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or x.shape != (op.shape[0],):
        raise DimMismatch(f"shape mismatch: state {x.shape} against operator {op.shape}")
    value = complex(np.vdot(x, op @ x))
    if abs(value.imag) > tol.expectation_imag:
        raise NonRealExpectation(f"imaginary residue {value.imag:.3e} beyond tolerance")
    return value.real
