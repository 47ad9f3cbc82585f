"""Ingestion and preprocessing of input state sets.

A state set is a D x M complex matrix whose columns are unit-norm pure
states expressed in a fixed global basis. Preprocessing splits each
column into its scalar mean plus a zero-mean deviation; the deviation
matrix feeds the PCA stage.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, RegimeViolation
from .numerics import DEFAULT_TOL, Tolerances, check_finite

log = logging.getLogger(__name__)


class NormPolicy(enum.Enum):
    """How to treat input columns whose norm drifts from 1."""

    STRICT = "strict"
    AUTO_NORMALIZE = "auto-normalize"


@dataclass(frozen=True)
class StateSet:
    """M pure states as columns of a D x M matrix (D > M+1)."""

    dim: int
    count: int
    matrix: np.ndarray

    def column(self, mu: int) -> np.ndarray:
        """State coefficients for 1-based state index mu."""
        return self.matrix[:, mu - 1]


def validate_state_set(
    raw: np.ndarray,
    policy: NormPolicy = NormPolicy.STRICT,
    tol: Tolerances = DEFAULT_TOL,
) -> StateSet:
    """Validate (and under AUTO_NORMALIZE, rescale) columns into a StateSet.

    Enforces finiteness, unit column norms within tol.state_norm, and the
    regime D > M+1. The matrix is a read-only C-order copy.
    """
    raw = np.asarray(raw, dtype=np.complex128)
    if raw.ndim != 2:
        raise RegimeViolation(f"state matrix must be 2-d, got shape {raw.shape}")
    dim, count = raw.shape
    if count < 1:
        raise RegimeViolation("state set needs at least one state")
    if dim <= count + 1:
        raise RegimeViolation(f"need dimension D > M+1, got D={dim}, M={count}")
    check_finite(raw, "state matrix")

    norms = np.linalg.norm(raw, axis=0)
    drift = np.abs(norms - 1.0)
    if np.any(drift > tol.state_norm):
        worst = int(np.argmax(drift))
        if policy is NormPolicy.STRICT:
            raise NotNormalized(
                f"column {worst} has norm {norms[worst]:.12g}; "
                "pass AUTO_NORMALIZE to rescale"
            )
        if np.any(norms <= 0.0):
            raise NotNormalized("cannot auto-normalize a zero column")
        for mu in np.nonzero(drift > tol.state_norm)[0]:
            log.info("auto-normalize: column %d rescaled by %.12g", mu, 1.0 / norms[mu])
        raw = raw / norms
    matrix = np.array(raw, dtype=np.complex128, order="C")
    matrix.setflags(write=False)
    return StateSet(dim=dim, count=count, matrix=matrix)


def column_means(s: StateSet) -> np.ndarray:
    """Per-state means: entry mu is (1/D) * sum_j c_j of column mu."""
    return s.matrix.mean(axis=0)


def deviation_matrix(s: StateSet, means: np.ndarray) -> np.ndarray:
    """Deviations from the per-column uniform mean profile.

    Column mu is the state minus its mean times the all-ones vector, so
    every output column has zero mean.
    """
    means = np.asarray(means, dtype=np.complex128)
    if means.shape != (s.count,):
        raise RegimeViolation(f"expected {s.count} means, got shape {means.shape}")
    return s.matrix - means[np.newaxis, :]


def random_state_set(dim: int, count: int, seed: int) -> StateSet:
    """Seeded pseudo-random states: re/im uniform on [-1, 1], then normalized.

    Uses numpy's PCG64 generator so identical seeds reproduce identical
    sets on any platform.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.uniform(-1.0, 1.0, (dim, count)) + 1j * rng.uniform(-1.0, 1.0, (dim, count))
    raw /= np.linalg.norm(raw, axis=0)
    return validate_state_set(raw, NormPolicy.STRICT)


def random_state_vector(dim: int, seed: int) -> np.ndarray:
    """One seeded pseudo-random normalized state vector (same draw scheme)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
    return raw / np.linalg.norm(raw)
