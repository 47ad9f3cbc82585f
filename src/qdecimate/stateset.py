"""Input state sets: a ``StateSet`` checks its rules however it is built.

``check_regime`` and ``column_norms`` decide them for trajectories and psi0 too,
and under ``NormPolicy.AUTO_NORMALIZE`` a set is divided by the ``column_norms``
it was checked with, so its bytes do not depend on the input's layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NonFinite, NotNormalized, RegimeViolation
from .numerics import Tolerances, check_index


class NormPolicy(enum.Enum):
    """How to treat input columns whose norm drifts from 1."""

    STRICT = "strict"
    AUTO_NORMALIZE = "auto-normalize"


def check_regime(dim: int, count: int) -> None:
    """Raise RegimeViolation unless M >= 1 states (an int, not a bool) lie in D > M+1 dimensions."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise RegimeViolation(f"need a whole number of states, got M={count!r}")
    if count < 1:
        raise RegimeViolation(f"need at least one state, got M={count}")
    if dim <= count + 1:
        raise RegimeViolation(f"need dimension D > M+1, got D={dim}, M={count}")


def column_norms(matrix: np.ndarray) -> np.ndarray:
    """Each column's Euclidean norm, inf where its squares overflow; NonFinite for NaN or Inf.

    Each column is copied into one reused vector whose float view is dotted
    with itself: a norm depends on its column's entries alone, not on the layout.
    """
    column = np.empty(matrix.shape[0], dtype=np.complex128)
    flat, norms = column.view(np.float64), np.empty(matrix.shape[1])
    with np.errstate(over="ignore"):
        for mu in range(norms.size):
            column[:] = matrix[:, mu]
            norms[mu] = flat @ flat
    for mu in np.flatnonzero(~np.isfinite(norms)):  # an overflow, or NaN or Inf entries
        if not np.all(np.isfinite(matrix[:, mu])):
            raise NonFinite(f"state matrix column {mu} contains NaN or Inf entries")
    return np.sqrt(norms)


def _drifting_norms(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if matrix.ndim != 2:
        raise RegimeViolation(f"state matrix must be 2-d, got shape {matrix.shape}")
    check_regime(*matrix.shape)
    norms = column_norms(matrix)
    return norms, np.flatnonzero(np.abs(norms - 1.0) > Tolerances.state_norm)


@dataclass(frozen=True)
class StateSet:
    """M pure states as columns of a D x M matrix, made read-only.

    Building one checks, in order: a 2-d matrix that passes check_regime
    (RegimeViolation), finite entries (NonFinite), and column norms within
    Tolerances.state_norm of 1 (NotNormalized).
    """

    matrix: np.ndarray

    dim = property(lambda self: self.matrix.shape[0])
    count = property(lambda self: self.matrix.shape[1])

    def __post_init__(self) -> None:
        norms, drifting = _drifting_norms(self.matrix)
        if drifting.size:
            mu = int(drifting[np.argmax(np.abs(norms[drifting] - 1.0))])
            hint = "pass NormPolicy.AUTO_NORMALIZE (CLI: --auto-normalize) to rescale"
            hint = hint if 0.0 < norms[mu] < np.inf else "it cannot be rescaled"
            raise NotNormalized(f"column {mu} has norm {norms[mu]:.12g}; {hint}")
        self.matrix.setflags(write=False)

    def column(self, mu: int) -> np.ndarray:
        """State coefficients for 1-based state index mu; DimMismatch outside 1..M."""
        return self.matrix[:, check_index(mu, self.count, DimMismatch, "state index") - 1]


def validate_state_set(
    raw: np.ndarray, policy: NormPolicy = NormPolicy.STRICT, out: np.ndarray | None = None
) -> StateSet:
    """A StateSet of raw's columns, written as complex128 into out, or into a C-order copy.

    Under AUTO_NORMALIZE, if a column drifts past state_norm, every column is
    divided by its column_norms norm on the way into out, so the bytes do not
    depend on raw's layout; one whose norm is 0 or not finite is NotNormalized.
    out must have raw's shape and dtype complex128 (DimMismatch); it is
    written before StateSet checks it, and its view of the states is made
    read-only.
    """
    raw = np.asarray(raw, dtype=np.complex128)
    rescale = False
    if policy is NormPolicy.AUTO_NORMALIZE:
        norms, drifting = _drifting_norms(raw)
        for mu in drifting:
            if not 0.0 < norms[mu] < np.inf:
                raise NotNormalized(f"cannot auto-normalize column {mu}: its norm is {norms[mu]}")
        rescale = drifting.size > 0
    if out is None:
        out = np.empty(raw.shape, dtype=np.complex128)
    elif out.shape != raw.shape or out.dtype != np.complex128:
        raise DimMismatch(f"out is {out.dtype} {out.shape}, not complex128 {raw.shape}")
    if rescale:
        np.divide(raw, norms, out=out)
    else:
        out[...] = raw
    return StateSet(out)


def random_state_set(dim: int, count: int, seed: int) -> StateSet:
    """Seeded pseudo-random states: re/im uniform on [-1, 1], then normalized.

    Uses numpy's PCG64 generator so identical seeds reproduce identical
    sets on any platform. Both halves are drawn straight into one complex
    array, real first, so the draw holds the set and one float half of it.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = np.empty((dim, count), dtype=np.complex128)
    raw.real = rng.uniform(-1.0, 1.0, (dim, count))
    raw.imag = rng.uniform(-1.0, 1.0, (dim, count))
    # norms in even panels of at most 16 columns: no temporary copy of the set,
    # and no lone column, which numpy would sum pairwise, not row by row
    for panel in np.array_split(raw, max(1, -(-count // 16)), axis=1):
        panel /= np.linalg.norm(panel, axis=0)
    return validate_state_set(raw, NormPolicy.STRICT, out=raw)


def random_state_vector(dim: int, seed: int) -> np.ndarray:
    """One seeded pseudo-random normalized state vector (same draw scheme)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
    return raw / np.linalg.norm(raw)
