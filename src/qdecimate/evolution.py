"""Discretized unitary trajectories as state sets, and their coarse-graining.

A trajectory evolves one initial state under a fixed Hamiltonian (hbar = 1)
at uniform time steps. ``evolve_sequence`` returns it as the validated
``StateSet`` of psi(j dt), j = 0..steps-1: column 1 is the initial state,
and the set can serve directly as input to the PCA pipeline. Which
propagator runs depends on the Hamiltonian's type:

- A dense matrix (``random_hamiltonian``, any caller's array) is
  diagonalised once with ``eigh``, and every state comes straight from
  the initial one through per-eigenvalue phases, so there is no
  step-to-step error accumulation. This costs O(D^3) time and a D x D
  matrix.
- An ``IsingChain`` is never stored as a matrix: it acts on vectors in
  O(n D). exp(-i H t) = sum_k c_k(bound * t) T_k(H / bound) holds for
  every t at once (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)),
  so one Chebyshev recurrence T_k(H / bound) psi0, run to the K terms
  that the last time needs, gives every state: K - 1 applications of H
  in all (about 160 for ``ising:10``, 60 steps of dt = 0.1), not K_step - 1
  per step. K grows like a + 10 a^(1/3) with a = bound * |t|, and each
  state carries the round-off of one K-term series, of order K * eps
  (eps = 2^-52), plus the dropped tail below 1e-15, whatever its index j.
  A span is cut into segments, each restarting the series from its first
  state, where its phase would exceed the round-off cap or its K would
  exceed D; the errors of the segments add, so every state lies within a
  small multiple of K_total * eps of exp(-i H t) psi0, K_total being the
  terms of all segments together.

``coarse_grained_trajectory`` takes such a state set and slices each
step from the fitted weights, never rebuilding it in D dimensions; a
chain's Hamiltonian is compressed from its action on the d retained
basis vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decimation import CoarseState, check_dimension, coarse_grain_operator, retained_power
from .errors import DimMismatch, NonFinite, NotNormalized, RegimeViolation, ZeroNorm
from .numerics import DEFAULT_TOL, Tolerances, check_hermitian, hermitian_eig
from .pca import fit_pca
from .stateset import NormPolicy, StateSet, validate_state_set

__all__ = [
    "IsingChain",
    "evolve_sequence",
    "coarse_grain_hamiltonian",
    "coarse_grained_trajectory",
    "random_hamiltonian",
    "ising_chain",
]

# Chebyshev terms with |c_k| below this are dropped.
_SERIES_CUT = 1e-15
# A series with phase a = bound * |t| needs about a terms and carries a
# round-off of order a * eps; beyond this a, that alone exceeds the default
# 1e-9 unit-norm tolerance, so no such series can give a valid state.
_MAX_PHASE = DEFAULT_TOL.state_norm / float(np.finfo(np.float64).eps)
# Chebyshev vectors held at once before their terms are added to every
# state; never more than the segment has states, so the block adds at most
# one trajectory's worth of memory
_BLOCK = 32
# Float columns of the (states x 2D) trajectory per product while adding a
# block; 8192 keeps each panel of the block and the trajectory in cache
_PANEL = 8192


@dataclass(frozen=True, eq=False)
class IsingChain:
    """Open transverse-field Ising chain as an action on vectors.

    H = -coupling * sum_s Z_s Z_{s+1} - field * sum_s X_s on ``sites``
    qubits, big-endian as in the entanglement diagnostics: site s is bit
    n-s of the basis index. ``diagonal`` holds the ZZ part.
    """

    sites: int
    coupling: float
    field: float
    diagonal: np.ndarray

    @property
    def dim(self) -> int:
        return self.diagonal.size

    @property
    def bound(self) -> float:
        """Gershgorin bound on the spectral radius: |J|(n-1) + |G|n."""
        return abs(self.coupling) * (self.sites - 1) + abs(self.field) * self.sites

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H @ x for x of shape (D,) or (D, k), in O(n * D * k).

        X_s is np.flip(cube, s - 1) of the [2] * n reshape of x, taken here as
        the reversed slice it stands for, without np.flip's axis handling.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimMismatch(f"expected shape ({self.dim},) or ({self.dim}, k), got {x.shape}")
        cube = x.reshape((2,) * self.sites + x.shape[1:])
        flips = cube[::-1].copy()
        for axis in range(1, self.sites):
            flips += cube[(slice(None),) * axis + (slice(None, None, -1),)]
        diagonal = self.diagonal.reshape((self.dim,) + (1,) * (x.ndim - 1))
        return diagonal * x - self.field * flips.reshape(x.shape)

    def dense(self) -> np.ndarray:
        """The D x D matrix: the ZZ diagonal, and -field where X_s flips bit n-s."""
        index = np.arange(self.dim)
        h = np.zeros((self.dim, self.dim), dtype=np.complex128)
        h[index, index] = self.diagonal
        for site in range(1, self.sites + 1):
            h[index, index ^ (1 << (self.sites - site))] -= self.field
        return h


def _bessel_j(a: float) -> np.ndarray:
    """J_0(a) .. J_N(a) for a > 0 by Miller's backward recurrence.

    J_{k-1} = (2k / a) J_k - J_{k+1} runs down from J_{N+1} = 0, J_N = 1,
    with N = a + 20 a^(1/3) + 40 well past the order where J_k(a) falls
    below 1e-15. The values are rescaled when they grow past 1e100 and
    normalised by J_0 + 2 * sum_k J_2k = 1.
    """
    top = int(a + 20.0 * a ** (1.0 / 3.0)) + 40
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = (2.0 * k / a) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e100:
            j[k - 1 :] *= 1e-100
    j = j[: top + 1]
    return j / (j[0] + 2.0 * j[2::2].sum())


def _chebyshev_coefficients(a: float) -> np.ndarray:
    """c_k with exp(-i a x) = sum_k c_k T_k(x) on [-1, 1], up to the last |c_k| >= cut.

    c_0 = J_0(a) and c_k = 2 (-i)^k J_k(a) (Jacobi-Anger). A negative a uses
    J_k(-a) = (-1)^k J_k(|a|), i.e. the phases i^k.
    """
    _check_phase(a)
    if abs(a) < _SERIES_CUT:  # J_0(a) rounds to 1 and every other |c_k| is below the cut
        return np.ones(1, dtype=np.complex128)
    j = _bessel_j(abs(a))
    c = 2.0 * j
    c[0] = j[0]
    keep = int(np.flatnonzero(np.abs(c) >= _SERIES_CUT)[-1]) + 1
    return c[:keep] * _phases(a)[np.arange(keep) % 4]


def _check_phase(a: float) -> None:
    if not abs(a) <= _MAX_PHASE:
        raise RegimeViolation(
            f"phase bound*|dt| = {abs(a):.3g} exceeds {_MAX_PHASE:.3g}: the round-off of "
            "one step would exceed the norm tolerance; use a smaller dt and more steps"
        )


def _phases(a: float) -> np.ndarray:
    """(-i)^k for k = 0..3, or i^k for a negative a: the phase of c_k(a)."""
    return np.array([1, -1j, -1, 1j] if a > 0 else [1, 1j, -1, -1j])


def _bessel_table(a: np.ndarray) -> np.ndarray:
    """Column j holds J_0(a_j) .. J_N(a_j), for ascending a_j >= 0.

    _bessel_j's recurrence runs over all columns at once. Column j joins at
    its own N_j and is rescaled alone, so it sees the same arithmetic as
    _bessel_j(a_j), and it is zero above N_j. A column whose a_j is below
    _SERIES_CUT is exactly J_0 = 1, as in _chebyshev_coefficients.
    """
    tops = np.where(a >= _SERIES_CUT, (a + 20.0 * a ** (1.0 / 3.0)).astype(np.int64) + 40, 0)
    top = int(tops[-1])
    j = np.zeros((top + 2, a.size))
    j[tops, np.arange(a.size)] = 1.0
    first = a.size  # columns first.. have started: their N_j >= k
    for k in range(top, 0, -1):
        while first and tops[first - 1] >= k:
            first -= 1
        row = j[k - 1, first:]
        np.multiply((2.0 * k) / a[first:], j[k, first:], out=row)
        row -= j[k + 1, first:]
        if np.abs(row).max() > 1e100:
            j[k - 1 :, first + np.flatnonzero(np.abs(row) > 1e100)] *= 1e-100
    j = j[: top + 1]
    j /= j[0] + 2.0 * j[2::2].sum(axis=0)
    return j


def _segment_coefficients(step: float, steps: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of one series segment, as (R, K).

    R[k, j-1] is the real factor of c_k(j * step), J_0 for k = 0 and 2 J_k
    after it, for the segment's points j = 1..L, and K[j-1] is the number
    of terms that a segment ending at point j needs. L is the longest
    segment whose phase L * step stays within _MAX_PHASE and whose K stays
    within dim, so that its K x L table holds no more entries than the
    D x L block of states it fills; it is at least one step. Every segment
    of a trajectory has the same phases, so one table serves them all.
    """
    limit = min(_MAX_PHASE, dim)
    # K > a for every a worth a term, so no point past the limit can fit
    points = steps if step * steps <= limit else max(1, int(limit / step))
    a = step * np.arange(1, points + 1)
    table = _bessel_table(a)
    table[1:] *= 2.0
    kept = (table >= _SERIES_CUT) | (table <= -_SERIES_CUT)
    terms = np.maximum.accumulate(table.shape[0] - np.argmax(kept[::-1], axis=0))
    length = max(1, int(np.count_nonzero((terms <= dim) & (a <= _MAX_PHASE))))
    return table[: terms[length - 1], :length], terms[:length]


def _sum_series(
    chain: IsingChain, start: np.ndarray, table: np.ndarray, phases: np.ndarray, rows: np.ndarray
) -> None:
    """rows[j] += sum_k phases[k % 4] table[k, j] T_k(X) start, with X = H / bound.

    T_{k+1} = 2 X T_k - T_{k-1} runs once. Each T_k, times its exact phase
    (a swap of re and im and a sign), goes into a block of up to _BLOCK
    vectors, and a full block is added to every state at once as a real
    product of its float view with the block's rows of the real table.
    """
    terms = table.shape[0]
    block = np.empty((min(_BLOCK, terms, rows.shape[0]), chain.dim), dtype=np.complex128)
    flat, flat_block = rows.view(np.float64), block.view(np.float64)
    # one product buffer for every panel, no larger than the block: a fresh
    # one each time would stay on the heap once freed and raise the peak
    width = max(1, min(_PANEL, flat_block.size // flat.shape[0]))
    product = np.empty((flat.shape[0], width))
    prev, cur = start, start
    for k in range(terms):
        if k:
            nxt = chain.apply(cur) / chain.bound
            if k > 1:
                nxt *= 2.0
                nxt -= prev
            prev, cur = cur, nxt
        slot = k % block.shape[0]
        np.multiply(cur, phases[k % 4], out=block[slot])
        if slot == block.shape[0] - 1 or k == terms - 1:
            weights = np.ascontiguousarray(table[k - slot : k + 1].T)
            for col in range(0, flat.shape[1], width):
                part = product[:, : min(width, flat.shape[1] - col)]
                np.matmul(weights, flat_block[: slot + 1, col : col + width], out=part)
                flat[:, col : col + width] += part


def _chain_trajectory(chain: IsingChain, psi0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """The states at t = 0, dt, ..., (steps-1) dt as the rows of a steps x D array."""
    step = chain.bound * dt
    _check_phase(step)
    rows = np.zeros((steps, chain.dim), dtype=np.complex128)
    rows[0] = psi0
    if steps == 1:
        return rows
    table, terms = _segment_coefficients(abs(step), steps - 1, chain.dim)
    phases = _phases(step)
    for first in range(0, steps - 1, terms.size):
        count = min(terms.size, steps - 1 - first)
        segment, out = table[: terms[count - 1], :count], rows[first + 1 : first + 1 + count]
        if segment.shape[0] == 1:  # every phase below the cut: exactly the start state
            out[:] = rows[first]
        else:
            _sum_series(chain, rows[first], segment, phases, out)
    return rows


def evolve_sequence(
    h: np.ndarray | IsingChain,
    psi0: np.ndarray,
    dt: float,
    steps: int,
    tol: Tolerances = DEFAULT_TOL,
) -> StateSet:
    """The states exp(-i h t) psi0 at t = 0, dt, ..., (steps-1) dt, as a StateSet.

    A matrix h is diagonalised once and each state gets its phases straight
    from psi0. An IsingChain's states all come from one Chebyshev series
    of exp(-i H t) psi0, cut into segments only where its phase or its
    term count K would grow too large, so no error grows with the step
    index: every state lies within a small multiple of K_total * eps of
    the exact one, with K_total the series terms of all segments and
    eps = 2^-52 (see the module docstring). A non-finite dt or time span,
    or a chain step whose phase bound*|dt| is too large to expand, is a
    RegimeViolation.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    dt = float(dt)
    chain = isinstance(h, IsingChain)
    if not chain:
        h = np.asarray(h, dtype=np.complex128)
    dim = psi0.shape[0] if psi0.ndim == 1 else 0
    if steps < 1:
        raise RegimeViolation(f"need at least one step, got {steps}")
    if dim <= steps + 1:
        raise RegimeViolation(f"need dimension D > steps+1, got D={dim}, steps={steps}")
    shape = (h.dim, h.dim) if chain else h.shape
    if shape != (dim, dim):
        raise RegimeViolation(f"Hamiltonian shape {shape} does not match state length {dim}")
    span = abs(dt) * (steps - 1)
    if not (math.isfinite(dt) and math.isfinite(span)):
        raise RegimeViolation(f"time step and span must be finite, got dt={dt!r}, steps={steps}")
    if abs(np.linalg.norm(psi0) - 1.0) > tol.state_norm:
        raise NotNormalized(f"initial state has norm {np.linalg.norm(psi0):.12g}")
    if chain:
        columns = _chain_trajectory(h, psi0, dt, steps).T
    else:
        energies, vectors = hermitian_eig(h, tol)
        if not math.isfinite(float(np.abs(energies).max()) * span):
            raise RegimeViolation(f"phases E*t overflow over a time span of {span!r}")
        amplitudes = vectors.conj().T @ psi0
        times = dt * np.arange(steps)
        phases = np.exp(-1j * np.outer(energies, times))
        columns = vectors @ (phases * amplitudes[:, np.newaxis])
    return validate_state_set(columns, NormPolicy.STRICT, tol=tol)


def coarse_grain_hamiltonian(
    cg, h: np.ndarray | IsingChain, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """d x d representation of the Hamiltonian under the coarse-graining map.

    A chain is compressed from its action, g @ H(g^dag), in O(n * D * d),
    and its hermiticity is checked on the d x d result; a matrix goes
    through coarse_grain_operator.
    """
    if not isinstance(h, IsingChain):
        return coarse_grain_operator(cg, h, tol)
    h_cg = cg.g @ h.apply(cg.g.conj().T)
    check_hermitian(h_cg, tol, "coarse-grained Hamiltonian")
    return h_cg


def coarse_grained_trajectory(
    states: StateSet, d: int, tol: Tolerances = DEFAULT_TOL
) -> list[CoarseState]:
    """Fit a trajectory's states, then keep d weight components of each step.

    Step j is W[:d, j] over the root of its retained power; a fitted state
    lies in the span by construction. A d outside [2, M+1] is BadDimension.
    """
    check_dimension(states.count, d)
    model = fit_pca(states, tol)
    coarse = []
    for j, norm in enumerate(np.sqrt(retained_power(model)[d - 1]).tolist()):
        if norm <= tol.zero_norm:
            raise ZeroNorm(f"state is orthogonal to the retained subspace (norm {norm:.3e})")
        weights = model.weights[:d, j] / norm
        weights.setflags(write=False)
        coarse.append(CoarseState(d=d, weights=weights, norm_before=norm))
    return coarse


def random_hamiltonian(dim: int, seed: int) -> np.ndarray:
    """Seeded dense Hermitian matrix with Gaussian entries (GUE-style)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def ising_chain(n: int, coupling: float = 1.0, field: float = 1.0) -> IsingChain:
    """Open transverse-field Ising chain on n qubits, as an action.

    H = -coupling * sum_i Z_i Z_{i+1} - field * sum_i X_i, in the same
    big-endian qubit ordering used by the entanglement diagnostics: site s
    is bit n-s of the basis index and Z_s is 1 - 2 * bit on the diagonal.
    Only the diagonal is stored (O(n * D)); ``dense()`` gives the matrix.
    """
    if n < 2:
        raise RegimeViolation(f"chain needs at least 2 qubits, got {n}")
    coupling, field = float(coupling), float(field)
    # a NaN or infinite J or G makes the bound non-finite too
    if not math.isfinite(abs(coupling) * (n - 1) + abs(field) * n):
        raise NonFinite(
            f"J, G and the bound |J|(n-1)+|G|n must be finite, got J={coupling!r}, G={field!r}"
        )
    index = np.arange(2**n)
    z = [1.0 - 2.0 * ((index >> (n - site)) & 1) for site in range(1, n + 1)]
    diagonal = np.zeros(2**n)
    for site in range(1, n):
        diagonal -= coupling * (z[site - 1] * z[site])
    diagonal.setflags(write=False)
    return IsingChain(sites=n, coupling=coupling, field=field, diagonal=diagonal)
