"""Discretized unitary trajectories as state sets.

A trajectory evolves one initial state under a fixed Hamiltonian (hbar = 1)
at uniform time steps. ``evolve_sequence`` returns it as the validated
``StateSet`` of psi(j dt), j = 0..steps-1: column 1 is the initial state,
and the set can serve directly as input to the PCA pipeline. The regime
and psi0's norm are the state set's own (``stateset``), so a state that a
set admits evolves. Which propagator runs depends on the Hamiltonian's type:

- A dense matrix (``random_hamiltonian``, any caller's array) is
  diagonalised once with ``eigh``, and every state comes straight from
  the initial one through per-eigenvalue phases, so there is no
  step-to-step error accumulation. This costs O(D^3) time and a D x D
  matrix.
- An ``IsingChain`` is never stored as a matrix: it acts on vectors in
  O(n D), and ``chain.apply(np.eye(D))`` is its matrix.
  exp(-i H t) = sum_k c_k(bound * t) T_k(H / bound) holds for every t
  at once (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)),
  so one Chebyshev recurrence T_k(H / bound) psi0, run to the K terms
  that the last time needs, gives every state: K - 1 applications of H
  in all (117 for ``ising:10``, 60 steps of dt = 0.1), not K_step - 1
  per step. K grows like a + 10 a^(1/3) with a = bound * |t|, bound being
  the chain's exact spectral radius, and each state takes only the K_j
  terms its own time needs. Each state carries the round-off of one
  K-term series, of order K * eps (eps = 2^-52), plus the dropped tail
  below 1e-15, whatever its index j.
  A span is cut into segments, each restarting the series from its first
  state, where its phase would exceed the round-off cap or its K would
  exceed D; the errors of the segments add, so every state lies within a
  small multiple of K_total * eps of exp(-i H t) psi0, K_total being the
  terms of all segments together.

Coarse-graining such a set, its weights and its Hamiltonian, is the
work of ``decimation``.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from functools import cached_property

import numpy as np

from .decimation import coarse_grain_operator
from .errors import DimMismatch, NonFinite, NotNormalized, RegimeViolation
from .numerics import Tolerances, adjoint_times, hermitian_eig
from .stateset import NormPolicy, StateSet, check_regime, column_norms, validate_state_set

__all__ = [
    "IsingChain",
    "evolve_sequence",
    "coarse_grain_hamiltonian",
    "random_hamiltonian",
    "ising_chain",
]

# Chebyshev terms with |c_k| below this are dropped.
_SERIES_CUT = 1e-15
# A series with phase a = bound * |t|, bound the spectral radius of H,
# needs about a terms and carries a round-off of order a * eps; beyond
# this a, that alone exceeds the 1e-9 unit-norm tolerance, so no such
# series can give a valid state.
_MAX_PHASE = Tolerances.state_norm / float(np.finfo(np.float64).eps)
# Chebyshev vectors held at once before their terms are added to the
# states that need them; never more than the segment has states, so the block adds at most
# one trajectory's worth of memory
SERIES_BLOCK = 32
# Float columns of the (states x 2D) trajectory per product while adding a
# block; 8192 keeps each panel of the block and the trajectory in cache
_PANEL = 8192


@dataclasses.dataclass(frozen=True, eq=False)
class IsingChain:
    """Open transverse-field Ising chain as an action on vectors.

    H = -coupling * sum_s Z_s Z_{s+1} - field * sum_s X_s on ``sites`` qubits,
    big-endian as in the entanglement diagnostics: site s is bit n-s of the
    basis index. ``sites`` is an int of at least 2, else a RegimeViolation,
    and the Gershgorin bound |J|(n-1) + |G|n is finite, else NonFinite. The
    ZZ part is built once, when the chain is made, as the read-only
    ``diagonal`` of length ``dim`` = 2^n; no caller passes it.
    """

    sites: int
    coupling: float
    field: float
    diagonal: np.ndarray = dataclasses.field(init=False, repr=False)

    dim = property(lambda self: 2**self.sites)
    _gershgorin = property(
        lambda self: abs(self.coupling) * (self.sites - 1) + abs(self.field) * self.sites
    )

    def __post_init__(self) -> None:
        if isinstance(self.sites, bool) or not isinstance(self.sites, int) or self.sites < 2:
            raise RegimeViolation(f"chain needs an int of at least 2 qubits, got {self.sites!r}")
        if not math.isfinite(self._gershgorin):
            raise NonFinite(f"J={self.coupling!r}, G={self.field!r}: bound not finite")
        diagonal = _zz_diagonal(self.sites, self.coupling)
        diagonal.setflags(write=False)
        object.__setattr__(self, "diagonal", diagonal)

    @cached_property
    def bound(self) -> float:
        """The spectral radius of H, computed once per chain.

        The open chain is free fermions (Lieb, Schultz and Mattis, Ann. Phys.
        16 (1961) 407; Pfeuty, Ann. Phys. 57 (1970) 79): its eigenvalues are
        sum_k +-s_k, the s_k being the singular values of the n x n
        bidiagonal matrix with G on the diagonal and J above it, so the
        radius is sum_k s_k, 0.65 of the Gershgorin bound |J|(n-1) + |G|n
        at J = G = 1. At J = 0 or G = 0 the terms commute and that bound is
        the radius, exactly. The computed sum may lie a few ulps off the
        true radius (within 4e-15 relative for n <= 10). Eigenvalues of
        H / bound at 1 + delta are harmless: the Chebyshev series of
        exp(-i a x) converges there too, and |T_k(1 + delta)| is about
        cosh(k sqrt(2 delta)), 1.0001 for k = 1e5 and delta = 1e-14, so the
        kept terms, the dropped tail and the round-off barely grow.
        """
        if self.coupling == 0.0 or self.field == 0.0:
            return self._gershgorin
        b = np.diag(np.full(self.sites, self.field))
        b[np.arange(self.sites - 1), np.arange(1, self.sites)] = self.coupling
        return float(np.linalg.svd(b, compute_uv=False).sum())

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H @ x for x of shape (D,) or (D, k), in O(n * D * k)."""
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimMismatch(f"expected shape ({self.dim},) or ({self.dim}, k), got {x.shape}")
        return _ising_action(self.sites, self.field, self.diagonal, x)


def _ising_action(sites: int, field: float, diagonal: np.ndarray, x: np.ndarray) -> np.ndarray:
    """diagonal * x - field * sum_s X_s x, for complex x of shape (2^sites,) or (2^sites, k).

    X_s is np.flip(cube, s - 1) of the [2] * sites reshape of x, taken here
    as the reversed slice it stands for, without np.flip's axis handling.
    """
    cube = x.reshape((2,) * sites + x.shape[1:])
    flips = cube[::-1].copy()
    for axis in range(1, sites):
        flips += cube[(slice(None),) * axis + (slice(None, None, -1),)]
    diagonal = diagonal.reshape(diagonal.shape + (1,) * (x.ndim - 1))
    # the result is built in the flip buffer: (-G) X + diag x rounds as diag x - G X
    flips = flips.reshape(x.shape)
    flips *= -field
    flips += diagonal * x
    return flips


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

    Miller's backward recurrence J_{k-1} = (2k / a) J_k - J_{k+1} runs over
    all columns at once, each from its own J_{N_j+1} = 0, J_{N_j} = 1, with
    N_j = a_j + 20 a_j^(1/3) + 40 well past the order where J_k(a_j) falls
    below 1e-15. A column is rescaled alone when it grows past 1e100, so it
    sees the arithmetic of a one-column recurrence, and it is zero above
    N_j; the columns are normalised by J_0 + 2 * sum_k J_2k = 1. A column
    whose a_j is below _SERIES_CUT is exactly J_0 = 1: every other term of
    its series lies below the cut.
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
    chain: IsingChain,
    start: np.ndarray,
    table: np.ndarray,
    terms: np.ndarray,
    phases: np.ndarray,
    rows: np.ndarray,
) -> None:
    """rows[j] += sum_{k < K_j} phases[k % 4] table[k, j] T_k(X) start, with X = H / bound.

    T_{k+1} = 2 X T_k - T_{k-1} runs once, with the chain's action scaled
    to 2 X: the division by bound and the factor 2 ride on scaled copies of
    its diagonal and field, so a term costs one action and one subtraction
    (T_1 = X T_0 takes one exact halving instead). Each T_k, times its
    exact phase (a swap of re and im and a sign), goes into a block of up
    to SERIES_BLOCK vectors, and a full block is added as a real product
    of its float view with the block's rows of the real table. K_j = terms[j] does not
    decrease with j, so the states that a block of terms k0.. reaches are
    the suffix with K_j > k0, and only those rows enter the product; the
    entries left out lie below the 1e-15 cut of their state's series.
    """
    total = table.shape[0]
    scale = 2.0 / chain.bound
    field, diagonal = chain.field * scale, chain.diagonal * scale
    block = np.empty((min(SERIES_BLOCK, total, rows.shape[0]), chain.dim), dtype=np.complex128)
    flat, flat_block = rows.view(np.float64), block.view(np.float64)
    # one product buffer for every panel, no larger than the block: a fresh
    # one each time would stay on the heap once freed and raise the peak
    width = max(1, min(_PANEL, flat_block.size // flat.shape[0]))
    product = np.empty((flat.shape[0], width))
    prev, cur = start, start
    for k in range(total):
        if k:
            nxt = _ising_action(chain.sites, field, diagonal, cur)
            if k == 1:
                nxt *= 0.5
            else:
                nxt -= prev
            prev, cur = cur, nxt
        slot = k % block.shape[0]
        np.multiply(cur, phases[k % 4], out=block[slot])
        if slot == block.shape[0] - 1 or k == total - 1:
            first = int(np.searchsorted(terms, k - slot, side="right"))
            weights = np.ascontiguousarray(table[k - slot : k + 1, first:].T)
            for col in range(0, flat.shape[1], width):
                part = product[: weights.shape[0], : min(width, flat.shape[1] - col)]
                np.matmul(weights, flat_block[: slot + 1, col : col + width], out=part)
                flat[first:, col : col + width] += part


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
            _sum_series(chain, rows[first], segment, terms[:count], phases, out)
    return rows


def check_time_span(dt: float, steps: int) -> float:
    """The span |dt| (steps - 1) of a trajectory; a non-finite dt or span is a RegimeViolation."""
    span = abs(dt) * (steps - 1)
    if not (math.isfinite(dt) and math.isfinite(span)):
        raise RegimeViolation(f"time step and span must be finite, got dt={dt!r}, steps={steps}")
    return span


def evolve_sequence(
    h: np.ndarray | IsingChain,
    psi0: np.ndarray,
    dt: float,
    steps: int,
) -> StateSet:
    """The states exp(-i h t) psi0 at t = 0, dt, ..., (steps-1) dt, as a StateSet.

    A matrix h is diagonalised once and each state gets its phases straight
    from psi0. An IsingChain's states all come from one Chebyshev series
    of exp(-i H t) psi0, cut into segments only where its phase or its
    term count K would grow too large, so no error grows with the step
    index: every state lies within a small multiple of K_total * eps of
    the exact one, with K_total the series terms of all segments and
    eps = 2^-52 (see the module docstring). Steps outside check_regime, a
    non-finite dt or time span, or a chain step whose phase bound*|dt| is
    too large to expand, is a RegimeViolation. A psi0 with NaN or Inf
    entries is NonFinite; one whose column_norms norm is off 1 by more than
    state_norm is NotNormalized, and by more than base, it is divided by
    its norm, so that round-off cannot carry a later state past state_norm.
    The returned set is the propagator's own array, checked in place: a
    chain's is the transposed view of its series rows.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    dt = float(dt)
    chain = isinstance(h, IsingChain)
    if not chain:
        h = np.asarray(h, dtype=np.complex128)
    dim = psi0.shape[0] if psi0.ndim == 1 else 0
    check_regime(dim, steps)
    shape = (h.dim, h.dim) if chain else h.shape
    if shape != (dim, dim):
        raise RegimeViolation(f"Hamiltonian shape {shape} does not match state length {dim}")
    span = check_time_span(dt, steps)
    norm = float(column_norms(psi0[:, np.newaxis])[0])
    if abs(norm - 1.0) > Tolerances.state_norm:
        raise NotNormalized(f"initial state has norm {norm:.12g}")
    if abs(norm - 1.0) > Tolerances.base:
        psi0 = psi0 / norm
    if chain:
        columns = _chain_trajectory(h, psi0, dt, steps).T
    else:
        energies, vectors = hermitian_eig(h)
        if not math.isfinite(float(np.abs(energies).max()) * span):
            raise RegimeViolation(f"phases E*t overflow over a time span of {span!r}")
        amplitudes = adjoint_times(vectors, psi0.copy())
        times = dt * np.arange(steps)
        phases = np.exp(-1j * np.outer(energies, times))
        columns = vectors @ (phases * amplitudes[:, np.newaxis])
    return validate_state_set(columns, NormPolicy.STRICT, out=columns)


def coarse_grain_hamiltonian(b: np.ndarray, h: np.ndarray | IsingChain) -> np.ndarray:
    """d x d Hamiltonian B^dag H B, b the D x d map of build_map: coarse_grain_operator(b, h)."""
    return coarse_grain_operator(b, h)


def random_hamiltonian(dim: int, seed: int) -> np.ndarray:
    """Seeded dense Hermitian matrix with Gaussian entries (GUE-style)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def ising_chain(n: int, coupling: float = 1.0, field: float = 1.0) -> IsingChain:
    """IsingChain(n, coupling, field) with n taken as an index and J, G as floats."""
    return IsingChain(operator.index(n), float(coupling), float(field))


def _zz_diagonal(sites: int, coupling: float) -> np.ndarray:
    """-coupling * sum_s Z_s Z_{s+1} over the 2^sites basis states, as a new array.

    Z_s is 1 - 2 * (bit sites-s of the index). Bond s is +-coupling, written
    straight into one bond vector viewed with the bits of sites s and s+1
    as their own axes.
    """
    diagonal = np.zeros(2**sites)
    bond = np.empty(2**sites)
    for site in range(1, sites):
        cube = bond.reshape(2 ** (site - 1), 2, 2, 2 ** (sites - site - 1))
        cube[:, 0, 0] = cube[:, 1, 1] = coupling
        cube[:, 0, 1] = cube[:, 1, 0] = -coupling
        diagonal -= bond
    return diagonal
