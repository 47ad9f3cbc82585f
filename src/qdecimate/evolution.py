"""Discretized unitary trajectories as state sets, and their coarse-graining.

A trajectory evolves one initial state under a fixed Hamiltonian (hbar = 1)
at uniform time steps; each state is produced directly from the initial
one through the Hamiltonian's eigendecomposition, so there is no
step-to-step error accumulation. The resulting states can serve as an
input set for the PCA pipeline.

A coarse-grained trajectory is sliced from the fitted weights, never
rebuilt in D dimensions; the Ising chain is filled from basis-index bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decimation import CoarseState, build_map, coarse_grain_operator, retained_power
from .errors import NotNormalized, RegimeViolation, ZeroNorm
from .numerics import DEFAULT_TOL, Tolerances, hermitian_eig
from .pca import fit_pca
from .stateset import NormPolicy, StateSet, validate_state_set

__all__ = [
    "Trajectory",
    "evolve_sequence",
    "coarse_grain_hamiltonian",
    "coarse_grained_trajectory",
    "zero_hamiltonian",
    "random_hamiltonian",
    "ising_chain",
]


@dataclass(frozen=True)
class Trajectory:
    """States psi(j * dt) for j = 0..steps-1, packaged as a StateSet."""

    initial: np.ndarray
    dt: float
    steps: int
    states: StateSet


def evolve_sequence(
    h: np.ndarray,
    psi0: np.ndarray,
    dt: float,
    steps: int,
    tol: Tolerances = DEFAULT_TOL,
) -> Trajectory:
    """Evolve psi0 under exp(-i h t) at times t = 0, dt, ..., (steps-1) dt.

    Phases are applied per eigenvalue of h, so each state comes straight
    from psi0 rather than from the previous step.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    dim = psi0.shape[0] if psi0.ndim == 1 else 0
    if steps < 1:
        raise RegimeViolation(f"need at least one step, got {steps}")
    if dim <= steps + 1:
        raise RegimeViolation(f"need dimension D > steps+1, got D={dim}, steps={steps}")
    if h.shape != (dim, dim):
        raise RegimeViolation(f"Hamiltonian shape {h.shape} does not match state length {dim}")
    if abs(np.linalg.norm(psi0) - 1.0) > tol.state_norm:
        raise NotNormalized(f"initial state has norm {np.linalg.norm(psi0):.12g}")
    energies, vectors = hermitian_eig(h, tol)
    amplitudes = vectors.conj().T @ psi0
    times = dt * np.arange(steps)
    phases = np.exp(-1j * np.outer(energies, times))
    columns = vectors @ (phases * amplitudes[:, np.newaxis])
    states = validate_state_set(columns, NormPolicy.STRICT, tol=tol)
    return Trajectory(initial=psi0, dt=float(dt), steps=steps, states=states)


def coarse_grain_hamiltonian(cg, h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """d x d representation of the Hamiltonian under the coarse-graining map."""
    return coarse_grain_operator(cg, h, tol)


def coarse_grained_trajectory(
    traj: Trajectory, d: int, tol: Tolerances = DEFAULT_TOL
) -> list[CoarseState]:
    """Fit the trajectory's states, then keep d weight components of each step.

    Step j is W[:d, j] over the root of its retained power; a fitted state
    lies in the span by construction.
    """
    model = fit_pca(traj.states, tol)
    build_map(model, d)  # raises BadDimension outside [2, M+1]
    coarse = []
    for j, norm in enumerate(np.sqrt(retained_power(model)[d - 1]).tolist()):
        if norm <= tol.zero_norm:
            raise ZeroNorm(f"state is orthogonal to the retained subspace (norm {norm:.3e})")
        weights = model.weights[:d, j] / norm
        weights.setflags(write=False)
        coarse.append(CoarseState(d=d, weights=weights, norm_before=norm))
    return coarse


def zero_hamiltonian(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=np.complex128)


def random_hamiltonian(dim: int, seed: int) -> np.ndarray:
    """Seeded dense Hermitian matrix with Gaussian entries (GUE-style)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def ising_chain(n: int, coupling: float = 1.0, field: float = 1.0) -> np.ndarray:
    """Open transverse-field Ising chain on n qubits.

    H = -coupling * sum_i Z_i Z_{i+1} - field * sum_i X_i, in the same
    big-endian qubit ordering used by the entanglement diagnostics: site s
    is bit n-s of the basis index, Z_s is 1 - 2 * bit on the diagonal and
    X_s flips that bit. Filling the matrix costs O(n * D) beyond zeroing it.
    """
    if n < 2:
        raise RegimeViolation(f"chain needs at least 2 qubits, got {n}")
    dim = 2**n
    index = np.arange(dim)
    z = [1.0 - 2.0 * ((index >> (n - site)) & 1) for site in range(1, n + 1)]
    h = np.zeros((dim, dim), dtype=np.complex128)
    for site in range(1, n):
        h[index, index] -= coupling * (z[site - 1] * z[site])
    for site in range(1, n + 1):
        h[index, index ^ (1 << (n - site))] -= field
    return h
