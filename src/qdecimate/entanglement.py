"""Single-qubit entanglement diagnostics.

Viewing the D = 2**n space as n qubits (big-endian: qubit 1 is the most
significant bit of the basis index), these routines compute one-qubit
reduced density matrices, their von Neumann entropy in nats, and the
entropy of a state rebuilt from its first d basis components as d grows.

The curve over d = 1..M+1 costs O(D*M) time: running row sums over d give
every reconstruction at once, one block of basis rows at a time, and the
block's bit-q halves add to every one-qubit reduced density matrix, whose
2x2 spectra are taken in closed form. Its temporaries are one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadQubitIndex, DimMismatch, NotDensityMatrix, NotPowerOfTwo, ZeroNorm
from .numerics import Tolerances, check_finite, check_index
from .pca import PcaModel
from .stateset import StateSet

__all__ = [
    "QubitFactorization",
    "EntropyCurve",
    "reduced_density_matrix",
    "von_neumann_entropy",
    "entropy_vs_dimension_curve",
    "saturation_dimension",
]

# saturation_dimension's band, as a fraction of the endpoint entropy (d95)
_SATURATION_BAND = 0.05
# basis rows an entropy curve holds at once: its temporaries are one
# _CURVE_ROWS x (M+1) block, whatever D is
_CURVE_ROWS = 256


@dataclass(frozen=True)
class QubitFactorization:
    """n-qubit view of a 2**n dimensional space, big-endian bit order."""

    n: int

    @property
    def dim(self) -> int:
        return 2**self.n

    @classmethod
    def from_dim(cls, dim: int) -> "QubitFactorization":
        n = int(dim).bit_length() - 1
        if dim <= 0 or 2**n != dim:
            raise NotPowerOfTwo(f"dimension {dim} is not a power of two")
        return cls(n=n)


@dataclass(frozen=True)
class EntropyCurve:
    """Entropy (nats) of the d-component reconstruction, for d = 1..M+1."""

    state_index: int
    qubit: int
    points: tuple[tuple[int, float], ...]


def reduced_density_matrix(v: np.ndarray, f: QubitFactorization, q: int) -> np.ndarray:
    """Partial trace of |v><v| onto qubit q, by index arithmetic in O(D)."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (f.dim,):
        raise DimMismatch(f"expected a vector of length {f.dim}, got shape {v.shape}")
    q = check_index(q, f.n, BadQubitIndex, "qubit index")
    psi = np.moveaxis(v.reshape([2] * f.n), q - 1, 0).reshape(2, -1)
    return psi @ psi.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in nats of rho / tr(rho) for a one-qubit 2x2 density matrix (0 ln 0 = 0).

    The trace may be off 1 by 2 * state_norm + base: the square of a norm
    that state validation admits, plus round-off. A trace within base of 1
    is round-off and counts as 1, so such a matrix is used as it is.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise NotDensityMatrix(f"expected a one-qubit 2 x 2 matrix, got shape {rho.shape}")
    check_finite(rho, "density matrix")
    if np.abs(rho - rho.conj().T).max() > Tolerances.base:
        raise NotDensityMatrix("matrix is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > 2 * Tolerances.state_norm + Tolerances.base:
        raise NotDensityMatrix(f"trace is {trace:.12g}, not 1 within tolerance")
    t = trace.real if abs(trace - 1.0) > Tolerances.base else 1.0
    off2 = (rho[0, 1].real ** 2 + rho[0, 1].imag ** 2) / t**2
    return float(_qubit_entropies(rho[0, 0].real / t, rho[1, 1].real / t, off2))


def _qubit_entropies(rho00: np.ndarray, rho11: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Entropies of unit-trace 2x2 density matrices [[rho00, rho01], [rho01*, rho11]].

    off2 is |rho01|^2. Closed-form spectrum, vectorised elementwise: the
    large eigenvalue is (1 + sqrt((rho00 - rho11)^2 + 4|rho01|^2)) / 2 >= 1/2,
    and the small one is det / large, which keeps its relative precision for
    near-pure states.
    """
    large = (1.0 + np.sqrt((rho00 - rho11) ** 2 + 4.0 * off2)) / 2.0
    small = (rho00 * rho11 - off2) / large
    if small.min() < -Tolerances.psd_slack:
        raise NotDensityMatrix(f"negative eigenvalue {small.min():.3e} beyond tolerance")
    lam = np.clip(np.stack([large, small]), 0.0, 1.0)
    # 0 ln 0 = 0; + 0.0 turns the -0.0 of a pure state into plain 0.0
    return -np.sum(lam * np.log(np.where(lam > 0.0, lam, 1.0)), axis=0) + 0.0


def entropy_vs_dimension_curve(s: StateSet, model: PcaModel, mu: int, q: int) -> EntropyCurve:
    """Entropy of the renormalized d-component reconstruction of state mu.

    d runs from 1 (mean component only) to M+1 (full expansion, which
    matches the original state's entropy). The basis is read in blocks of
    _CURVE_ROWS rows, each holding whole bit-q pairs, so a curve costs
    O(D*M) time and one _CURVE_ROWS x (M+1) temporary.
    """
    if s.dim != model.dim or s.count != model.count:
        raise DimMismatch("state set and model disagree on dimensions")
    mu = check_index(mu, model.count, DimMismatch, "state index")
    f = QubitFactorization.from_dim(model.dim)
    q = check_index(q, f.n, BadQubitIndex, "qubit index")
    # a contiguous copy: the column view strides M entries, and every block reads it
    w = np.ascontiguousarray(model.weights[:, mu - 1])
    high, low = 2 ** (q - 1), 2 ** (f.n - q)
    # basis rows indexed (higher bits, bit q, lower bits); a block of at most
    # _CURVE_ROWS rows takes whole bit-q pairs: a slice of the lower bits, or
    # all of them for a group of higher-bit indices
    rows = model.basis.reshape(high, 2, low, -1)
    step_low = min(low, _CURVE_ROWS // 2)
    step_high = max(_CURVE_ROWS // 2 // low, 1)
    buf = np.empty(_CURVE_ROWS * w.size, dtype=np.complex128)
    power0, power1, cross_re, cross_im = np.zeros((4, w.size))
    for a in range(0, high, step_high):
        for b in range(0, low, step_low):
            part = rows[a : a + step_high, :, b : b + step_low]
            # column d-1 of the running sums is part[..., :d] @ w[:d]
            c = buf[: part.size].reshape(part.shape)
            np.multiply(part, w, out=c)
            np.cumsum(c, axis=-1, out=c)
            # float view indexed (higher bits, bit q, lower bits, d-1, re/im), no copy
            parts = c.view(np.float64).reshape(*part.shape, 2)
            x, y = parts[:, 0], parts[:, 1]
            # keeping (d-1, re/im) as output axes lets einsum stream whole rows, and
            # summing rho01's real part like rho00 and rho11 makes det exactly 0 for
            # equal halves (the uniform state at d=1)
            power0 += np.einsum("abkl,abkl->kl", x, x).sum(axis=1)
            power1 += np.einsum("abkl,abkl->kl", y, y).sum(axis=1)
            cross_re += np.einsum("abkl,abkl->kl", x, y).sum(axis=1)
            cross_im += np.einsum("abk,abk->k", x[..., 1], y[..., 0]) - np.einsum(
                "abk,abk->k", x[..., 0], y[..., 1]
            )
    norm2 = power0 + power1
    norm = np.sqrt(norm2)
    vanishing = np.flatnonzero(norm <= Tolerances.zero_norm)
    if vanishing.size:
        d = int(vanishing[0]) + 1
        raise ZeroNorm(f"reconstruction at d={d} has norm {norm[d - 1]:.3e}")
    off2 = (cross_re**2 + cross_im**2) / norm2**2
    entropies = _qubit_entropies(power0 / norm2, power1 / norm2, off2)
    points = tuple(enumerate(entropies.tolist(), start=1))
    return EntropyCurve(state_index=mu, qubit=q, points=points)


def saturation_dimension(curve: EntropyCurve) -> int:
    """d95: the smallest d whose entropy lies within 5% of the endpoint value.

    The band never narrows below 5% of 1e-6, so a curve that ends at zero
    entropy saturates where it comes within 5e-8 of zero.
    """
    final = curve.points[-1][1]
    band = _SATURATION_BAND * max(final, 1e-6)
    return next(d for d, entropy in curve.points if abs(entropy - final) <= band)
