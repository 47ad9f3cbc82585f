"""Oracle implementations shared by the test modules.

Everything here is written independently of the package internals so the
tests compare two routes to the same quantity. Keep it that way: no
imports from qdecimate beyond plain data types.
"""

from __future__ import annotations

import base64
import json
import math
import tracemalloc

import numpy as np


def peak_bytes(call) -> int:
    """Peak of the memory that call allocates, above what was held before, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-ish unitary from QR of a complex Gaussian, phase-fixed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_columns(dim: int, count: int, seed: int) -> np.ndarray:
    """Unit-norm random complex columns, same draw scheme as the package docs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.uniform(-1.0, 1.0, size=(dim, count)) + 1j * rng.uniform(
        -1.0, 1.0, size=(dim, count)
    )
    return raw / np.linalg.norm(raw, axis=0, keepdims=True)


def reflector_completion(k_columns: np.ndarray, width: int) -> np.ndarray:
    """Columns k..width-1 of Q = H_0 ... H_{k-1}, the Householder QR of the orthonormal D x k K.

    Each H_j = I - 2 v v^H / (v^H v) is an explicit Hermitian reflector on
    rows j.., mapping column j of the partly reduced K, x, to s_j ||x|| e_j,
    s_j the negated phase of x's first entry (1 when it is 0). Q [0; I; 0]
    is formed by applying the reflectors, last first, to the unit columns.
    """
    a = np.array(k_columns, dtype=complex)
    dim, k = a.shape
    vectors = []
    for j in range(k):
        x = a[j:, j]
        sign = -x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v = x.copy()
        v[0] -= sign * np.linalg.norm(x)
        vectors.append(v)
        a[j:] -= np.outer(v, 2.0 * (v.conj() @ a[j:]) / np.vdot(v, v).real)
    q = np.zeros((dim, width - k), dtype=complex)
    q[np.arange(k, width), np.arange(width - k)] = 1.0
    for j in reversed(range(k)):
        v = vectors[j]
        q[j:] -= np.outer(v, 2.0 * (v.conj() @ q[j:]) / np.vdot(v, v).real)
    return q


def random_hermitian_oracle(dim: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def qubit_bit(index: int, q: int, n: int) -> int:
    """Bit of qubit q (1-based, q=1 most significant) in basis index."""
    return (index >> (n - q)) & 1


def dense_reduced_density_matrix(v: np.ndarray, n: int, q: int) -> np.ndarray:
    """Partial trace via the full D x D outer product and explicit index sums."""
    dim = 2**n
    assert v.shape == (dim,)
    rho_full = np.outer(v, v.conj())
    rho = np.zeros((2, 2), dtype=np.complex128)
    stride = 1 << (n - q)
    for i in range(dim):
        a = qubit_bit(i, q, n)
        for b in (0, 1):
            j = (i & ~stride) | (b * stride)
            rho[a, b] += rho_full[i, j]
    return rho


def entropy_2x2_analytic(rho: np.ndarray) -> float:
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, then -sum(lam ln lam)."""
    t = float(np.real(rho[0, 0] + rho[1, 1]))
    det = float(np.real(rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]))
    disc = max(t * t - 4.0 * det, 0.0)
    lams = ((t + math.sqrt(disc)) / 2.0, (t - math.sqrt(disc)) / 2.0)
    total = 0.0
    for lam in lams:
        lam = min(max(lam, 0.0), 1.0)
        if lam > 0.0:
            total -= lam * math.log(lam)
    return total + 0.0


def entropy_eigvalsh(rho: np.ndarray) -> float:
    """-sum(lam ln lam) over the eigvalsh spectrum of a Hermitian matrix of any size."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    positive = lam[lam > 0.0]
    return float(-np.sum(positive * np.log(positive))) + 0.0


def brute_force_minimal_d(weights: np.ndarray, eps: float) -> int:
    """Exhaustive scan for the smallest d with cumulative power >= 1 - eps.

    Uses the same elementwise arithmetic (re^2 + im^2, sequential partial
    sums) so agreement with the library must be exact, not approximate.
    """
    target = 1.0 - eps
    running = 0.0
    for k in range(weights.shape[0]):
        running += weights[k].real ** 2 + weights[k].imag ** 2
        if running >= target:
            return max(k + 1, 2)
    return max(weights.shape[0], 2)


def kron_ising_chain(n: int, coupling: float, field: float) -> np.ndarray:
    """Open transverse-field Ising chain from Kronecker-embedded Pauli matrices.

    -coupling * sum_s Z_s Z_{s+1} - field * sum_s X_s with site 1 the
    leftmost (most significant) factor, accumulated site by site.
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

    def embed(op: np.ndarray, site: int) -> np.ndarray:
        left = np.eye(2 ** (site - 1), dtype=np.complex128)
        right = np.eye(2 ** (n - site), dtype=np.complex128)
        return np.kron(np.kron(left, op), right)

    dim = 2**n
    h = np.zeros((dim, dim), dtype=np.complex128)
    for site in range(1, n):
        h -= coupling * (embed(sz, site) @ embed(sz, site + 1))
    for site in range(1, n + 1):
        h -= field * embed(sx, site)
    return h


def bessel_j(a: float) -> np.ndarray:
    """J_0(a) .. J_N(a) for a > 0 by Miller's backward recurrence, one a at a time.

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


# Chebyshev coefficients with |c_k| below this are dropped.
SERIES_CUT = 1e-15


def chebyshev_coefficients(a: float) -> np.ndarray:
    """c_k with exp(-i a x) = sum_k c_k T_k(x) on [-1, 1], up to the last |c_k| >= 1e-15.

    c_0 = J_0(a) and c_k = 2 (-i)^k J_k(a) (Jacobi-Anger). A negative a uses
    J_k(-a) = (-1)^k J_k(|a|), i.e. the phases i^k. Below the cut, J_0(a)
    rounds to 1 and every other |c_k| is below it: the series is [1].
    """
    if abs(a) < SERIES_CUT:
        return np.ones(1, dtype=np.complex128)
    j = bessel_j(abs(a))
    c = 2.0 * j
    c[0] = j[0]
    keep = int(np.flatnonzero(np.abs(c) >= SERIES_CUT)[-1]) + 1
    phases = np.array([1, -1j, -1, 1j] if a > 0 else [1, 1j, -1, -1j])
    return c[:keep] * phases[np.arange(keep) % 4]


def naive_triple_product(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g @ h @ g^dag by explicit summation loops."""
    d, dim = g.shape
    out = np.zeros((d, d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            acc = 0.0 + 0.0j
            for i in range(dim):
                for j in range(dim):
                    acc += g[a, i] * h[i, j] * np.conj(g[b, j])
            out[a, b] = acc
    return out


def real_expectation(x: np.ndarray, op: np.ndarray) -> float:
    """x^dag O x by np.vdot, asserted real: its imaginary residue is at most 1e-8."""
    value = complex(np.vdot(x, op @ x))
    assert abs(value.imag) <= 1e-8, f"imaginary residue {value.imag:.3e}"
    return value.real


def naive_expectation(x: np.ndarray, op: np.ndarray) -> complex:
    """Double-loop sum_ij conj(x_i) O_ij x_j."""
    acc = 0.0 + 0.0j
    for i in range(x.shape[0]):
        for j in range(x.shape[0]):
            acc += np.conj(x[i]) * op[i, j] * x[j]
    return acc


def whole_document_json(doc: dict) -> bytes:
    """Format-2 file bytes built as one text, the way the writers once did.

    Every ndarray value becomes {"dtype": "<c16", "shape": [...], "data":
    b64encode of its row-major bytes}; then one json.dumps of the whole
    document with sorted keys and no spaces, plus a newline.
    """

    def encode(value):
        if not isinstance(value, np.ndarray):
            return value
        arr = np.ascontiguousarray(value, dtype="<c16")
        return {
            "dtype": "<c16",
            "shape": list(arr.shape),
            "data": base64.b64encode(arr).decode("ascii"),
        }

    doc = {key: encode(value) for key, value in doc.items()}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
