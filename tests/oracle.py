"""A dense numpy oracle for the fit, and the state sets it is checked on.

Nothing here imports qdecimate. For unit states S (D x M), u0 = ones(D)/sqrt(D)
and the deviations are S - u0 u0^H S. Their singular values e_1 >= e_2 >= ...
and, at a cut k with a gap e_k - e_{k+1}, the projector onto their first k
left singular vectors are defined by S alone, whatever phase each singular
vector carries, so a fitted model must reproduce them.
"""

import numpy as np

KINDS = ("full-rank", "rank-r", "repeated-phases", "orthonormal-noise")
# singular values at or below this fraction of e_1 count as zero
RANK_REL = 1e-12
# a cut whose gap is below this fraction of e_1 is not compared
GAP_REL = 1e-6


def deviation_svd(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The left singular vectors (D x M) and singular values of S - u0 u0^H S."""
    u0 = np.full(s.shape[0], 1.0 / np.sqrt(s.shape[0]))
    u, e, _ = np.linalg.svd(s - np.outer(u0, u0 @ s), full_matrices=False)
    return u, e


def rank(e: np.ndarray) -> int:
    return int(np.sum(e > RANK_REL * e[0]))


def gapped_cuts(e: np.ndarray) -> list[tuple[int, float]]:
    """Each cut k in 1..rank with its gap e_k - e_{k+1} (e_{M+1} = 0), if at least GAP_REL * e_1."""
    gaps = e - np.append(e[1:], 0.0)
    return [(k, gaps[k - 1]) for k in range(1, rank(e) + 1) if gaps[k - 1] >= GAP_REL * e[0]]


def _gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def state_set(kind: str, dim: int, count: int, r: int, seed: int) -> np.ndarray:
    """dim x count unit states of one of KINDS; r (1 <= r <= count) sets the rank or the repeats.

    full-rank: Gaussian states. rank-r: combinations of r Gaussian states.
    repeated-phases: r Gaussian states repeated in turn, each copy times a
    random phase. orthonormal-noise: orthonormal columns plus 1e-9 noise.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "full-rank":
        s = _gaussian(rng, dim, count)
    elif kind == "rank-r":
        s = _gaussian(rng, dim, r) @ _gaussian(rng, r, count)
    elif kind == "repeated-phases":
        s = _gaussian(rng, dim, r)[:, np.arange(count) % r]
        s = s * np.exp(2j * np.pi * rng.uniform(size=count))
    elif kind == "orthonormal-noise":
        s = np.linalg.qr(_gaussian(rng, dim, count))[0] + 1e-9 * _gaussian(rng, dim, count)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return s / np.linalg.norm(s, axis=0)
