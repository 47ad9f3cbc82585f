"""Retained coarse weight: local-chain evolution vs random-Hamiltonian evolution.

For each seed, evolves the same product state under an open Ising chain
and under a dense random Hermitian matrix rescaled to the chain's
spectral norm, fits both trajectories, keeps d weight components, and
compares the mean retained squared weight.  Structured dynamics should
compress better than featureless dynamics at equal energy scale.

Usage: python3 scripts/trajectory_compare.py --qubits 6 --steps 30 --d 5
"""

import argparse
import sys

import numpy as np

from qdecimate import (
    coarse_grained_trajectory,
    evolve_sequence,
    fit_pca,
    ising_chain,
    random_hamiltonian,
)


def product_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    psi = np.array([1.0], dtype=complex)
    for _ in range(n):
        single = rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
        psi = np.kron(psi, single / np.linalg.norm(single))
    return psi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=6, help="chain length n, so D = 2**n")
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--dt", type=float, default=0.1)
    parser.add_argument("--d", type=int, default=5, help="coarse dimension")
    parser.add_argument("--seeds", type=int, default=10, help="number of paired runs")
    parser.add_argument("--coupling", type=float, default=1.0)
    parser.add_argument("--field", type=float, default=1.0)
    args = parser.parse_args(argv)

    h_local = ising_chain(args.qubits, args.coupling, args.field)
    local_norm = h_local.bound  # the spectral radius, which is |H|_2 for a Hermitian H
    dim = 2**args.qubits

    wins = 0
    print(f"D={dim} steps={args.steps} dt={args.dt} d={args.d} |H|={local_norm:.4f}")
    print("seed, chain retained, random retained, margin")
    for k in range(args.seeds):
        psi0 = product_state(args.qubits, seed=9000 + k)
        h_rand = random_hamiltonian(dim, seed=9100 + k)
        h_rand = h_rand * (local_norm / float(np.linalg.norm(h_rand, 2)))
        local_fit = fit_pca(evolve_sequence(h_local, psi0, args.dt, args.steps))
        rand_fit = fit_pca(evolve_sequence(h_rand, psi0, args.dt, args.steps))
        _, local = coarse_grained_trajectory(local_fit, args.d)
        _, rand = coarse_grained_trajectory(rand_fit, args.d)
        mean_local = float(local.mean())
        mean_rand = float(rand.mean())
        wins += mean_local >= mean_rand
        print(f"{k}, {mean_local:.4f}, {mean_rand:.4f}, {mean_local - mean_rand:+.4f}")
    print(f"chain retained at least as much in {wins}/{args.seeds} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
