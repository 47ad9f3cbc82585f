import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    NotHermitian,
    NotNormalized,
    RegimeViolation,
    Trajectory,
    ZeroNorm,
    build_map,
    coarse_grain_hamiltonian,
    coarse_grained_trajectory,
    decimate_state,
    evolve_sequence,
    expectation,
    fit_pca,
    ising_chain,
    random_hamiltonian,
    random_state_vector,
    validate_state_set,
    zero_hamiltonian,
)

from helpers import kron_ising_chain, naive_expectation, naive_triple_product


class TestEvolveSequence:
    def test_zero_hamiltonian_freezes_state(self):
        psi0 = random_state_vector(8, seed=90)
        traj = evolve_sequence(zero_hamiltonian(8), psi0, 0.3, 5)
        assert traj.states.count == 5
        for j in range(5):
            assert np.abs(traj.states.matrix[:, j] - psi0).max() <= 1e-12

    def test_eigenstate_phase(self):
        # diag Hamiltonian, psi0 = e1, dt = pi: second state is exp(-i pi) e1
        h = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        traj = evolve_sequence(h, psi0, math.pi, 2)
        assert np.abs(traj.states.matrix[:, 0] - psi0).max() <= 1e-12
        assert np.abs(traj.states.matrix[:, 1] + psi0).max() <= 1e-10

    def test_energy_conservation(self):
        # per-step expectation oracle
        h = random_hamiltonian(16, seed=91)
        psi0 = random_state_vector(16, seed=92)
        traj = evolve_sequence(h, psi0, 0.1, 6)
        energies = [
            naive_expectation(traj.states.matrix[:, j], h).real for j in range(6)
        ]
        assert max(energies) - min(energies) <= 1e-9

    def test_unitarity(self):
        h = random_hamiltonian(16, seed=93)
        traj = evolve_sequence(h, random_state_vector(16, seed=94), 0.2, 7)
        norms = np.linalg.norm(traj.states.matrix, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_composition(self):
        h = random_hamiltonian(12, seed=95)
        psi0 = random_state_vector(12, seed=96)
        fine = evolve_sequence(h, psi0, 0.1, 3)
        coarse_steps = evolve_sequence(h, psi0, 0.2, 2)
        assert (
            np.abs(fine.states.matrix[:, 2] - coarse_steps.states.matrix[:, 1]).max()
            <= 1e-9
        )

    def test_regime_violation(self):
        h = zero_hamiltonian(8)
        psi0 = random_state_vector(8, seed=97)
        with pytest.raises(RegimeViolation):
            evolve_sequence(h, psi0, 0.1, 7)
        with pytest.raises(RegimeViolation):
            evolve_sequence(h, psi0, 0.1, 0)

    def test_hamiltonian_shape_check(self):
        psi0 = random_state_vector(8, seed=98)
        with pytest.raises(RegimeViolation):
            evolve_sequence(np.zeros((4, 4), dtype=complex), psi0, 0.1, 3)

    def test_non_hermitian_rejected(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            evolve_sequence(bad, random_state_vector(8, seed=99), 0.1, 3)

    def test_unnormalized_initial_state(self):
        with pytest.raises(NotNormalized):
            evolve_sequence(zero_hamiltonian(8), np.ones(8, dtype=complex), 0.1, 3)

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=6),
    )
    def test_unitarity_random(self, seed, steps):
        h = random_hamiltonian(12, seed=seed)
        traj = evolve_sequence(h, random_state_vector(12, seed=seed + 1), 0.15, steps)
        norms = np.linalg.norm(traj.states.matrix, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-10


class TestCoarseGrainHamiltonian:
    def test_identity(self):
        traj = evolve_sequence(
            random_hamiltonian(16, seed=100), random_state_vector(16, seed=101), 0.1, 4
        )
        model = fit_pca(traj.states)
        cg = build_map(model, 3)
        out = coarse_grain_hamiltonian(cg, np.eye(16))
        assert np.abs(out - np.eye(3)).max() <= 1e-12

    def test_matches_naive_triple_product(self):
        h = random_hamiltonian(8, seed=102)
        traj = evolve_sequence(h, random_state_vector(8, seed=103), 0.1, 3)
        model = fit_pca(traj.states)
        cg = build_map(model, 3)
        got = coarse_grain_hamiltonian(cg, h)
        want = naive_triple_product(np.asarray(cg.g), h)
        assert np.abs(got - want).max() <= 1e-12

    def test_full_rank_energy_match(self):
        h = random_hamiltonian(16, seed=104)
        traj = evolve_sequence(h, random_state_vector(16, seed=105), 0.1, 5)
        model = fit_pca(traj.states)
        cg = build_map(model, 6)
        h_cg = coarse_grain_hamiltonian(cg, h)
        for j in range(5):
            fine = expectation(traj.states.matrix[:, j], h)
            coarse = expectation(model.weights[:, j], h_cg)
            assert abs(fine - coarse) <= 1e-10

    def test_hermiticity(self):
        h = random_hamiltonian(16, seed=106)
        traj = evolve_sequence(h, random_state_vector(16, seed=107), 0.1, 5)
        cg = build_map(fit_pca(traj.states), 4)
        h_cg = coarse_grain_hamiltonian(cg, h)
        scale = np.linalg.norm(h, 2)
        assert np.abs(h_cg - h_cg.conj().T).max() <= 1e-12 * scale


class TestCoarseGrainedTrajectory:
    def test_constant_trajectory_collapses_to_mean_component(self):
        # uniform initial state, zero Hamiltonian: deviations vanish entirely
        dim = 16
        psi0 = np.full(dim, 1.0 / 4.0, dtype=complex)
        traj = evolve_sequence(zero_hamiltonian(dim), psi0, 0.1, 4)
        coarse = coarse_grained_trajectory(traj, 2)
        for state in coarse:
            assert np.abs(state.weights - np.array([1.0, 0.0])).max() <= 1e-12
            assert abs(state.norm_before - 1.0) <= 1e-12

    def test_full_dimension_preserves_overlaps(self):
        h = random_hamiltonian(16, seed=108)
        traj = evolve_sequence(h, random_state_vector(16, seed=109), 0.1, 5)
        coarse = coarse_grained_trajectory(traj, 6)
        for i in range(5):
            for j in range(5):
                fine = np.vdot(traj.states.matrix[:, i], traj.states.matrix[:, j])
                cg = np.vdot(coarse[i].weights, coarse[j].weights)
                assert abs(fine - cg) <= 1e-10

    def test_retained_weight_recorded(self):
        h = random_hamiltonian(16, seed=110)
        traj = evolve_sequence(h, random_state_vector(16, seed=111), 0.3, 5)
        model = fit_pca(traj.states)
        coarse = coarse_grained_trajectory(traj, 3)
        for j, state in enumerate(coarse):
            w = model.weights[:3, j]
            expected = float(np.sum(np.abs(w) ** 2))
            assert abs(state.norm_before**2 - expected) <= 1e-10

    @pytest.mark.parametrize("case", ["full-rank", "rank-deficient"])
    def test_matches_decimate_state_per_column(self, case):
        # weight-space slice against the D-dimensional projection of each step
        if case == "full-rank":
            h, psi0 = random_hamiltonian(32, seed=114), random_state_vector(32, seed=115)
        else:
            # psi0 on 3 eigenvectors of a diagonal H: every step lies in their span
            h = np.diag(np.arange(32, dtype=float)).astype(complex)
            psi0 = np.zeros(32, dtype=complex)
            psi0[[2, 7, 19]] = [0.6, 0.48j, 0.64]
        traj = evolve_sequence(h, psi0, 0.1, 8)
        model = fit_pca(traj.states)
        assert (model.rank == 8) == (case == "full-rank")
        for d in (2, 4, 9):
            cg = build_map(model, d)
            coarse = coarse_grained_trajectory(traj, d)
            assert len(coarse) == 8
            for j, state in enumerate(coarse):
                want = decimate_state(cg, traj.states.matrix[:, j])
                assert state.d == d and not state.outside_span
                assert np.abs(state.weights - want.weights).max() <= 1e-12
                assert abs(state.norm_before - want.norm_before) <= 1e-12
                assert not state.weights.flags.writeable

    def test_zero_norm_named(self):
        # zero-mean states a, -a, b: the mean row and the leading component
        # carry nothing of b, so b is gone at d=2
        a = np.array([0.5, -0.5, 0.5, -0.5, 0, 0, 0, 0], dtype=complex)
        b = np.array([0, 0, 0, 0, 0.5, 0.5, -0.5, -0.5], dtype=complex)
        states = validate_state_set(np.stack([a, -a, b], axis=1))
        traj = Trajectory(initial=a, dt=0.1, steps=3, states=states)
        assert len(coarse_grained_trajectory(traj, 3)) == 3
        with pytest.raises(ZeroNorm, match="orthogonal to the retained subspace"):
            coarse_grained_trajectory(traj, 2)

    def test_local_hamiltonian_concentrates_weight(self):
        # paired run: nearest-neighbor chain vs norm-matched dense random
        dim, steps, d, dt = 64, 20, 5, 0.1
        psi0 = np.full(dim, 1.0 / 8.0, dtype=complex)
        h_local = ising_chain(6)
        wins = 0
        for seed in range(3):
            h_rand = random_hamiltonian(dim, seed=200 + seed)
            h_rand = h_rand * (np.linalg.norm(h_local, 2) / np.linalg.norm(h_rand, 2))
            local = coarse_grained_trajectory(
                evolve_sequence(h_local, psi0, dt, steps), d
            )
            rand = coarse_grained_trajectory(
                evolve_sequence(h_rand, psi0, dt, steps), d
            )
            mean_local = np.mean([s.norm_before**2 for s in local])
            mean_rand = np.mean([s.norm_before**2 for s in rand])
            if mean_local >= mean_rand:
                wins += 1
        assert wins >= 2


class TestGenerators:
    def test_zero_hamiltonian(self):
        h = zero_hamiltonian(6)
        assert h.shape == (6, 6)
        assert np.all(h == 0.0)

    def test_random_hamiltonian_hermitian_and_seeded(self):
        a = random_hamiltonian(12, seed=112)
        b = random_hamiltonian(12, seed=112)
        c = random_hamiltonian(12, seed=113)
        assert np.abs(a - a.conj().T).max() == 0.0
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ising_two_sites_explicit_matrix(self):
        # hand-written 4x4: -J Z(x)Z - g (X(x)I + I(x)X)
        coupling, field = 1.25, 0.75
        want = -coupling * np.diag([1.0, -1.0, -1.0, 1.0]) - field * np.array(
            [
                [0.0, 1.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, 1.0, 0.0],
            ]
        )
        got = ising_chain(2, coupling=coupling, field=field)
        assert np.abs(got - want).max() <= 1e-15

    def test_ising_properties(self):
        h = ising_chain(4)
        assert h.shape == (16, 16)
        assert np.abs(h - h.conj().T).max() == 0.0
        assert abs(np.trace(h)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ising_matches_kron_builder_bytes(self, n):
        for coupling in (1.0, -0.7, 0.0, 2.5e-3):
            for field in (1.0, -1.3, 0.0, 0.37):
                got = ising_chain(n, coupling, field)
                want = kron_ising_chain(n, coupling, field)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (coupling, field)

    def test_ising_needs_two_sites(self):
        with pytest.raises(RegimeViolation):
            ising_chain(1)
