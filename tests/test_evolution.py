import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import (
    DEFAULT_TOL,
    BadDimension,
    DimMismatch,
    IsingChain,
    NonFinite,
    NotHermitian,
    NotNormalized,
    RegimeViolation,
    ZeroNorm,
    build_map,
    coarse_grain_hamiltonian,
    coarse_grain_operator,
    coarse_grained_trajectory,
    decimate_state,
    evolve_sequence,
    fit_pca,
    ising_chain,
    outside_span,
    random_hamiltonian,
    random_state_vector,
    retained_power,
    validate_state_set,
)

from qdecimate import decimation, evolution
from qdecimate.evolution import _MAX_PHASE, _bessel_table, _check_phase, _segment_coefficients

from helpers import (
    bessel_j,
    chebyshev_coefficients,
    kron_ising_chain,
    naive_expectation,
    naive_triple_product,
    peak_bytes,
    real_expectation,
)

COUPLINGS = (1.0, -0.7, 0.0, 2.5e-3)
FIELDS = (1.0, -1.3, 0.0, 0.37)


class TestEvolveSequence:
    def test_zero_hamiltonian_freezes_state(self):
        psi0 = random_state_vector(8, seed=90)
        traj = evolve_sequence(np.zeros((8, 8), dtype=complex), psi0, 0.3, 5)
        assert traj.count == 5
        for j in range(5):
            assert np.abs(traj.matrix[:, j] - psi0).max() <= 1e-12

    def test_eigenstate_phase(self):
        # diag Hamiltonian, psi0 = e1, dt = pi: second state is exp(-i pi) e1
        h = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        traj = evolve_sequence(h, psi0, math.pi, 2)
        assert np.abs(traj.matrix[:, 0] - psi0).max() <= 1e-12
        assert np.abs(traj.matrix[:, 1] + psi0).max() <= 1e-10

    def test_energy_conservation(self):
        # per-step expectation oracle
        h = random_hamiltonian(16, seed=91)
        psi0 = random_state_vector(16, seed=92)
        traj = evolve_sequence(h, psi0, 0.1, 6)
        energies = [
            naive_expectation(traj.matrix[:, j], h).real for j in range(6)
        ]
        assert max(energies) - min(energies) <= 1e-9

    def test_unitarity(self):
        h = random_hamiltonian(16, seed=93)
        traj = evolve_sequence(h, random_state_vector(16, seed=94), 0.2, 7)
        norms = np.linalg.norm(traj.matrix, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_composition(self):
        h = random_hamiltonian(12, seed=95)
        psi0 = random_state_vector(12, seed=96)
        fine = evolve_sequence(h, psi0, 0.1, 3)
        coarse_steps = evolve_sequence(h, psi0, 0.2, 2)
        assert (
            np.abs(fine.matrix[:, 2] - coarse_steps.matrix[:, 1]).max()
            <= 1e-9
        )

    def test_regime_violation(self):
        h = np.zeros((8, 8), dtype=complex)
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
            evolve_sequence(np.zeros((8, 8), dtype=complex), np.ones(8, dtype=complex), 0.1, 3)

    @pytest.mark.parametrize("drift", [1e-9 - 1e-15, -1e-9 + 1e-15])
    def test_admitted_initial_drift_rescaled(self, drift):
        # the drift alone would carry round-off past the 1e-9 norm check of later states
        psi0 = random_state_vector(256, seed=4) * (1 + drift)
        traj = evolve_sequence(ising_chain(8), psi0, 0.3, 60)
        assert np.array_equal(traj.column(1), psi0 / np.linalg.norm(psi0))
        norms = np.linalg.norm(traj.matrix, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-13

    def test_unit_initial_state_kept_bit_for_bit(self):
        psi0 = random_state_vector(64, seed=8)
        assert np.array_equal(evolve_sequence(ising_chain(6), psi0, 0.3, 20).column(1), psi0)

    def test_trajectory_is_not_copied(self):
        # the set is the transposed view of the series rows: the 6.25 MiB
        # trajectory, one series block and its product buffer, and no copy
        chain, psi0 = ising_chain(12), random_state_vector(4096, seed=1)
        traj = evolve_sequence(chain, psi0, 0.1, 100)
        assert traj.matrix.flags.f_contiguous and not traj.matrix.flags.writeable
        peak = peak_bytes(lambda: evolve_sequence(chain, psi0, 0.1, 100))
        assert peak <= 11.5 * 2**20, f"{peak / 2**20:.2f} MiB"

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=6),
    )
    def test_unitarity_random(self, seed, steps):
        h = random_hamiltonian(12, seed=seed)
        traj = evolve_sequence(h, random_state_vector(12, seed=seed + 1), 0.15, steps)
        norms = np.linalg.norm(traj.matrix, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-10


class TestCoarseGrainHamiltonian:
    def test_identity(self):
        traj = evolve_sequence(
            random_hamiltonian(16, seed=100), random_state_vector(16, seed=101), 0.1, 4
        )
        model = fit_pca(traj)
        cg = build_map(model, 3)
        out = coarse_grain_hamiltonian(cg, np.eye(16))
        assert np.abs(out - np.eye(3)).max() <= 1e-12

    def test_matches_naive_triple_product(self):
        h = random_hamiltonian(8, seed=102)
        traj = evolve_sequence(h, random_state_vector(8, seed=103), 0.1, 3)
        model = fit_pca(traj)
        cg = build_map(model, 3)
        got = coarse_grain_hamiltonian(cg, h)
        want = naive_triple_product(model.basis[:, :3].conj().T, h)
        assert np.abs(got - want).max() <= 1e-12

    def test_full_rank_energy_match(self):
        h = random_hamiltonian(16, seed=104)
        traj = evolve_sequence(h, random_state_vector(16, seed=105), 0.1, 5)
        model = fit_pca(traj)
        cg = build_map(model, 6)
        h_cg = coarse_grain_hamiltonian(cg, h)
        for j in range(5):
            fine = real_expectation(traj.matrix[:, j], h)
            coarse = real_expectation(model.weights[:, j], h_cg)
            assert abs(fine - coarse) <= 1e-10

    def test_hermiticity(self):
        h = random_hamiltonian(16, seed=106)
        traj = evolve_sequence(h, random_state_vector(16, seed=107), 0.1, 5)
        cg = build_map(fit_pca(traj), 4)
        h_cg = coarse_grain_hamiltonian(cg, h)
        scale = np.linalg.norm(h, 2)
        assert np.abs(h_cg - h_cg.conj().T).max() <= 1e-12 * scale


class TestCoarseGrainedTrajectory:
    def test_constant_trajectory_collapses_to_mean_component(self):
        # uniform initial state, zero Hamiltonian: deviations vanish entirely
        dim = 16
        psi0 = np.full(dim, 1.0 / 4.0, dtype=complex)
        traj = evolve_sequence(np.zeros((dim, dim), dtype=complex), psi0, 0.1, 4)
        weights, power = coarse_grained_trajectory(fit_pca(traj), 2)
        assert weights.shape == (2, 4) and power.shape == (4,)
        for j in range(4):
            assert np.abs(weights[:, j] - np.array([1.0, 0.0])).max() <= 1e-12
            assert abs(math.sqrt(power[j]) - 1.0) <= 1e-12

    def test_full_dimension_preserves_overlaps(self):
        h = random_hamiltonian(16, seed=108)
        traj = evolve_sequence(h, random_state_vector(16, seed=109), 0.1, 5)
        weights, _ = coarse_grained_trajectory(fit_pca(traj), 6)
        for i in range(5):
            for j in range(5):
                fine = np.vdot(traj.matrix[:, i], traj.matrix[:, j])
                cg = np.vdot(weights[:, i], weights[:, j])
                assert abs(fine - cg) <= 1e-10

    def test_retained_weight_recorded(self):
        h = random_hamiltonian(16, seed=110)
        traj = evolve_sequence(h, random_state_vector(16, seed=111), 0.3, 5)
        model = fit_pca(traj)
        _, power = coarse_grained_trajectory(model, 3)
        for j in range(5):
            w = model.weights[:3, j]
            expected = float(np.sum(np.abs(w) ** 2))
            assert abs(power[j] - expected) <= 1e-10

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
        model = fit_pca(traj)
        assert (model.rank == 8) == (case == "full-rank")
        for d in (2, 4, 9):
            cg = build_map(model, d)
            weights, power = coarse_grained_trajectory(model, d)
            assert weights.shape == (d, 8) and power.shape == (8,)
            assert not weights.flags.writeable
            for j in range(8):
                want, want_power = decimate_state(cg, traj.matrix[:, j])
                assert not outside_span(model, traj.matrix[:, j])
                assert np.abs(weights[:, j] - want).max() <= 1e-12
                assert abs(math.sqrt(power[j]) - math.sqrt(want_power)) <= 1e-12

    def test_dimension_outside_two_to_m_plus_one(self):
        h = random_hamiltonian(16, seed=116)
        model = fit_pca(evolve_sequence(h, random_state_vector(16, seed=117), 0.1, 4))
        for d in (1, 6):
            with pytest.raises(BadDimension):
                coarse_grained_trajectory(model, d)

    def test_zero_norm_named(self):
        # zero-mean states a, -a, b: the mean row and the leading component
        # carry nothing of b, so b is gone at d=2
        a = np.array([0.5, -0.5, 0.5, -0.5, 0, 0, 0, 0], dtype=complex)
        b = np.array([0, 0, 0, 0, 0.5, 0.5, -0.5, -0.5], dtype=complex)
        model = fit_pca(validate_state_set(np.stack([a, -a, b], axis=1)))
        assert coarse_grained_trajectory(model, 3)[0].shape == (3, 3)
        with pytest.raises(ZeroNorm, match="orthogonal to the retained subspace") as err:
            coarse_grained_trajectory(model, 2)
        norm = math.sqrt(retained_power(model)[1, 2])
        assert f"(norm {norm:.3e})" in str(err.value)

    def test_local_hamiltonian_concentrates_weight(self):
        # paired run: nearest-neighbor chain vs norm-matched dense random
        dim, steps, d, dt = 64, 20, 5, 0.1
        psi0 = np.full(dim, 1.0 / 8.0, dtype=complex)
        h_local = ising_chain(6)
        wins = 0
        for seed in range(3):
            h_rand = random_hamiltonian(dim, seed=200 + seed)
            h_rand = h_rand * (h_local.bound / np.linalg.norm(h_rand, 2))
            local_fit = fit_pca(evolve_sequence(h_local, psi0, dt, steps))
            rand_fit = fit_pca(evolve_sequence(h_rand, psi0, dt, steps))
            _, local = coarse_grained_trajectory(local_fit, d)
            _, rand = coarse_grained_trajectory(rand_fit, d)
            mean_local = local.mean()
            mean_rand = rand.mean()
            if mean_local >= mean_rand:
                wins += 1
        assert wins >= 2


class TestGenerators:
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
        got = ising_chain(2, coupling=coupling, field=field).apply(np.eye(4))
        assert np.abs(got - want).max() <= 1e-15

    def test_ising_properties(self):
        h = ising_chain(4).apply(np.eye(16))
        assert h.shape == (16, 16)
        assert np.abs(h - h.conj().T).max() == 0.0
        assert abs(np.trace(h)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ising_matches_kron_builder_bytes(self, n):
        for coupling in COUPLINGS:
            for field in FIELDS:
                chain = ising_chain(n, coupling, field)
                want = kron_ising_chain(n, coupling, field)
                assert not want.diagonal().imag.any()
                assert chain.diagonal.tobytes() == want.diagonal().real.tobytes(), (coupling, field)
                got = chain.apply(np.eye(chain.dim))
                assert got.dtype == want.dtype and np.array_equal(got, want), (coupling, field)

    def test_ising_holds_at_most_six_diagonals(self):
        # the diagonal and one bond vector; one Z vector per site at once would
        # be n = 16 diagonals and more
        diagonal_bytes = 8 * 2**16
        peak = peak_bytes(lambda: ising_chain(16, -0.7, 0.37))
        assert peak <= 2.5 * diagonal_bytes, f"peak {peak / diagonal_bytes:.2f} diagonals"

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    @pytest.mark.parametrize("coupling", [-0.7, 0.1, 1e-300])
    def test_ising_diagonal_matches_the_bitwise_loop(self, n, coupling):
        # Z_s = 1 - 2 * (bit n-s of the index), the bonds subtracted from site 1 on
        index = np.arange(2**n)
        z = [1.0 - 2.0 * ((index >> (n - s)) & 1) for s in range(1, n + 1)]
        reference = np.zeros(2**n)
        for s in range(n - 1):
            reference -= coupling * (z[s] * z[s + 1])
        assert ising_chain(n, coupling, 0.37).diagonal.tobytes() == reference.tobytes()

    def test_ising_needs_two_sites(self):
        with pytest.raises(RegimeViolation):
            ising_chain(1)

    @pytest.mark.parametrize(
        "coupling, field", [(float("nan"), 1.0), (1.0, float("inf")), (1e308, 1e308)]
    )
    def test_ising_rejects_non_finite_parameters_and_bound(self, coupling, field):
        with pytest.raises(NonFinite):
            ising_chain(6, coupling, field)


class TestIsingChainRecord:
    def test_init_fields_are_the_three_numbers(self):
        fields = dataclasses.fields(IsingChain)
        assert [f.name for f in fields if f.init] == ["sites", "coupling", "field"]
        assert [f.name for f in fields if not f.init] == ["diagonal"]
        with pytest.raises(TypeError):
            IsingChain(4, 1.0, 1.0, np.zeros(16))  # no way in for a diagonal

    def test_hand_built_chain_is_read_only(self):
        chain = IsingChain(4, 0.0, 0.5)
        assert (chain.dim, chain.sites) == (16, 4)
        assert not chain.diagonal.any() and not chain.diagonal.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain.sites = 3

    def test_replaced_chain_rebuilds_its_diagonal(self):
        chain = dataclasses.replace(ising_chain(5, -0.7, 0.37), coupling=0.8)
        assert chain.diagonal.tobytes() == ising_chain(5, 0.8, 0.37).diagonal.tobytes()

    @pytest.mark.parametrize("sites", [0, 1, "2", 2.5, True])
    def test_chain_needs_two_sites(self, sites):
        # an int of at least 2: not a count as text, a float or a bool
        with pytest.raises(RegimeViolation, match="at least 2 qubits"):
            IsingChain(sites, 1.0, 1.0)

    def test_factory_takes_any_integer_site_count(self):
        chain = ising_chain(np.int64(4), 1, np.float32(0.5))
        assert (type(chain.sites), type(chain.coupling), type(chain.field)) == (int, float, float)
        assert chain.diagonal.tobytes() == IsingChain(4, 1.0, 0.5).diagonal.tobytes()

    @pytest.mark.parametrize(
        "coupling, field, start",
        [
            (float("nan"), 1.0, 0.0),
            (1.0, float("-inf"), 0.0),
            (1e308, 1e308, 0.0),  # finite J and G, but |J|(n-1)+|G|n overflows
        ],
    )
    def test_non_finite_chain_refused(self, coupling, field, start):
        # unchecked, a NaN J would reach bound's SVD as numpy's LinAlgError; a
        # valid chain (J = G = start) replaced by these numbers is refused too
        with pytest.raises(NonFinite):
            IsingChain(4, coupling, field)
        valid = IsingChain(4, start, start)
        with pytest.raises(NonFinite):
            dataclasses.replace(valid, coupling=coupling, field=field)


class TestIsingChainAction:
    def test_members(self):
        chain = ising_chain(5, -0.7, 0.37)
        assert isinstance(chain, IsingChain)
        assert chain.dim == 32
        assert not chain.diagonal.flags.writeable
        with pytest.raises(AttributeError):
            chain.coupling = 2.0
        assert "bound" not in vars(chain)
        assert chain.bound is chain.bound and "bound" in vars(chain)  # computed once
        # bound is the spectral radius; with J = 0 or G = 0 the terms commute
        # and the Gershgorin bound is attained
        for n in range(2, 9):
            for coupling in COUPLINGS:
                for field in FIELDS:
                    chain = ising_chain(n, coupling, field)
                    h = kron_ising_chain(n, coupling, field)
                    radius = np.abs(np.linalg.eigvalsh(h.real)).max()
                    assert abs(chain.bound - radius) <= 1e-12 * radius, (n, coupling, field)
                    gershgorin = abs(coupling) * (n - 1) + abs(field) * n
                    if coupling == 0.0 or field == 0.0:
                        assert chain.bound == gershgorin, (n, coupling, field)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_apply_matches_dense(self, n):
        rng = np.random.Generator(np.random.PCG64(300 + n))
        dim = 2**n
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        block = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        for coupling in COUPLINGS:
            for field in FIELDS:
                chain = ising_chain(n, coupling, field)
                h = kron_ising_chain(n, coupling, field)
                assert np.abs(chain.apply(x) - h @ x).max() <= 1e-14
                assert chain.apply(block).shape == (dim, 3)
                assert np.abs(chain.apply(block) - h @ block).max() <= 1e-14
                # a strided view goes through the same reshape
                assert np.abs(chain.apply(block[:, 1]) - h @ block[:, 1]).max() <= 1e-14

    def test_apply_leaves_input_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(310))
        chain = ising_chain(6, -0.7, 0.37)
        block = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
        for x in (block[:, 0].copy(), block, block[:, 2]):
            before = x.copy()
            out = chain.apply(x)
            assert np.array_equal(x, before)
            assert not np.shares_memory(out, x)

    def test_apply_holds_at_most_two_blocks_and_a_half(self):
        # a (D, k) block of 16 * D * k bytes: the flip buffer becomes the
        # result, so one more block (the diagonal product) is the only other
        chain = ising_chain(12)
        x = random_state_vector(2**12, seed=311)[:, np.newaxis] * np.ones(20)
        peak = peak_bytes(lambda: chain.apply(x))
        assert peak <= 2.5 * x.nbytes, f"peak {peak / x.nbytes:.2f} blocks"

    def test_apply_rejects_wrong_shapes(self):
        chain = ising_chain(3)
        for shape in ((4,), (8, 2, 2), (16, 1), ()):
            with pytest.raises(DimMismatch):
                chain.apply(np.zeros(shape, dtype=complex))


class TestChebyshevSeries:
    @pytest.mark.parametrize(
        "k, a, value",
        [
            (0, 1.0, 0.7651976865579666),
            (1, 1.0, 0.4400505857449335),
            (0, 10.0, -0.2459357644513483),
            (5, 10.0, -0.2340615281867936),
            (2, 2.5, 0.4460590584396172),
            (100, 100.0, 0.09636667329586157),
            (3, 0.001, 2.083333203125009e-11),
        ],
    )
    def test_bessel_tabulated(self, k, a, value):
        assert abs(bessel_j(a)[k] - value) <= 1e-15 * max(1.0, a**0.5) + 1e-15 * abs(value)

    @pytest.mark.parametrize("a", [1e-12, 0.3, 1.9, 31.0, 400.0])
    def test_bessel_sum_rules(self, a):
        j = bessel_j(a)
        assert abs(j[0] + 2.0 * j[2::2].sum() - 1.0) <= 1e-15
        # independent of the normalisation: J_0^2 + 2 sum_k J_k^2 = 1
        assert abs(j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2) - 1.0) <= 1e-13

    @pytest.mark.parametrize("a", [1e-9, 0.5, 1.9, -3.0, 25.0, -120.0])
    def test_series_is_the_exponential(self, a):
        # sum_k c_k T_k(x) = exp(-i a x) across [-1, 1], cut at |c_k| < 1e-15
        c = chebyshev_coefficients(a)
        assert np.abs(c[-1]) >= 1e-15
        x = np.linspace(-1.0, 1.0, 41)
        got = np.polynomial.chebyshev.chebval(x, c)
        assert np.abs(got - np.exp(-1j * a * x)).max() <= 1e-14 * max(1.0, abs(a))

    def test_negative_phase_is_exact_conjugate(self):
        for a in (0.2, 1.9, 40.0):
            assert np.array_equal(chebyshev_coefficients(-a), chebyshev_coefficients(a).conj())

    def test_zero_phase_is_identity(self):
        for a in (0.0, -0.0, 1e-300, -5e-324):
            assert np.array_equal(chebyshev_coefficients(a), [1.0])

    @pytest.mark.parametrize("a", [1e300, -1e300, float("inf"), float("nan"), _MAX_PHASE * 1.01])
    def test_phase_beyond_cap_rejected(self, a):
        with pytest.raises(RegimeViolation, match="phase"):
            _check_phase(a)


class TestChebyshevPropagation:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_eigh_on_dense(self, n):
        dim = 2**n
        steps = min(5, dim - 2)
        psi0 = random_state_vector(dim, seed=400 + n)
        times = np.arange(steps)
        for coupling in COUPLINGS:
            for field in FIELDS:
                chain = ising_chain(n, coupling, field)
                dense = chain.apply(np.eye(dim))
                assert not dense.imag.any()  # real symmetric: the real eigh is the oracle
                energies, vectors = np.linalg.eigh(dense.real)
                amplitudes = vectors.T @ psi0
                for dt in (-0.3, 0.0, 0.1, 2.5):
                    got = evolve_sequence(chain, psi0, dt, steps).matrix
                    phases = np.exp(-1j * np.outer(energies, dt * times))
                    want = vectors @ (phases * amplitudes[:, np.newaxis])
                    assert np.abs(got - want).max() <= 1e-12, (coupling, field, dt)
                    norms = np.linalg.norm(got, axis=0)
                    assert np.abs(norms - 1.0).max() <= DEFAULT_TOL.state_norm

    def test_one_step_is_the_start_state(self):
        psi0 = random_state_vector(8, seed=3)
        got = evolve_sequence(ising_chain(3), psi0, 0.1, 1).matrix
        assert got.shape == (8, 1) and got[:, 0].tobytes() == psi0.tobytes()

    def test_dense_input_takes_eigh_path(self):
        chain = ising_chain(4, 0.9, 0.6)
        psi0 = random_state_vector(16, seed=410)
        via_chain = evolve_sequence(chain, psi0, 0.2, 6).matrix
        via_dense = evolve_sequence(chain.apply(np.eye(16)), psi0, 0.2, 6).matrix
        assert not np.array_equal(via_chain, via_dense)  # two different propagators
        assert np.abs(via_chain - via_dense).max() <= 1e-13

    def test_zero_time_step_and_zero_chain_are_exact(self):
        psi0 = random_state_vector(32, seed=411)
        for chain, dt in ((ising_chain(5), 0.0), (ising_chain(5, 0.0, 0.0), 0.7)):
            states = evolve_sequence(chain, psi0, dt, 6).matrix
            for j in range(6):
                assert np.array_equal(states[:, j], psi0)

    def test_backward_step_undoes_forward(self):
        chain = ising_chain(6, 1.1, -0.8)
        psi0 = random_state_vector(64, seed=412)
        forward = evolve_sequence(chain, psi0, 0.25, 8).matrix[:, -1]
        back = evolve_sequence(chain, forward, -0.25, 8).matrix[:, -1]
        assert np.abs(back - psi0).max() <= 1e-13

    def test_round_off_is_one_series_per_segment(self, apply_calls):
        # every state within K_total * eps of the exact one, whatever its index:
        # 499 steps need K > D = 512 terms, so the span runs as two segments
        chain = ising_chain(9)
        psi0 = random_state_vector(512, seed=413)
        steps, dt = 500, 0.1
        got = evolve_sequence(chain, psi0, dt, steps).matrix
        step = chain.bound * dt
        terms = _segment_coefficients(step, steps - 1, 512)[1]
        # the longest segment whose K stays within D
        assert terms[-1] <= 512 < chebyshev_coefficients(step * (terms.size + 1)).size
        segments = -(-(steps - 1) // terms.size)
        assert segments == 2
        total_terms = len(apply_calls) + segments  # a K-term segment applies H K - 1 times
        energies, vectors = np.linalg.eigh(chain.apply(np.eye(chain.dim)).real)
        phases = np.exp(-1j * np.outer(energies, dt * np.arange(steps)))
        exact = vectors @ (phases * (vectors.T @ psi0)[:, np.newaxis])
        errors = np.linalg.norm(got - exact, axis=0)
        assert errors.max() <= total_terms * np.finfo(float).eps  # measured: 0.45 of it

    def test_one_recurrence_for_all_time_points(self, apply_calls):
        # ising:10, 60 steps of 0.1: K - 1 applications for the last time's K
        # terms, not K_step - 1 for each of the 59 steps; the phase is taken at
        # the spectral radius, 0.65 of the Gershgorin bound 19
        chain = ising_chain(10)
        steps, dt = 60, 0.1
        evolve_sequence(chain, random_state_vector(1024, seed=420), dt, steps)
        terms = chebyshev_coefficients(chain.bound * dt * (steps - 1)).size
        per_step = chebyshev_coefficients(chain.bound * dt).size - 1
        assert len(apply_calls) == terms - 1 == 117
        assert chebyshev_coefficients(19 * dt * (steps - 1)).size - 1 == 163
        assert (steps - 1) * per_step == 885
        assert all(shape == (1024,) for shape in apply_calls)

    def test_each_block_reaches_only_the_states_that_need_it(self, monkeypatch):
        # ising:10, 60 steps of 0.1: a block of terms k0.. is added only to the
        # states whose own K_j exceeds k0, a suffix since K_j grows with j, and
        # every state stays within the K_total * eps of the whole series
        chain = ising_chain(10)
        psi0 = random_state_vector(1024, seed=422)
        steps, dt = 60, 0.1
        terms = _segment_coefficients(chain.bound * dt, steps - 1, 1024)[1]
        assert terms.size == steps - 1 and terms[0] < terms[-1]
        product_rows = []
        matmul = np.matmul

        def counted(a, b, out=None):
            product_rows.append(a.shape[0])
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", counted)
        got = evolve_sequence(chain, psi0, dt, steps).matrix
        monkeypatch.undo()
        # the 2 * 1024 float columns go in two panels, so that the product
        # buffer of 59 rows stays within the block of 32 vectors
        starts = range(0, terms[-1], evolution.SERIES_BLOCK)
        assert product_rows == [int(np.count_nonzero(terms > k0)) for k0 in starts for _ in "ab"]
        assert product_rows[0] == steps - 1 and product_rows[-1] < steps - 1
        energies, vectors = np.linalg.eigh(chain.apply(np.eye(chain.dim)).real)
        phases = np.exp(-1j * np.outer(energies, dt * np.arange(steps)))
        exact = vectors @ (phases * (vectors.T @ psi0)[:, np.newaxis])
        errors = np.linalg.norm(got - exact, axis=0)
        assert errors.max() <= terms[-1] * np.finfo(float).eps

    def test_series_holds_its_block_and_a_few_vectors(self):
        # _sum_series holds the block of SERIES_BLOCK vectors, a product buffer no
        # larger, and under six vectors beside: the recurrence's two, the action's
        # three, and the diagonal scaled to 2 H / bound, half a vector;
        # neither the scaling nor a term copies a vector more
        chain = ising_chain(12)
        steps, step = 41, chain.bound * 0.1
        table, terms = _segment_coefficients(step, steps - 1, chain.dim)
        rows = np.zeros((steps - 1, chain.dim), dtype=complex)
        start = random_state_vector(chain.dim, seed=423)
        phases, vector = evolution._phases(step), 16 * chain.dim
        peak = peak_bytes(lambda: evolution._sum_series(chain, start, table, terms, phases, rows))
        bound = (2 * evolution.SERIES_BLOCK + 6) * vector
        assert peak <= bound, f"peak {peak / vector:.2f} vectors"

    @pytest.mark.parametrize("dt", [0.3, -0.3])
    def test_segments_match_the_single_series(self, monkeypatch, apply_calls, dt):
        chain = ising_chain(7, -0.7, 0.37)
        psi0 = random_state_vector(128, seed=421)
        steps, step = 40, chain.bound * abs(dt)
        single = evolve_sequence(chain, psi0, dt, steps).matrix
        single_applies = len(apply_calls)
        assert single_applies == chebyshev_coefficients(step * (steps - 1)).size - 1
        monkeypatch.setattr(evolution, "_MAX_PHASE", 3.5 * step)
        assert _segment_coefficients(step, steps - 1, 128)[1].size == 3
        segmented = evolve_sequence(chain, psi0, dt, steps).matrix
        assert len(apply_calls) - single_applies > single_applies  # 13 restarted series
        assert np.abs(segmented - single).max() <= 1e-12
        # a single step above the cap is still refused
        monkeypatch.setattr(evolution, "_MAX_PHASE", 0.5 * step)
        with pytest.raises(RegimeViolation, match="phase"):
            evolve_sequence(chain, psi0, dt, steps)

    def test_coefficient_table_matches_scalar_coefficients(self):
        a = np.array([0.0, 5e-16, 1e-12, 0.3, 1.9, 31.0, 400.0])
        table = _bessel_table(a)
        # below the cut, J_0 rounds to 1 and the column is exactly (1, 0, 0, ...)
        assert np.array_equal(table[0, :2], [1.0, 1.0]) and not table[1:, :2].any()
        for column, value in zip(table.T[2:], a[2:]):
            scalar = bessel_j(value)
            assert np.abs(column[: scalar.size] - scalar).max() <= 1e-16
            assert not column[scalar.size :].any()
        step = 0.37
        real, terms = _segment_coefficients(step, 30, 1024)
        assert real.shape == (terms[-1], 30) and np.all(np.diff(terms) >= 0)
        for j in range(1, 31):
            for sign in (1.0, -1.0):
                want = chebyshev_coefficients(sign * j * step)
                got = real[: want.size, j - 1] * evolution._phases(sign)[np.arange(want.size) % 4]
                assert np.abs(got - want).max() <= 4 * np.finfo(float).eps
                assert np.abs(real[want.size :, j - 1]).max(initial=0.0) < 1e-15

    @pytest.mark.parametrize("dt", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_dt_rejected(self, dt):
        psi0 = random_state_vector(16, seed=414)
        for h in (ising_chain(4), np.zeros((16, 16), dtype=complex), random_hamiltonian(16, seed=415)):
            with pytest.raises(RegimeViolation, match="finite"):
                evolve_sequence(h, psi0, dt, 3)

    def test_overflowing_time_span_rejected(self):
        psi0 = random_state_vector(16, seed=416)
        with pytest.raises(RegimeViolation, match="finite"):
            evolve_sequence(np.zeros((16, 16), dtype=complex), psi0, 1e308, 3)
        # finite times whose phases E*t overflow
        with pytest.raises(RegimeViolation, match="overflow"):
            evolve_sequence(random_hamiltonian(16, seed=417), psi0, 1e307, 5)

    def test_chain_step_too_large_rejected(self):
        psi0 = random_state_vector(16, seed=418)
        with pytest.raises(RegimeViolation, match="phase"):
            evolve_sequence(ising_chain(4), psi0, 1e300, 3)

    def test_chain_dimension_checked(self):
        with pytest.raises(RegimeViolation, match="does not match"):
            evolve_sequence(ising_chain(3), random_state_vector(16, seed=419), 0.1, 3)


class TestChainCompression:
    @pytest.mark.parametrize("n, d", [(4, 2), (6, 5), (7, 9)])
    def test_matches_dense_compression(self, n, d):
        for coupling, field in ((1.0, 1.0), (-0.7, 0.37), (0.0, -1.3), (2.5e-3, 0.0)):
            chain = ising_chain(n, coupling, field)
            traj = evolve_sequence(chain, random_state_vector(2**n, seed=420 + n), 0.1, 8)
            b = build_map(fit_pca(traj), d)
            got = coarse_grain_hamiltonian(b, chain)
            want = b.conj().T @ (kron_ising_chain(n, coupling, field) @ b)
            assert got.shape == (d, d)
            assert np.abs(got - want).max() <= 1e-12
            assert np.abs(got - got.conj().T).max() <= 1e-12

    def test_holds_at_most_two_blocks_and_a_half(self):
        # H is applied to the basis columns themselves, not to a conjugate copy
        # of them; a block is the 16 * D * d bytes of the d retained columns
        chain = ising_chain(12)
        traj = evolve_sequence(chain, random_state_vector(2**12, seed=432), 0.1, 30)
        cg = build_map(fit_pca(traj), 20)
        block = 16 * chain.dim * cg.shape[1]
        peak = peak_bytes(lambda: coarse_grain_hamiltonian(cg, chain))
        assert peak <= 2.5 * block, f"peak {peak / block:.2f} blocks"

    def test_holds_a_few_columns_whatever_d(self):
        # at d = M+1, H acts on 8 basis columns at a time: apply's temporaries
        # are about 3 * 8 vectors of 16 * D bytes, not 3 * d
        chain = ising_chain(12)
        traj = evolve_sequence(chain, random_state_vector(2**12, seed=433), 0.1, 40)
        cg = build_map(fit_pca(traj), 41)
        vector = 16 * chain.dim
        peak = peak_bytes(lambda: coarse_grain_hamiltonian(cg, chain))
        bound = 4 * decimation._COMPRESS_COLUMNS * vector
        assert peak <= bound, f"peak {peak / vector:.2f} vectors"

    def test_map_and_compression_hold_a_few_columns(self):
        # building the map copies no basis column, so at d = M+1 the map and
        # the compression together stay within the compression's few columns
        chain = ising_chain(12)
        traj = evolve_sequence(chain, random_state_vector(2**12, seed=434), 0.1, 40)
        model = fit_pca(traj)
        vector = 16 * chain.dim
        peak = peak_bytes(lambda: coarse_grain_hamiltonian(build_map(model, 41), chain))
        bound = 4 * decimation._COMPRESS_COLUMNS * vector
        assert peak <= bound, f"peak {peak / vector:.2f} vectors"

    @pytest.mark.parametrize("d", [2, 8, 9, 17])
    def test_operator_takes_a_chain(self, d):
        # one compression for matrices and chains: coarse_grain_hamiltonian
        # only forwards, so the two agree bit for bit at every block split
        chain = ising_chain(8, -0.7, 0.37)
        traj = evolve_sequence(chain, random_state_vector(256, seed=435), 0.1, 16)
        cg = build_map(fit_pca(traj), d)
        got = coarse_grain_operator(cg, chain)
        assert got.shape == (d, d)
        assert np.array_equal(got, coarse_grain_hamiltonian(cg, chain))

    def test_dimension_mismatch(self):
        traj = evolve_sequence(ising_chain(4), random_state_vector(16, seed=430), 0.1, 4)
        cg = build_map(fit_pca(traj), 3)
        with pytest.raises(DimMismatch):
            coarse_grain_operator(cg, ising_chain(5))

    def test_result_is_checked(self):
        # an operator with apply and bound whose compressed matrix is not finite
        # (an IsingChain's diagonal is built from finite J and G)
        traj = evolve_sequence(ising_chain(4), random_state_vector(16, seed=431), 0.1, 4)
        cg = build_map(fit_pca(traj), 3)
        broken = SimpleNamespace(apply=lambda x: np.full(x.shape, np.nan), bound=1.0)
        with pytest.raises(NonFinite):
            coarse_grain_operator(cg, broken)
