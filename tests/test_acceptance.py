"""Acceptance gate: eleven criteria, one test each, fixed tolerances.

Every test prints `criterion NN <name>: PASS|FAIL` directly to the
terminal (capture bypassed) so a full run always shows the scoreboard,
then asserts.
"""

import math
import time

import numpy as np
import pytest

from qdecimate import (
    QubitFactorization,
    build_map,
    coarse_grain_hamiltonian,
    coarse_grain_operator,
    coarse_grained_trajectory,
    decimate_state,
    entropy_vs_dimension_curve,
    evolve_sequence,
    fit_pca,
    ising_chain,
    random_hamiltonian,
    random_state_set,
    random_state_vector,
    reduced_density_matrix,
    saturation_dimension,
    select_dimension,
    validate_state_set,
    von_neumann_entropy,
)
from qdecimate.cli import main as cli_main
from qdecimate.fileio import read_model, write_state_set

from helpers import (
    brute_force_minimal_d,
    dense_reduced_density_matrix,
    entropy_eigvalsh,
    random_unitary,
    real_expectation,
)


@pytest.fixture
def report(capsys):
    def _print(num: int, name: str, ok: bool, extra: str = "") -> None:
        tail = f"  {extra}" if extra else ""
        with capsys.disabled():
            print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)

    return _print


def _emit(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_01_isometry_suite(report):
    start = time.perf_counter()
    worst_gram = worst_proj = 0.0
    eye = np.eye(41)
    for seed in range(100):
        s = random_state_set(256, 40, seed=seed)
        model = fit_pca(s)
        gram = np.abs(model.basis.conj().T @ model.basis - eye).max()
        proj = np.abs(model.basis @ (model.basis.conj().T @ s.matrix) - s.matrix).max()
        worst_gram = max(worst_gram, float(gram))
        worst_proj = max(worst_proj, float(proj))
    elapsed = time.perf_counter() - start
    ok = worst_gram <= 1e-10 and worst_proj <= 1e-10 and elapsed < 30.0
    report(1, "isometry suite", ok, f"(gram {worst_gram:.2e}, proj {worst_proj:.2e}, {elapsed:.1f}s)")
    assert ok


def test_criterion_02_reconstruction(report):
    worst_recon = worst_norm = 0.0
    for seed in range(100):
        s = random_state_set(256, 40, seed=seed)
        model = fit_pca(s)
        recon = np.abs(model.basis @ model.weights - s.matrix).max()
        norms = (np.abs(model.weights) ** 2).sum(axis=0)
        worst_recon = max(worst_recon, float(recon))
        worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))
    ok = worst_recon <= 1e-10 and worst_norm <= 1e-9
    report(2, "reconstruction", ok, f"(recon {worst_recon:.2e}, norm {worst_norm:.2e})")
    assert ok


def test_criterion_03_inner_products_and_distances(report):
    worst_ip = worst_dist = 0.0
    for seed in (0, 1, 2, 3, 4):
        s = random_state_set(256, 40, seed=seed)
        model = fit_pca(s)
        fine_gram = s.matrix.conj().T @ s.matrix
        coarse_gram = model.weights.conj().T @ model.weights
        worst_ip = max(worst_ip, float(np.abs(fine_gram - coarse_gram).max()))
        for mu in range(40):
            for nu in range(mu + 1, 40):
                fine = np.linalg.norm(s.matrix[:, mu] - s.matrix[:, nu])
                coarse = np.linalg.norm(model.weights[:, mu] - model.weights[:, nu])
                worst_dist = max(worst_dist, abs(float(fine - coarse)))
    ok = worst_ip <= 1e-10 and worst_dist <= 1e-10
    report(3, "inner products and distances", ok, f"(ip {worst_ip:.2e}, dist {worst_dist:.2e})")
    assert ok


def test_criterion_04_basis_invariance(report):
    worst = 0.0
    for seed in (10, 11, 12):
        s = random_state_set(256, 40, seed=seed)
        model = fit_pca(s)
        lam = random_unitary(256, seed=seed + 500)
        rotated = validate_state_set(lam @ s.matrix)
        model_rot = fit_pca(rotated)
        gram = model.weights.conj().T @ model.weights
        gram_rot = model_rot.weights.conj().T @ model_rot.weights
        worst = max(worst, float(np.abs(gram - gram_rot).max()))
    ok = worst <= 1e-9
    report(4, "basis invariance of the Gram matrix", ok, f"(dev {worst:.2e})")
    assert ok


def test_criterion_05_coarse_grain_map_contract(report):
    s = random_state_set(256, 40, seed=20)
    model = fit_pca(s)
    dims = (2, 5, 40, 41)
    worst_iso = 0.0
    for d in dims:
        g = build_map(model, d).conj().T
        worst_iso = max(worst_iso, float(np.abs(g @ g.conj().T - np.eye(d)).max()))
    worst_nested = 0.0
    maps = {d: build_map(model, d) for d in dims}
    for mu in range(1, 41):
        v = s.column(mu)
        coarse = {d: decimate_state(maps[d], v)[0] for d in dims}
        for d in dims:
            for d_prime in dims:
                if d_prime >= d:
                    continue
                chopped = coarse[d][:d_prime]
                chopped = chopped / np.linalg.norm(chopped)
                dev = np.abs(chopped - coarse[d_prime]).max()
                worst_nested = max(worst_nested, float(dev))
    ok = worst_iso <= 1e-10 and worst_nested <= 1e-10
    report(5, "coarse-grain map contract", ok, f"(iso {worst_iso:.2e}, nested {worst_nested:.2e})")
    assert ok


def test_criterion_06_expectation_endpoint(report, capsys):
    dim, count = 64, 12
    s = random_state_set(dim, count, seed=30)
    model = fit_pca(s)
    operators = [random_hamiltonian(dim, seed=31 + k) for k in range(20)]
    fine = np.empty((20, count))
    for k, op in enumerate(operators):
        for mu in range(1, count + 1):
            fine[k, mu - 1] = real_expectation(s.column(mu), op)
    worst_endpoint = 0.0
    table = []
    for d in range(2, count + 2):
        cg = build_map(model, d)
        errs = []
        for k, op in enumerate(operators):
            op_cg = coarse_grain_operator(cg, op)
            for mu in range(1, count + 1):
                coarse = real_expectation(decimate_state(cg, s.column(mu))[0], op_cg)
                errs.append(abs(coarse - fine[k, mu - 1]))
        table.append((d, float(np.mean(errs)), float(np.max(errs))))
        if d == count + 1:
            worst_endpoint = float(np.max(errs))
    ok = worst_endpoint <= 1e-10
    report(6, "expectation endpoint", ok, f"(endpoint {worst_endpoint:.2e})")
    _emit(capsys, "    d, mean |err|, max |err|")
    for d, mean_err, max_err in table:
        _emit(capsys, f"    {d:2d}, {mean_err:.3e}, {max_err:.3e}")
    assert ok


def test_criterion_07_epsilon_selection_oracle(report):
    rng = np.random.Generator(np.random.PCG64(40))
    eps_pool = (0.0, 1e-9, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999)
    checked = 0
    mismatches = 0
    seed = 0
    while checked < 1000:
        model = fit_pca(random_state_set(64, 12, seed=4000 + seed))
        seed += 1
        for mu in range(1, 13):
            if checked >= 1000:
                break
            if checked % 3 == 0:
                eps = float(rng.uniform(0.0, 0.999999))
            else:
                eps = eps_pool[checked % len(eps_pool)]
            got = select_dimension(model, eps, state=mu)
            want = brute_force_minimal_d(model.weights[:, mu - 1], eps)
            if got != want:
                mismatches += 1
            checked += 1
    ok = mismatches == 0 and checked == 1000
    report(7, "epsilon selection oracle", ok, f"({checked} vectors, {mismatches} mismatches)")
    assert ok


def test_criterion_08_entanglement_oracles(report):
    f = QubitFactorization(n=4)
    worst_rdm = 0.0
    for seed in range(5):
        v = random_state_vector(16, seed=800 + seed)
        for q in range(1, 5):
            got = reduced_density_matrix(v, f, q)
            want = dense_reduced_density_matrix(v, 4, q)
            worst_rdm = max(worst_rdm, float(np.abs(got - want).max()))
    mixed_err = abs(von_neumann_entropy(np.eye(2) / 2.0) - math.log(2))
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    f2 = QubitFactorization(n=2)
    s1 = von_neumann_entropy(reduced_density_matrix(bell, f2, 1))
    s2 = von_neumann_entropy(reduced_density_matrix(bell, f2, 2))
    bell_err = abs(s1 - s2)
    ok = worst_rdm <= 1e-12 and mixed_err <= 1e-12 and bell_err <= 1e-12
    report(
        8,
        "entanglement oracles",
        ok,
        f"(rdm {worst_rdm:.2e}, ln2 {mixed_err:.2e}, bell {bell_err:.2e})",
    )
    assert ok


def test_criterion_09_saturation_curve_at_scale(report):
    start = time.perf_counter()
    dim, count = 2**10, 250
    s = random_state_set(dim, count, seed=90)
    model = fit_pca(s)
    mu, q = 1, 1
    curve = entropy_vs_dimension_curve(s, model, mu, q)
    f = QubitFactorization.from_dim(dim)
    fine = entropy_eigvalsh(reduced_density_matrix(s.column(mu), f, q))
    endpoint_err = abs(curve.points[-1][1] - fine)
    d95 = saturation_dimension(curve)
    elapsed = time.perf_counter() - start
    ok = len(curve.points) == 251 and endpoint_err <= 1e-8 and elapsed < 300.0
    report(
        9,
        "entropy curve at scale (D=1024, M=250)",
        ok,
        f"(endpoint err {endpoint_err:.2e}, d95={d95}, S_fine={fine:.4f} nats, {elapsed:.1f}s)",
    )
    assert ok


def _product_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    psi = np.array([1.0], dtype=complex)
    for _ in range(n):
        single = rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
        psi = np.kron(psi, single / np.linalg.norm(single))
    return psi


def test_criterion_10_evolution_suite(report, capsys):
    dim, steps, dt = 64, 30, 0.1
    h = random_hamiltonian(dim, seed=100)
    psi0 = random_state_vector(dim, seed=101)
    traj = evolve_sequence(h, psi0, dt, steps)
    norm_err = float(np.abs(np.linalg.norm(traj.matrix, axis=0) - 1.0).max())
    energies = [real_expectation(traj.matrix[:, j], h) for j in range(steps)]
    energy_drift = max(energies) - min(energies)
    model = fit_pca(traj)
    h_norm = float(np.linalg.norm(h, 2))
    herm_dev = 0.0
    for d in (5, steps + 1):
        h_cg = coarse_grain_hamiltonian(build_map(model, d), h)
        herm_dev = max(herm_dev, float(np.abs(h_cg - h_cg.conj().T).max()))

    h_local = ising_chain(6)
    local_norm = h_local.bound  # the exact spectral radius, without a D x D matrix
    violations = 0
    lines = []
    for k in range(10):
        psi_k = _product_state(6, seed=9000 + k)
        h_rand = random_hamiltonian(dim, seed=9100 + k)
        h_rand = h_rand * (local_norm / float(np.linalg.norm(h_rand, 2)))
        local_fit = fit_pca(evolve_sequence(h_local, psi_k, dt, steps))
        rand_fit = fit_pca(evolve_sequence(h_rand, psi_k, dt, steps))
        _, local = coarse_grained_trajectory(local_fit, 5)
        _, rand = coarse_grained_trajectory(rand_fit, 5)
        mean_local = float(local.mean())
        mean_rand = float(rand.mean())
        flag = "ok" if mean_local >= mean_rand else "VIOLATED"
        violations += mean_local < mean_rand
        lines.append(
            f"    seed {k}: ising retained {mean_local:.4f} vs random {mean_rand:.4f} [{flag}]"
        )

    hard_ok = norm_err <= 1e-10 and energy_drift <= 1e-9 and herm_dev <= 1e-12 * h_norm
    paired_ok = violations < 8  # soft check hard-fails only at >= 8 of 10
    ok = hard_ok and paired_ok
    report(
        10,
        "evolution suite",
        ok,
        f"(norm {norm_err:.2e}, drift {energy_drift:.2e}, herm {herm_dev:.2e}, "
        f"paired violations {violations}/10)",
    )
    for line in lines:
        _emit(capsys, line)
    assert ok


def test_criterion_11_cli_round_trip(report, tmp_path):
    s = random_state_set(64, 12, seed=110)
    states_path = tmp_path / "states.json"
    write_state_set(states_path, s.matrix)
    out_a = tmp_path / "model_a.json"
    out_b = tmp_path / "model_b.json"
    rc_a = cli_main(["fit", str(states_path), "-o", str(out_a)])
    rc_b = cli_main(["fit", str(states_path), "-o", str(out_b)])
    model = read_model(out_a)
    recon_err = float(np.abs(model.basis @ model.weights - s.matrix).max())
    identical = out_a.read_bytes() == out_b.read_bytes()
    states_again = tmp_path / "states_again.json"
    write_state_set(states_again, random_state_set(64, 12, seed=110).matrix)
    inputs_identical = states_path.read_bytes() == states_again.read_bytes()
    ok = rc_a == 0 and rc_b == 0 and recon_err <= 1e-9 and identical and inputs_identical
    report(
        11,
        "cli round trip",
        ok,
        f"(recon {recon_err:.2e}, rerun identical={identical})",
    )
    assert ok
