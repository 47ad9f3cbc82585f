"""Property gate: a state set the validator admits passes every later check.

A STRICT set admits column norms within Tolerances.state_norm of 1. Each
drawn set, with its norms anywhere in that band, edges included, must
pass every command that reads it: fit, decimate by --d and by --eps,
entropy-curve with -o and with --fine on every state and qubit, and
evolve from one of its states under a chain and under a dense
Hamiltonian. In the library, each of its states lies inside the fitted
basis (decimate_state's out-of-span check stays quiet), and its coarse
weights give a real expectation of the compressed chain Hamiltonian at
every d. Hypothesis runs derandomized, so the examples are the same on
every run.
"""

import contextlib
import io

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdecimate import (
    DEFAULT_TOL,
    NotNormalized,
    build_map,
    coarse_grain_operator,
    coarse_grained_trajectory,
    decimate_state,
    expectation,
    fit_pca,
    ising_chain,
    validate_state_set,
)
from qdecimate.cli import main
from qdecimate.fileio import read_state_set, write_state_set

from helpers import random_columns

ADMITTED = settings(derandomize=True, deadline=None, database=None, max_examples=40)
EDGE = DEFAULT_TOL.state_norm - 1e-15


def _run(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}"


@ADMITTED
@given(
    qubits=st.integers(4, 6),
    seed=st.integers(0, 2**32 - 1),
    drifts=st.lists(
        st.floats(-DEFAULT_TOL.state_norm, DEFAULT_TOL.state_norm), min_size=1, max_size=5
    ),
    pick=st.integers(0, 4),
)
@example(qubits=4, seed=5, drifts=[EDGE, -EDGE], pick=0)
@example(qubits=4, seed=5, drifts=[EDGE, -EDGE], pick=1)
@example(qubits=6, seed=7, drifts=[EDGE, -EDGE, EDGE], pick=2)
@example(qubits=6, seed=7, drifts=[-EDGE, EDGE, -EDGE], pick=2)
# random_state_vector(256, 4) * (1 + 1e-9 - 1e-15), which evolve under ising:8 once refused
@example(qubits=8, seed=4, drifts=[EDGE], pick=0)
# the set's column norms and evolve's psi0 norm once summed in different orders:
# this file fit, but evolve refused its state 2 with norm 0.999999999
@example(qubits=4, seed=4, drifts=[-DEFAULT_TOL.state_norm * (1 - 1e-12)] * 2, pick=1)
def test_admitted_set_passes_every_command(tmp_path_factory, qubits, seed, drifts, pick):
    dim, count = 2**qubits, len(drifts)
    matrix = random_columns(dim, count, seed) * (1.0 + np.array(drifts))
    try:
        admitted = validate_state_set(matrix)
    except NotNormalized:
        assume(False)
    model, chain = fit_pca(admitted), ising_chain(qubits)
    for d in range(2, count + 2):
        cg = build_map(model, d)
        h_cg = coarse_grain_operator(cg, chain)
        weights, _ = coarse_grained_trajectory(admitted, d)
        for mu in range(count):
            assert not decimate_state(cg, matrix[:, mu])[2]
            expectation(weights[:, mu], h_cg)  # NonRealExpectation would fail here
    root = tmp_path_factory.mktemp("admitted")
    states, model, psi0 = root / "s.json", root / "m.json", root / "psi.json"
    write_state_set(states, matrix)
    write_state_set(psi0, matrix[:, pick % count : pick % count + 1])

    _run(["fit", states, "-o", model])
    _run(["decimate", model, "-o", root / "d.json", "--d", count + 1])
    _run(["decimate", model, "-o", root / "e.json", "--eps", 1e-3])
    for mu in range(1, count + 1):
        for q in range(1, qubits + 1):
            _run(["entropy-curve", states, "-o", root / "c.csv", "--state", mu, "--qubit", q])
            _run(["entropy-curve", states, "--fine", "--state", mu, "--qubit", q])
    steps = min(dim - 2, 60)
    prefix = root / "run"
    for hamiltonian in ([f"ising:{qubits}"], ["random:1", "--dim", dim]):
        argv = ["evolve", "--hamiltonian", *hamiltonian, "--psi0", f"file:{psi0}"]
        _run(argv + ["--dt", 0.3, "--steps", steps, "--out-prefix", prefix])
        trajectory, _ = read_state_set(f"{prefix}_trajectory.json")
        drift = np.abs(np.linalg.norm(trajectory, axis=0) - 1.0).max()
        assert drift <= DEFAULT_TOL.state_norm
