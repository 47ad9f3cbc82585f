"""The benchmark workloads: inputs made from a seed, one repetition, checks.

Every command goes through the public CLI entry point, ``cli.main(argv)``,
in-process with its stdout captured. The program receives only the
generated files (and, for ``evolve``, the seed of its initial state).
Each timed operation is followed by an untimed, untraced correctness check;
an operation fails on a non-zero exit code, an exception, or a failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qdecimate import cli, entanglement, fileio
from qdecimate.entanglement import QubitFactorization
from qdecimate.numerics import DEFAULT_TOL
from qdecimate.pca import fit_pca
from qdecimate.stateset import NormPolicy, random_state_set, validate_state_set

RANDOM_DIM, RANDOM_COUNT = 2**12, 200
SWEEP_STATES = 4
LOWRANK_DIM, LOWRANK_COUNT, LOWRANK_RANK = 2**10, 150, 8
ISING_SITES, ISING_STEPS, ISING_D = 10, 60, 8
# criterion 09: the last point of an entropy curve equals the fine entropy
ENDPOINT_TOL = 1e-8


@dataclass
class Op:
    """One timed operation of a repetition."""

    name: str  # the end-to-end metric it feeds, e.g. "fit_s"
    seconds: float
    digest: str  # hash of everything the operation wrote or returned
    problem: str | None = None  # None when it ran and passed its check


def run_cli(argv: list[str]) -> tuple[int, str]:
    """qdecimate.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        return code, err.getvalue().strip()
    return code, out.getvalue()


def file_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _timed_op(
    name: str,
    tracer,
    call: Callable[[], object],
    check: Callable[[object], str | None],
    digest: Callable[[object], str],
) -> Op:
    """Time call() (traced when a tracer is given), then check it untraced."""
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            return Op(name, time.perf_counter() - start, "", f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    try:
        problem = check(result)
        return Op(name, seconds, "" if problem else digest(result), problem)
    except Exception as exc:  # a check that cannot run has failed
        traceback.print_exc(file=sys.stderr)
        return Op(name, seconds, "", f"{type(exc).__name__}: {exc}")


def _cli_op(name, tracer, argv, outputs: list[Path], check: Callable[[], str | None]) -> Op:
    def checked(result):
        code, text = result
        if code != 0:
            return f"exit code {code}: {text}"
        return check()

    return _timed_op(name, tracer, lambda: run_cli(argv), checked, lambda _: file_digest(outputs))


def model_residual_problem(model_path: Path, states: np.ndarray) -> str | None:
    """Reload a written model and require max|Phi W - S| <= DEFAULT_TOL.base."""
    model = fileio.read_model(model_path)
    residual = float(np.abs(model.basis @ model.weights - states).max())
    if residual > DEFAULT_TOL.base:
        return f"{model_path.name}: max|PhiW - S| = {residual:.3e} > {DEFAULT_TOL.base}"
    return None


def unit_norm_problem(path: Path) -> str | None:
    matrix, _ = fileio.read_state_set(path)
    drift = float(np.abs(np.linalg.norm(matrix, axis=0) - 1.0).max())
    if drift > DEFAULT_TOL.state_norm:
        return f"{path.name}: a decimated column has norm drift {drift:.3e}"
    return None


def fine_entropy(states: np.ndarray, mu: int, q: int) -> float:
    f = QubitFactorization.from_dim(states.shape[0])
    rho = entanglement.reduced_density_matrix(states[:, mu - 1], f, q)
    return entanglement.von_neumann_entropy(rho)


def _fit_and_decimate(inputs: dict, out: Path, tracer) -> list[Op]:
    states_path, states = inputs["states_path"], inputs["states"]
    model_path, coarse_path = out / "model.json", out / "coarse.json"
    fit = _cli_op(
        "fit_s",
        tracer,
        ["fit", str(states_path), "-o", str(model_path)],
        [model_path],
        lambda: model_residual_problem(model_path, states),
    )
    decimate = _cli_op(
        "decimate_s",
        tracer,
        ["decimate", str(model_path), "--eps", "0.01", "-o", str(coarse_path)],
        [coarse_path],
        lambda: unit_norm_problem(coarse_path),
    )
    return [fit, decimate]


# --- random-cli ------------------------------------------------------------


def setup_random_cli(seed: int, indir: Path) -> dict:
    s = random_state_set(RANDOM_DIM, RANDOM_COUNT, seed)
    states_path = indir / "states.json"
    fileio.write_state_set(states_path, s.matrix)
    # the entropy sweep works on a state set and model already in memory
    return {"states_path": states_path, "states": s.matrix, "set": s, "model": fit_pca(s)}


def _entropy_curve_op(inputs: dict, out: Path, tracer) -> Op:
    states_path, curve_path = inputs["states_path"], out / "curve.csv"

    def endpoint_problem():
        argv = ["entropy-curve", str(states_path), "--state", "1", "--qubit", "1", "--fine"]
        code, text = run_cli(argv)
        if code != 0:
            return f"--fine exit code {code}: {text}"
        fine = float(text.split("=", 1)[1].split()[0])
        last = fileio.read_curve(curve_path)[-1][1]
        if abs(last - fine) > ENDPOINT_TOL:
            return f"curve endpoint {last!r} differs from --fine {fine!r}"
        return None

    return _cli_op(
        "entropy_curve_s",
        tracer,
        ["entropy-curve", str(states_path), "--state", "1", "--qubit", "1", "-o", str(curve_path)],
        [curve_path],
        endpoint_problem,
    )


def _entropy_sweep_op(inputs: dict, tracer) -> Op:
    s, model = inputs["set"], inputs["model"]
    n = QubitFactorization.from_dim(s.dim).n
    pairs = [(mu, q) for q in range(1, n + 1) for mu in range(1, SWEEP_STATES + 1)]

    def sweep():
        # looked up on the module so that a traced run sees the calls
        return [entanglement.entropy_vs_dimension_curve(s, model, mu, q) for mu, q in pairs]

    def check(curves):
        for curve in curves:
            fine = fine_entropy(inputs["states"], curve.state_index, curve.qubit)
            if abs(curve.points[-1][1] - fine) > ENDPOINT_TOL:
                return f"sweep curve ({curve.state_index}, {curve.qubit}) endpoint off fine entropy"
        return None

    def digest(curves):
        return hashlib.sha256(repr([c.points for c in curves]).encode()).hexdigest()

    return _timed_op("entropy_sweep_s", tracer, sweep, check, digest)


def rep_random_cli(inputs: dict, out: Path, tracer) -> list[Op]:
    ops = _fit_and_decimate(inputs, out, tracer)
    ops.append(_entropy_curve_op(inputs, out, tracer))
    ops.append(_entropy_sweep_op(inputs, tracer))
    return ops


# --- lowrank-fit -----------------------------------------------------------


def lowrank_states(seed: int) -> np.ndarray:
    """LOWRANK_COUNT seeded combinations of the same LOWRANK_RANK random states."""
    base = random_state_set(LOWRANK_DIM, LOWRANK_RANK, seed).matrix
    rng = np.random.Generator(np.random.PCG64([seed, LOWRANK_RANK]))
    shape = (LOWRANK_RANK, LOWRANK_COUNT)
    mixed = base @ (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return validate_state_set(mixed / np.linalg.norm(mixed, axis=0), NormPolicy.STRICT).matrix


def setup_lowrank_fit(seed: int, indir: Path) -> dict:
    states = lowrank_states(seed)
    states_path = indir / "states.json"
    fileio.write_state_set(states_path, states)
    return {"states_path": states_path, "states": states}


def rep_lowrank_fit(inputs: dict, out: Path, tracer) -> list[Op]:
    return _fit_and_decimate(inputs, out, tracer)


# --- ising-evolve ----------------------------------------------------------


def setup_ising_evolve(seed: int, indir: Path) -> dict:
    # evolve builds its own initial state from the seed; there is no input file
    return {"seed": seed}


def rep_ising_evolve(inputs: dict, out: Path, tracer) -> list[Op]:
    prefix = out / "run"
    suffixes = ("_trajectory.json", "_model.json", "_hcg.json", "_retained.csv")
    paths = {suffix: Path(f"{prefix}{suffix}") for suffix in suffixes}
    argv = ["evolve", "--hamiltonian", f"ising:{ISING_SITES}", "--psi0", f"random:{inputs['seed']}"]
    argv += ["--dt", "0.1", "--steps", str(ISING_STEPS), "--d", str(ISING_D)]
    argv += ["--out-prefix", str(prefix)]

    def check():
        trajectory, _ = fileio.read_state_set(paths["_trajectory.json"])
        problem = model_residual_problem(paths["_model.json"], trajectory)
        if problem:
            return problem
        d, power = fileio.read_curve(paths["_retained.csv"])[-1]
        if d != ISING_STEPS + 1 or abs(power - 1.0) > DEFAULT_TOL.base:
            return f"retained power at d={d} is {power!r}, expected 1 at d={ISING_STEPS + 1}"
        return None

    return [_cli_op("evolve_s", tracer, argv, list(paths.values()), check)]


# name -> (make the inputs from a seed, run one repetition); BENCHMARK.json
# and NOTES.md say why each workload exists
WORKLOADS = {
    "random-cli": (setup_random_cli, rep_random_cli),
    "lowrank-fit": (setup_lowrank_fit, rep_lowrank_fit),
    "ising-evolve": (setup_ising_evolve, rep_ising_evolve),
}
