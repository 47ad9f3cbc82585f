"""Command-line front end: fit, decimate, entropy-curve, evolve, info.

Exit codes: 0 success, 1 I/O failure or out of memory, 2 validation or
domain error. Output files are deterministic: with a fixed BLAS build and
BLAS thread count, identical inputs and seeds give byte-identical bytes
on disk. Another thread count moves them by round-off.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from . import __version__, fileio
from .decimation import build_map, check_dimension, decimate_state, retained_power, select_dimension
from .entanglement import (
    LN2,
    QubitFactorization,
    entropy_vs_dimension_curve,
    reduced_density_matrix,
    saturation_dimension,
    von_neumann_entropy,
)
from .errors import AllZeroDeviations, DomainError
from .evolution import (
    SERIES_BLOCK,
    coarse_grain_hamiltonian,
    evolve_sequence,
    ising_chain,
    random_hamiltonian,
)
from .numerics import Tolerances
from .pca import fit_pca, importances
from .stateset import NormPolicy, check_regime, random_state_vector, validate_state_set


def _load_states(args: argparse.Namespace):
    matrix, _ = fileio.read_state_set(args.states)
    policy = NormPolicy.AUTO_NORMALIZE if args.auto_normalize else NormPolicy.STRICT
    return validate_state_set(matrix, policy=policy)


def cmd_fit(args: argparse.Namespace) -> int:
    states = _load_states(args)
    model = fit_pca(states)
    fileio.write_model(args.output, model)
    print(f"states: M={states.count}")
    print(f"dimension: D={states.dim}")
    print(f"rank: {model.rank}")
    try:
        fractions = importances(model)
    except AllZeroDeviations:
        print("importance table: skipped (all deviation singular values are zero)")
    else:
        print("k,singular_value,importance")
        for k in range(1, model.count + 1):
            e_k = float(model.singular_values[k - 1])
            print(f"{k},{e_k!r},{float(fractions[k - 1])!r}")
    print(f"model written: {args.output}")
    return 0


def cmd_decimate(args: argparse.Namespace) -> int:
    model = fileio.read_model(args.model)
    if args.eps is not None:
        d = select_dimension(model, args.eps)
        print(f"selected d={d} (eps={args.eps!r}, set-max rule)")
    else:
        d = args.d
    cg = build_map(model, d)
    columns = []
    # every fitted state rebuilt by one product, one row per state
    fine = model.weights.T @ model.basis.T
    for mu, state in enumerate(fine, start=1):
        weights, power, _ = decimate_state(cg, state)
        columns.append(weights)
        print(f"state {mu}: d={d} retained_power={power!r}")
    fileio.write_state_set(args.output, np.stack(columns, axis=1))
    print(f"coarse weights written: {args.output}")
    return 0


def cmd_entropy_curve(args: argparse.Namespace) -> int:
    states = _load_states(args)
    factor = QubitFactorization.from_dim(states.dim)
    scale = 1.0 / LN2 if args.bits else 1.0
    unit = "bits" if args.bits else "nats"
    if not 1 <= args.state <= states.count:
        raise DomainError(f"--state must lie in 1..{states.count}, got {args.state}")
    if not 1 <= args.qubit <= factor.n:
        raise DomainError(f"--qubit must lie in 1..{factor.n}, got {args.qubit}")
    if args.fine:
        rho = reduced_density_matrix(states.column(args.state), factor, args.qubit)
        value = von_neumann_entropy(rho) * scale
        print(f"fine_entropy={value!r} ({unit})")
        return 0
    model = fit_pca(states)
    curve = entropy_vs_dimension_curve(states, model, args.state, args.qubit)
    fileio.write_curve(args.output, [(d, value * scale) for d, value in curve.points])
    print(f"curve written: {args.output} ({len(curve.points)} rows, {unit})")
    print(f"d95={saturation_dimension(curve)}")
    return 0


# Peak memory of evolve: 64 MiB for the interpreter and numpy (46 MiB for
# all of ising:10 with 60 steps), plus multiples of 16*D bytes. The state
# set, the fitted basis and the fit's temporaries (a row block, the stacked
# R factors, the lift) make three trajectories of steps+1 vectors; the map
# is a view of the basis. A chain adds its series block of min(32, steps)
# vectors (its compression's 24 fit beside the three). Estimated against
# measured with one BLAS thread and 100 steps, at d = M+1 and at --d 20
# alike: 148/107 MiB at ising:14, 399/304 at ising:16, 1404/1094 at
# ising:18; 5.30/4.14 GiB at ising:20 with --d 20. A dense D x D H and its
# eigh take about 5 x 16*D^2 bytes, the fewest copies that bound both
# 149/120 MiB at random --dim 1024 and 394/364 at --dim 2048 (4 would say
# 329 there); its compression holds 8 columns, not d.
_INTERPRETER_BYTES = 64 * 2**20
_TRAJECTORY_COPIES = 3
_DENSE_COPIES = 5


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_evolve_memory(dim: int, steps: int, dense: bool) -> None:
    """Refuse an evolve run whose estimated peak exceeds physical memory.

    Sizes that malloc does not refuse outright would otherwise allocate
    and get the process killed instead of ending in a one-line error.
    """
    extra = _DENSE_COPIES * dim if dense else min(SERIES_BLOCK, steps)
    need = _INTERPRETER_BYTES + 16 * dim * (_TRAJECTORY_COPIES * (steps + 1) + extra)
    have = _physical_memory()
    if need > have:
        # past 2^1000 bytes, need / 2**30 would overflow a float
        gib = need / 2**30 if need.bit_length() < 1000 else math.inf
        raise MemoryError(
            f"evolve with D={dim} and {steps} steps needs about {gib:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _parse_hamiltonian(args: argparse.Namespace) -> tuple[int, bool, Callable]:
    """D, whether H is a dense matrix, and a call that builds H; nothing is built here."""
    spec = args.hamiltonian
    name, _, rest = spec.partition(":")
    if args.dim is not None and args.dim < 1:
        raise DomainError(f"--dim must be at least 1, got {args.dim}")
    try:
        if name == "zero":
            if rest:
                raise DomainError(f"zero takes no parameters, got '{spec}'")
            if args.dim is None:
                raise DomainError("zero Hamiltonian needs --dim")
            return args.dim, True, lambda: np.zeros((args.dim, args.dim), dtype=np.complex128)
        if name == "random":
            if args.dim is None:
                raise DomainError("random Hamiltonian needs --dim")
            seed = int(rest) if rest else 0
            return args.dim, True, lambda: random_hamiltonian(args.dim, seed)
        if name == "ising":
            if not rest:
                raise DomainError("ising spec needs a site count, e.g. ising:6 or ising:6,1.0,0.5")
            parts = rest.split(",")
            if len(parts) > 3:
                raise DomainError(f"ising takes at most n,J,g, got '{spec}'")
            sites = int(parts[0])
            coupling = float(parts[1]) if len(parts) > 1 else 1.0
            field = float(parts[2]) if len(parts) > 2 else 1.0
            if sites < 2:
                raise DomainError(f"chain needs at least 2 qubits, got {sites}")
            dim = 2**sites
            if args.dim is not None and args.dim != dim:
                raise DomainError(f"--dim {args.dim} conflicts with ising:{sites} (D={dim})")
            return dim, False, lambda: ising_chain(sites, coupling=coupling, field=field)
    except ValueError as exc:
        raise DomainError(f"bad Hamiltonian spec '{spec}': {exc}") from exc
    raise DomainError(f"unknown Hamiltonian spec '{spec}' (use zero | random:seed | ising:n,J,g)")


def _parse_psi0(spec: str, dim: int) -> np.ndarray:
    name, _, rest = spec.partition(":")
    try:
        if name == "uniform":
            return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
        if name == "basis":
            index = int(rest) if rest else 1
            if not 1 <= index <= dim:
                raise DomainError(f"basis index must lie in 1..{dim}, got {index}")
            psi0 = np.zeros(dim, dtype=np.complex128)
            psi0[index - 1] = 1.0
            return psi0
        if name == "random":
            return random_state_vector(dim, int(rest) if rest else 0)
        if name == "file":
            matrix, _ = fileio.read_state_set(rest)
            if matrix.shape != (dim, 1):
                raise DomainError(
                    f"initial-state file must hold exactly one length-{dim} state, "
                    f"got shape {matrix.shape}"
                )
            return matrix[:, 0]
    except ValueError as exc:
        raise DomainError(f"bad initial-state spec '{spec}': {exc}") from exc
    raise DomainError(
        f"unknown initial-state spec '{spec}' (use uniform | basis:i | random:seed | file:path)"
    )


def cmd_evolve(args: argparse.Namespace) -> int:
    dim, dense, build = _parse_hamiltonian(args)
    check_regime(dim, args.steps)
    if args.d is not None:
        check_dimension(args.steps, args.d)
    _check_evolve_memory(dim, args.steps, dense)
    h = build()
    psi0 = _parse_psi0(args.psi0, dim)
    states = evolve_sequence(h, psi0, args.dt, args.steps)
    model = fit_pca(states)
    d = args.d if args.d is not None else model.count + 1
    cg = build_map(model, d)
    h_cg = coarse_grain_hamiltonian(cg, h)

    mean_power = retained_power(model).mean(axis=1).tolist()
    rows = list(enumerate(mean_power, start=1))

    prefix = args.out_prefix
    labels = tuple(f"t={j * args.dt!r}" for j in range(args.steps))
    fileio.write_state_set(f"{prefix}_trajectory.json", states.matrix, labels=labels)
    fileio.write_model(f"{prefix}_model.json", model)
    fileio.write_operator(f"{prefix}_hcg.json", h_cg)
    fileio.write_curve(f"{prefix}_retained.csv", rows)
    print(f"dimension: D={dim}")
    print(f"trajectory states: M={args.steps}")
    print(f"coarse dimension: d={d}")
    print(f"mean retained power at d: {mean_power[d - 1]!r}")
    for suffix in ("_trajectory.json", "_model.json", "_hcg.json", "_retained.csv"):
        print(f"written: {prefix}{suffix}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    print(f"qdecimate {__version__}")
    print(f"model format_version: {fileio.FORMAT_VERSION}")
    print("commands: fit, decimate, entropy-curve, evolve, info")
    print(
        "state/model/operator files: JSON, complex arrays as "
        '{"dtype": "<c16", "shape": [...], "data": base64 of little-endian complex128}'
    )
    print("curve files: CSV with header d,value")
    for name in ("base", "state_norm", "zero_norm", "expectation_imag", "rank_rel", "psd_slack"):
        print(f"tolerance {name}: {getattr(Tolerances, name)!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdecimate",
        description="Coarse-grain sets of pure quantum states by principal-component truncation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a component basis and weights to a state-set file")
    fit.add_argument("states", help="input state-set JSON file")
    fit.add_argument("-o", "--output", required=True, help="model JSON file to write")
    fit.add_argument(
        "--auto-normalize",
        action="store_true",
        help="rescale columns whose norm drifted instead of failing",
    )
    fit.set_defaults(func=cmd_fit)

    dec = sub.add_parser("decimate", help="truncate model weights to d components")
    dec.add_argument("model", help="model JSON file from fit")
    dec.add_argument("-o", "--output", required=True, help="coarse-weight state-set JSON to write")
    size = dec.add_mutually_exclusive_group(required=True)
    size.add_argument("--d", type=int, help="target dimension (2..M+1)")
    size.add_argument("--eps", type=float, help="pick minimal d with retained power >= 1-eps")
    dec.set_defaults(func=cmd_decimate)

    ent = sub.add_parser(
        "entropy-curve", help="single-qubit entropy of one state vs coarse dimension"
    )
    ent.add_argument("states", help="input state-set JSON file (dimension must be 2^n)")
    # --fine prints one value and writes no file
    target = ent.add_mutually_exclusive_group(required=True)
    target.add_argument("-o", "--output", default=None, help="curve CSV file to write")
    target.add_argument(
        "--fine",
        action="store_true",
        help="print the untruncated entropy of the chosen state and exit",
    )
    ent.add_argument("--state", type=int, required=True, help="1-based state index")
    ent.add_argument("--qubit", type=int, required=True, help="1-based qubit index (big-endian)")
    ent.add_argument("--bits", action="store_true", help="report entropy in bits instead of nats")
    ent.add_argument(
        "--auto-normalize",
        action="store_true",
        help="rescale columns whose norm drifted instead of failing",
    )
    ent.set_defaults(func=cmd_entropy_curve)

    evo = sub.add_parser("evolve", help="generate a unitary trajectory and coarse-grain it")
    evo.add_argument(
        "--hamiltonian",
        required=True,
        help="generator spec: zero | random:seed | ising:n,J,g",
    )
    evo.add_argument("--dim", type=int, default=None, help="Hilbert dimension for zero/random")
    evo.add_argument(
        "--psi0",
        default="uniform",
        help="initial state: uniform | basis:i | random:seed | file:path",
    )
    evo.add_argument("--dt", type=float, required=True, help="time step")
    evo.add_argument("--steps", type=int, required=True, help="number of trajectory states M")
    evo.add_argument("--d", type=int, default=None, help="coarse dimension (default M+1)")
    evo.add_argument("--out-prefix", required=True, help="prefix for the four output files")
    evo.set_defaults(func=cmd_evolve)

    info = sub.add_parser("info", help="print version, formats, and tolerances")
    info.set_defaults(func=cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
