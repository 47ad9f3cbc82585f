"""Command-line front end: fit, decimate, entropy-curve, evolve, info.

Exit codes: 0 success, 1 I/O failure or out of memory, 2 validation or
domain error. Output files are deterministic: identical inputs and seeds
give byte-identical bytes on disk.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

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
    _BLOCK,
    IsingChain,
    coarse_grain_hamiltonian,
    evolve_sequence,
    ising_chain,
    random_hamiltonian,
)
from .numerics import DEFAULT_TOL, Tolerances
from .pca import fit_pca, importances
from .stateset import NormPolicy, random_state_vector, validate_state_set


def _tolerances(args: argparse.Namespace) -> Tolerances:
    value = args.tolerance
    if value is None:
        return DEFAULT_TOL
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"--tolerance must be finite and positive, got {value}")
    return Tolerances(base=value)


def _policy(args: argparse.Namespace) -> NormPolicy:
    if getattr(args, "auto_normalize", False):
        return NormPolicy.AUTO_NORMALIZE
    return NormPolicy.STRICT


def _load_states(path: str, policy: NormPolicy, tol: Tolerances):
    matrix, _ = fileio.read_state_set(path)
    return validate_state_set(matrix, policy=policy, tol=tol)


def cmd_fit(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    states = _load_states(args.states, _policy(args), tol)
    model = fit_pca(states, tol)
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
    tol = _tolerances(args)
    if (args.d is None) == (args.eps is None):
        print("error: exactly one of --d / --eps is required", file=sys.stderr)
        return 2
    model = fileio.read_model(args.model, tol)
    if args.eps is not None:
        d = select_dimension(model, args.eps)
        print(f"selected d={d} (eps={args.eps!r}, set-max rule)")
    else:
        d = args.d
    cg = build_map(model, d)
    columns = []
    for mu in range(1, model.count + 1):
        fine = model.basis @ model.weights[:, mu - 1]
        coarse = decimate_state(cg, fine, tol)
        columns.append(coarse.weights)
        print(f"state {mu}: d={d} retained_power={float(coarse.norm_before) ** 2!r}")
    fileio.write_state_set(args.output, np.stack(columns, axis=1))
    print(f"coarse weights written: {args.output}")
    return 0


def cmd_entropy_curve(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    states = _load_states(args.states, _policy(args), tol)
    factor = QubitFactorization.from_dim(states.dim)
    scale = 1.0 / LN2 if args.bits else 1.0
    unit = "bits" if args.bits else "nats"
    if not 1 <= args.state <= states.count:
        raise DomainError(f"--state must lie in 1..{states.count}, got {args.state}")
    if args.fine:
        rho = reduced_density_matrix(states.column(args.state), factor, args.qubit)
        value = von_neumann_entropy(rho, tol) * scale
        print(f"fine_entropy={value!r} ({unit})")
        return 0
    if args.output is None:
        print("error: --output is required unless --fine is given", file=sys.stderr)
        return 2
    model = fit_pca(states, tol)
    curve = entropy_vs_dimension_curve(states, model, args.state, args.qubit, tol)
    fileio.write_curve(args.output, [(d, value * scale) for d, value in curve.points])
    print(f"curve written: {args.output} ({len(curve.points)} rows, {unit})")
    print(f"d95={saturation_dimension(curve)}")
    return 0


# Peak memory of evolve as multiples of the 16*D*(steps+1) bytes of its
# trajectory, measured with one BLAS thread and 100 steps, the interpreter
# included: ising:14 peaks at 116 MiB (4.6x), ising:16 at 361 MiB (3.6x).
# The fit holds the state set and the basis; compressing the chain's
# Hamiltonian holds a few D x d blocks on top. A chain's Chebyshev series
# also holds a block of min(32, steps) vectors of 16*D bytes (32 MiB at
# ising:16) while it runs; it is freed before the fit, but it is counted
# on top so that the estimate stays an upper one. A dense D x D
# Hamiltonian, its hermiticity check and its eigh take about 5 x 16*D^2
# bytes, and the interpreter a sixth at random --dim 2048 (364 MiB in
# all, estimated 400 MiB).
_TRAJECTORY_COPIES = 5
_DENSE_COPIES = 6


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_evolve_memory(dim: int, steps: int, dense: bool) -> None:
    """Refuse an evolve run whose estimated peak exceeds physical memory.

    Sizes that malloc does not refuse outright would otherwise allocate
    and get the process killed instead of ending in a one-line error.
    """
    extra = _DENSE_COPIES * dim if dense else min(_BLOCK, steps)
    need = 16 * dim * (_TRAJECTORY_COPIES * (steps + 1) + extra)
    have = _physical_memory()
    if need > have:
        raise MemoryError(
            f"evolve with D={dim} and {steps} steps needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _parse_hamiltonian(args: argparse.Namespace) -> tuple[np.ndarray | IsingChain, int]:
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
            return np.zeros((args.dim, args.dim), dtype=np.complex128), args.dim
        if name == "random":
            if args.dim is None:
                raise DomainError("random Hamiltonian needs --dim")
            seed = int(rest) if rest else args.seed
            return random_hamiltonian(args.dim, seed), args.dim
        if name == "ising":
            if not rest:
                raise DomainError("ising spec needs a site count, e.g. ising:6 or ising:6,1.0,0.5")
            parts = rest.split(",")
            if len(parts) > 3:
                raise DomainError(f"ising takes at most n,J,g, got '{spec}'")
            sites = int(parts[0])
            coupling = float(parts[1]) if len(parts) > 1 else 1.0
            field = float(parts[2]) if len(parts) > 2 else 1.0
            dim = 2**sites
            if args.dim is not None and args.dim != dim:
                raise DomainError(f"--dim {args.dim} conflicts with ising:{sites} (D={dim})")
            return ising_chain(sites, coupling=coupling, field=field), dim
    except ValueError as exc:
        raise DomainError(f"bad Hamiltonian spec '{spec}': {exc}") from exc
    raise DomainError(f"unknown Hamiltonian spec '{spec}' (use zero | random:seed | ising:n,J,g)")


def _parse_psi0(spec: str, dim: int, seed: int) -> np.ndarray:
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
            return random_state_vector(dim, int(rest) if rest else seed)
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
    tol = _tolerances(args)
    if args.d is not None:
        check_dimension(args.steps, args.d)
    h, dim = _parse_hamiltonian(args)
    psi0 = _parse_psi0(args.psi0, dim, args.seed)
    _check_evolve_memory(dim, args.steps, dense=not isinstance(h, IsingChain))
    states = evolve_sequence(h, psi0, args.dt, args.steps, tol)
    model = fit_pca(states, tol)
    d = args.d if args.d is not None else model.count + 1
    cg = build_map(model, d)
    h_cg = coarse_grain_hamiltonian(cg, h, tol)

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
        '{"dtype": "<c16", "shape": [...], "data": base64 of little-endian complex128}; '
        "[re, im] pair lists are still read"
    )
    print("curve files: CSV with header d,value")
    for name in ("base", "state_norm", "zero_norm", "expectation_imag", "rank_rel", "psd_slack"):
        print(f"tolerance {name}: {getattr(DEFAULT_TOL, name)!r}")
    return 0


def _add_tolerance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tolerance", type=float, default=None, help="override the base numerical tolerance"
    )


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
    _add_tolerance(fit)
    fit.set_defaults(func=cmd_fit)

    dec = sub.add_parser("decimate", help="truncate model weights to d components")
    dec.add_argument("model", help="model JSON file from fit")
    dec.add_argument("-o", "--output", required=True, help="coarse-weight state-set JSON to write")
    dec.add_argument("--d", type=int, default=None, help="target dimension (2..M+1)")
    dec.add_argument(
        "--eps", type=float, default=None, help="pick minimal d with retained power >= 1-eps"
    )
    _add_tolerance(dec)
    dec.set_defaults(func=cmd_decimate)

    ent = sub.add_parser(
        "entropy-curve", help="single-qubit entropy of one state vs coarse dimension"
    )
    ent.add_argument("states", help="input state-set JSON file (dimension must be 2^n)")
    ent.add_argument("-o", "--output", default=None, help="curve CSV file to write")
    ent.add_argument("--state", type=int, required=True, help="1-based state index")
    ent.add_argument("--qubit", type=int, required=True, help="1-based qubit index (big-endian)")
    ent.add_argument("--bits", action="store_true", help="report entropy in bits instead of nats")
    ent.add_argument(
        "--fine",
        action="store_true",
        help="print the untruncated entropy of the chosen state and exit",
    )
    ent.add_argument(
        "--auto-normalize",
        action="store_true",
        help="rescale columns whose norm drifted instead of failing",
    )
    _add_tolerance(ent)
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
    evo.add_argument("--seed", type=int, default=0, help="seed for any pseudo-random draw")
    _add_tolerance(evo)
    evo.set_defaults(func=cmd_evolve)

    info = sub.add_parser("info", help="print version, formats, and default tolerances")
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
