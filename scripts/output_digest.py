"""SHA-256 digests of every file and stdout of a fixed list of CLI commands.

Runs the command list in-process through ``qdecimate.cli.main`` into a
run directory and writes ``digest.json`` there: one SHA-256 per output
file and per command's stdout, with the run directory's path replaced by
``<dir>`` so that two directories compare. The list covers ``fit``,
``decimate --d 5`` and ``--eps 0.01``, and ``entropy-curve`` (``-o``,
``--fine`` and ``--bits``) on a random full-rank set and on a rank-8
set, and ``evolve`` on an Ising chain at ``--d 8`` and at the default d
and on a dense random Hamiltonian. ``--small`` runs the same list at
small sizes. ``--compare A B`` reads two digest files, prints every entry
that differs or that only one holds, and exits 1 if there is any.

Usage:
    python3 scripts/output_digest.py RUN_DIR [--small]
    python3 scripts/output_digest.py --compare A/digest.json B/digest.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from qdecimate import NormPolicy, random_state_set, validate_state_set
from qdecimate.cli import main as cli_main
from qdecimate.fileio import write_state_set

# name -> (D, M) of the random set, (D, M, rank) of the low-rank one,
# (sites, steps) of the chain, (D, steps) of the dense run; the small
# random set still fits in two row blocks
SIZES = {
    "full": {
        "random": (2**12, 200),
        "lowrank": (2**10, 150, 8),
        "ising": (10, 60),
        "dense": (256, 40),
    },
    "small": {"random": (2**11, 12), "lowrank": (2**7, 30, 8), "ising": (6, 20), "dense": (32, 10)},
}
RANDOM_SEED, LOWRANK_SEED = 3, 1


def lowrank_states(dim: int, count: int, rank: int, seed: int) -> np.ndarray:
    """count seeded complex combinations of the same rank random states, normalized."""
    base = random_state_set(dim, rank, seed).matrix
    rng = np.random.Generator(np.random.PCG64([seed, rank]))
    mixed = base @ (rng.standard_normal((rank, count)) + 1j * rng.standard_normal((rank, count)))
    return validate_state_set(mixed / np.linalg.norm(mixed, axis=0), NormPolicy.STRICT).matrix


def commands(run: Path, sizes: dict) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in order; inputs are written first."""
    dim, count = sizes["random"]
    write_state_set(run / "random.json", random_state_set(dim, count, RANDOM_SEED).matrix)
    write_state_set(run / "lowrank.json", lowrank_states(*sizes["lowrank"], LOWRANK_SEED))
    listed = []
    for name in ("random", "lowrank"):
        prefix = str(run / name)
        states, model = f"{prefix}.json", f"{prefix}_model.json"
        decimate = ["decimate", model, "-o"]
        curve = ["entropy-curve", states, "--state", "1", "--qubit", "1"]
        listed += [
            (f"{name}-fit", ["fit", states, "-o", model]),
            (f"{name}-decimate-d5", decimate + [f"{prefix}_d5.json", "--d", "5"]),
            (f"{name}-decimate-eps", decimate + [f"{prefix}_eps.json", "--eps", "0.01"]),
            (f"{name}-curve", curve + ["-o", f"{prefix}_curve.csv"]),
            (f"{name}-curve-fine", curve + ["--fine"]),
            (f"{name}-curve-bits", curve + ["--bits", "-o", f"{prefix}_curve_bits.csv"]),
        ]
    sites, steps = sizes["ising"]
    chain = ["evolve", "--hamiltonian", f"ising:{sites}", "--psi0", "random:3", "--dt", "0.1"]
    chain += ["--steps", str(steps)]
    listed += [
        ("ising-d8", chain + ["--d", "8", "--out-prefix", str(run / "ising_d8")]),
        ("ising-default-d", chain + ["--out-prefix", str(run / "ising")]),
    ]
    dim, steps = sizes["dense"]
    dense = ["evolve", "--hamiltonian", "random:3", "--dim", str(dim), "--dt", "0.1"]
    listed.append(("dense", dense + ["--steps", str(steps), "--out-prefix", str(run / "dense")]))
    return listed


def run_digests(run: Path, sizes: dict) -> dict[str, str]:
    """Run every command into the empty directory run; digest each stdout and each file."""
    digests = {}
    for name, argv in commands(run, sizes):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"{name} exited {code}: {err.getvalue().strip()}")
        stdout = out.getvalue().replace(str(run), "<dir>")
        digests[f"{name}/stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    for path in sorted(run.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def compare(a: Path, b: Path) -> int:
    """Print each entry whose digest differs or that one file lacks; 1 if any, else 0."""
    first, second = (json.loads(path.read_text())["digests"] for path in (a, b))
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(first.keys() | second.keys())} entries differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", nargs="?", help="directory to run the commands in (created)")
    parser.add_argument("--small", action="store_true", help="run the list at small sizes")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), help="compare two digest files instead"
    )
    args = parser.parse_args(argv)
    if (args.compare is None) == (args.run_dir is None):
        parser.error("give either RUN_DIR or --compare A B")
    if args.compare:
        return compare(*map(Path, args.compare))
    run = Path(args.run_dir).resolve()
    run.mkdir(parents=True, exist_ok=True)
    if any(run.iterdir()):  # every file there is digested
        parser.error(f"run directory {run} is not empty")
    size = "small" if args.small else "full"
    digests = run_digests(run, SIZES[size])
    record = {"sizes": size, "digests": digests}
    (run / "digest.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written: {run / 'digest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
