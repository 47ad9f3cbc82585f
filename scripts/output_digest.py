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
that differs or that only one holds, and exits 1 if there is any. When a
differing entry's two files both sit beside their digest files and differ
in bytes, it also prints by how much each moved: max |a - b| / max |a|
for each complex array and for the singular values of a JSON file, and
max |a - b| of a CSV's value column.

Usage:
    python3 scripts/output_digest.py RUN_DIR [--small]
    python3 scripts/output_digest.py --compare A/digest.json B/digest.json
"""

import argparse
import base64
import contextlib
import csv
import hashlib
import io
import json
import math
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


def _arrays(path: Path) -> dict[str, np.ndarray]:
    """The complex arrays and singular values of a JSON output, or a CSV's value column."""
    if path.suffix == ".csv":
        with path.open(newline="") as handle:
            return {"value": np.array([float(row[-1]) for row in list(csv.reader(handle))[1:]])}
    arrays = {}
    for key, value in json.loads(path.read_text()).items():
        if key == "singular_values":
            arrays[key] = np.array(value, dtype=np.float64)
        elif isinstance(value, dict) and value.get("dtype") == "<c16":
            raw = base64.b64decode(value["data"])
            arrays[key] = np.frombuffer(raw, dtype="<c16").reshape(value["shape"])
    return arrays


def _movement(a: Path, b: Path) -> list[str]:
    """One line per array of two differing output files: how far it moved."""
    lines = []
    first, second = _arrays(a), _arrays(b)
    for key in sorted(first.keys() | second.keys()):
        x, y = first.get(key), second.get(key)
        if x is None or y is None or x.shape != y.shape:
            shapes = [None if v is None else v.shape for v in (x, y)]
            lines.append(f"  {key}: shape {shapes[0]} vs {shapes[1]}")
            continue
        moved = float(np.abs(x - y).max(initial=0.0))
        if a.suffix == ".csv":
            lines.append(f"  {key}: max |a - b| = {moved:.3g}")
            continue
        top = float(np.abs(x).max(initial=0.0))
        ratio = moved / top if top else (math.inf if moved else 0.0)
        lines.append(f"  {key}: max |a - b| / max |a| = {ratio:.3g}")
    return lines


def compare(a: Path, b: Path) -> int:
    """Print each entry whose digest differs or that one file lacks; 1 if any, else 0.

    Under an entry whose two files both sit beside their digest file and
    differ in bytes, print how far each of their arrays moved.
    """
    first, second = (json.loads(path.read_text())["digests"] for path in (a, b))
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for key in differ:
        print(f"differs: {key}")
        files = a.parent / key, b.parent / key
        if all(f.is_file() for f in files) and files[0].read_bytes() != files[1].read_bytes():
            for line in _movement(*files):
                print(line)
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
