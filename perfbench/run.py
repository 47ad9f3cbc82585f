"""qdecimate benchmark: end-to-end or per-layer metrics of one workload.

    python3 perfbench/run.py --workload random-cli --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25        # every workload, one after another

Run from the root of a checkout. For --seconds, and at least MIN_WORKERS
times, a fresh worker process (worker.py) makes the inputs from --seed and
runs the workload once, and with --trace 1 once more traced (then the
worker count is even). Every output
is checked and must be byte-identical across repetitions. The last line
printed is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import median_metrics, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_VAR, BLAS_THREADS = "OPENBLAS_NUM_THREADS", "1"
MIN_WORKERS = 3
WORKER_TIMEOUT = 150
WORKLOAD_NAMES = ("random-cli", "lowrank-fit", "ising-evolve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    # set before the worker imports numpy, so that OpenBLAS starts this many threads
    return dict(os.environ, PYTHONPATH=str(SRC), **{BLAS_VAR: BLAS_THREADS})


def environment(seed: int, outdir: Path) -> dict:
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "blas_threads": int(BLAS_THREADS),
        "blas_threads_set_by": BLAS_VAR,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "output_fs": filesystem_type(outdir),
        "seed": seed,
    }


def filesystem_type(path: Path) -> str:
    """Type of the mount holding path, by longest mount-point prefix."""
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def run_worker(args: argparse.Namespace, index: int, workdir: Path) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed)]
    argv += [str(args.trace), str(index), str(workdir)]
    done = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace) -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workers = []
        started = time.perf_counter()
        while (
            len(workers) < MIN_WORKERS
            or time.perf_counter() - started < args.seconds
            or (args.trace and len(workers) % 2)  # as many traced-first as traced-last
        ):
            index = len(workers)
            workers.append(run_worker(args, index, work / f"worker-{index}"))
        env = environment(args.seed, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    env.update(workers[0]["environment"])
    return report(args, env, workers)


def _seconds(rep: dict) -> float:
    return sum(seconds for _, seconds, _, _ in rep["ops"])


def report(args: argparse.Namespace, env: dict, workers: list[dict]) -> int:
    reps = [rep for w in workers for rep in w["reps"]]
    ops = [op for rep in reps for op in rep["ops"]]
    # determinism: every repetition must reproduce the first one's outputs
    first = {name: digest for name, _, digest, _ in reps[0]["ops"]}
    failed = 0
    for name, _, digest, problem in ops:
        if problem is None and digest != first[name]:
            problem = "output differs from the first repetition with the same seed"
        if problem is not None:
            failed += 1
            print(f"FAILED {name}: {problem}", file=sys.stderr)

    plain = [rep for rep in reps if not rep["traced"]]
    workload_s = statistics.median(_seconds(rep) for rep in plain)
    print(f"workload {args.workload}: {len(workers)} worker processes, {len(reps)} repetitions")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, w in enumerate(workers):
        times = " ".join(f"{_seconds(r):.4f}{'(traced)' if r['traced'] else ''}" for r in w["reps"])
        print(f"worker {i}: setup_s {w['setup_s']:.4f} workload_s {times}")
    for name in first:
        times = [s for rep in plain for n, s, _, _ in rep["ops"] if n == name]
        print(f"{name} = {statistics.median(times):.6f} s (median of {len(times)})")
    print(f"failed_frac = {failed / len(ops):.6f} ({failed} of {len(ops)} operations)")

    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "workload_s": (workload_s, "s"),
        "peak_rss_mib": (statistics.median(w["peak_rss_mib"] for w in workers), "MiB"),
        "output_mib": (statistics.median(rep["written"] for rep in reps) / 2**20, "MiB"),
    }
    for name, (value, u) in metrics.items():
        print(f"{name} = {value:.6f} {u} (median of {len(workers)} processes)")
    if args.trace:
        traced = [rep for rep in reps if rep["traced"]]
        layers = median_metrics([rep["layers"] for rep in traced])
        # each worker ran the workload once untraced and once traced
        layers["trace.overhead_s"] = statistics.median(
            sum(_seconds(rep) * (1 if rep["traced"] else -1) for rep in w["reps"]) for w in workers
        )
        metrics = {name: (value, unit(name)) for name, value in layers.items()}
        for name, (value, u) in metrics.items():
            print(f"{name} = {value:.6g} {u} (median of {len(traced)} traced)")

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(argv, cwd=ROOT, env=child_env(), timeout=600).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdecimate" / "__init__.py").is_file():
        print(f"error: no qdecimate sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
