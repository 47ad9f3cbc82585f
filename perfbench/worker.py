"""One benchmark worker: a fresh process that sets up and runs a workload once.

    python3 perfbench/worker.py WORKLOAD SEED TRACE INDEX WORKDIR

run.py starts it with OPENBLAS_NUM_THREADS and PYTHONPATH set. It times
`import qdecimate` and the making of the inputs, runs the workload once
untraced and, with TRACE=1, once traced as well (traced first when INDEX
is odd, so that the order evens out over workers), and prints one JSON line.
A CLI user pays a fresh process per command, so a fresh process per
repetition also spreads the run over the per-process timing differences
this machine shows (a few percent from one process to the next).
"""

from __future__ import annotations

import time

_started = time.perf_counter()
import qdecimate  # noqa: E402,F401  (timed: the first import of numpy and qdecimate)

IMPORT_S = time.perf_counter() - _started

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"numpy": np.__version__, "blas": blas_version}


def main(argv: list[str]) -> int:
    name, workdir = argv[0], Path(argv[4])
    seed, trace, index = (int(arg) for arg in argv[1:4])
    setup, rep = workloads.WORKLOADS[name]
    indir = workdir / "inputs"
    indir.mkdir(parents=True)
    started = time.perf_counter()
    inputs = setup(seed, indir)
    setup_s = IMPORT_S + time.perf_counter() - started

    reps = []
    order = [False, True][: 1 + trace]
    for traced in order[::-1] if index % 2 else order:
        tracer = tracing.Tracer() if traced else None
        out = workdir / f"rep-{len(reps)}"
        out.mkdir()
        ops = rep(inputs, out, tracer)
        written = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        reps.append(
            {
                "traced": traced,
                "ops": [[op.name, op.seconds, op.digest, op.problem] for op in ops],
                "written": written,
                "layers": tracer.layer_metrics() if traced else None,
            }
        )
    shutil.rmtree(workdir)
    result = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "reps": reps,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
