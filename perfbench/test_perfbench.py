"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qdecimate import fileio  # noqa: E402
from tracer import Span, Tracer, self_time  # noqa: E402


def test_self_time_is_span_minus_union_of_children():
    span = Span("cli.fit", 0.0, 10.0, None)
    children = [
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 0),  # inside a: counted once
        Span("b", 3.5, 5.0, 0),  # overlaps a: counted once
        Span("c", 7.0, 8.0, 0),
        Span("d", 9.5, 12.0, 0),  # clipped at the span's end
    ]
    # covered: [1, 5] + [7, 8] + [9.5, 10] = 5.5
    assert self_time(span, children) == pytest.approx(4.5)
    assert self_time(span, []) == pytest.approx(10.0)


def _snapshot(inputs: dict, indir: Path):
    files = {p.name: p.read_bytes() for p in sorted(indir.iterdir())}
    arrays = {k: v.tobytes() for k, v in inputs.items() if isinstance(v, np.ndarray)}
    return files, arrays, inputs.get("seed")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    setup, _ = workloads.WORKLOADS[name]
    snaps = {}
    for label, seed in (("first", 5), ("again", 5), ("other", 6)):
        indir = tmp_path / label
        indir.mkdir()
        snaps[label] = _snapshot(setup(seed, indir), indir)
    assert snaps["first"] == snaps["again"]
    assert snaps["first"] != snaps["other"]


def test_traced_run_restores_every_wrapped_name(tmp_path):
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracing.TARGETS
    }
    # 10 combinations of 3 states: rank 3, so 7 basis columns are filled in
    rng = np.random.Generator(np.random.PCG64(3))
    base = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    states = base @ (rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10)))
    states /= np.linalg.norm(states, axis=0)
    fileio.write_state_set(tmp_path / "states.json", states)
    inputs = {"states_path": tmp_path / "states.json", "states": states}

    tracer = Tracer()
    ops = workloads.rep_lowrank_fit(inputs, tmp_path, tracer)

    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"
    assert [op.problem for op in ops] == [None, None]
    metrics = tracer.layer_metrics()
    assert (metrics["pca.rank"], metrics["pca.fill_columns"]) == (3, 7)
    assert metrics["decimation.decimate_state_calls"] == 10
    assert metrics["cli.fit_self_s"] > 0.0

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("interrupted run")
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = list(Tracer().layer_metrics()) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layers
    for metric in spec["per_layer"]:
        assert metric["unit"] == tracing.unit(metric["name"])
