"""Per-layer spans around qdecimate's public functions, recorded from outside.

The tracer swaps each traced function for a wrapper at the attribute its
caller looks up at call time (``qdecimate.cli.fit_pca``, not
``qdecimate.pca.fit_pca``, because ``cli`` imported the name), records one
span per call, and puts every original back when it is uninstalled. No
qdecimate source file changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module whose attribute the caller looks up, attribute, span name). The
# first part of the span name is the layer: the module that defines the code.
TARGETS = (
    ("qdecimate.cli", "cmd_fit", "cli.fit"),
    ("qdecimate.cli", "cmd_decimate", "cli.decimate"),
    ("qdecimate.cli", "cmd_entropy_curve", "cli.entropy_curve"),
    ("qdecimate.cli", "cmd_evolve", "cli.evolve"),
    ("qdecimate.fileio", "read_state_set", "fileio.read_state_set"),
    ("qdecimate.fileio", "write_state_set", "fileio.write_state_set"),
    ("qdecimate.fileio", "read_model", "fileio.read_model"),
    ("qdecimate.fileio", "write_model", "fileio.write_model"),
    ("qdecimate.fileio", "write_operator", "fileio.write_operator"),
    ("qdecimate.fileio", "write_curve", "fileio.write_curve"),
    ("qdecimate.cli", "validate_state_set", "stateset.validate_state_set"),
    ("qdecimate.evolution", "validate_state_set", "stateset.validate_state_set"),
    ("qdecimate.cli", "fit_pca", "pca.fit_pca"),
    ("qdecimate.pca", "svd", "numerics.svd"),
    ("qdecimate.evolution", "hermitian_eig", "numerics.hermitian_eig"),
    ("qdecimate.numerics", "check_hermitian", "numerics.check_hermitian"),
    ("qdecimate.decimation", "check_hermitian", "numerics.check_hermitian"),
    ("qdecimate.cli", "ising_chain", "evolution.ising_chain"),
    ("qdecimate.cli", "evolve_sequence", "evolution.evolve_sequence"),
    ("qdecimate.cli", "coarse_grain_hamiltonian", "evolution.coarse_grain_hamiltonian"),
    ("qdecimate.cli", "build_map", "decimation.build_map"),
    ("qdecimate.cli", "select_dimension", "decimation.select_dimension"),
    ("qdecimate.cli", "decimate_state", "decimation.decimate_state"),
    ("qdecimate.evolution", "coarse_grain_operator", "decimation.coarse_grain_operator"),
    ("qdecimate.cli", "entropy_vs_dimension_curve", "entanglement.entropy_vs_dimension_curve"),
    (
        "qdecimate.entanglement",
        "entropy_vs_dimension_curve",
        "entanglement.entropy_vs_dimension_curve",
    ),
    ("qdecimate.cli", "reduced_density_matrix", "entanglement.reduced_density_matrix"),
    ("qdecimate.entanglement", "reduced_density_matrix", "entanglement.reduced_density_matrix"),
    ("qdecimate.cli", "von_neumann_entropy", "entanglement.von_neumann_entropy"),
    ("qdecimate.entanglement", "von_neumann_entropy", "entanglement.von_neumann_entropy"),
)

LAYERS = ("cli", "fileio", "stateset", "pca", "numerics", "evolution", "decimation", "entanglement")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of span minus the union of the intervals its children cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return span.seconds - covered


def _file_bytes(tracer: "Tracer", key: str, path) -> int:
    size = os.path.getsize(path)
    tracer.counts[key] += size
    return size


def _after_read(tracer, args, result):
    _file_bytes(tracer, "bytes_read", args[0])


def _after_complex_write(entries):
    def after(tracer, args, result):
        size = _file_bytes(tracer, "bytes_written", args[0])
        tracer.counts["complex_bytes"] += size
        tracer.counts["complex_entries"] += entries(args[1])

    return after


def _after_curve_write(tracer, args, result):
    _file_bytes(tracer, "bytes_written", args[0])


def _after_fit(tracer, args, model):
    tracer.fits.append((model.rank, model.count))


# Bookkeeping run after a successful call, outside its span.
_AFTER = {
    "fileio.read_state_set": _after_read,
    "fileio.read_model": _after_read,
    "fileio.write_state_set": _after_complex_write(lambda m: m.size),
    "fileio.write_model": _after_complex_write(lambda m: m.basis.size + m.weights.size),
    "fileio.write_operator": _after_complex_write(lambda m: m.size),
    "fileio.write_curve": _after_curve_write,
    "pca.fit_pca": _after_fit,
}


class Tracer:
    """Spans and counters of one traced repetition, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.fits: list[tuple[int, int]] = []  # (rank, count) of every fitted model
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for module_name, attr, span_name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of this repetition; 0 for a layer that did no work."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)

        def total(name):
            return sum(s.seconds for s in self.spans if s.name == name)

        def calls(name):
            return sum(1 for s in self.spans if s.name == name)

        def own(name):
            spans = enumerate(self.spans)
            return sum(self_time(s, children.get(i, [])) for i, s in spans if s.name == name)

        entries = self.counts["complex_entries"]
        rank, count = self.fits[-1] if self.fits else (0, 0)
        metrics = {
            "fileio.read_state_set_s": total("fileio.read_state_set"),
            "fileio.write_state_set_s": total("fileio.write_state_set"),
            "fileio.read_model_s": total("fileio.read_model"),
            "fileio.write_model_s": total("fileio.write_model"),
            "fileio.write_operator_s": total("fileio.write_operator"),
            "fileio.write_curve_s": total("fileio.write_curve"),
            "fileio.bytes_read": self.counts["bytes_read"],
            "fileio.bytes_written": self.counts["bytes_written"],
            "fileio.bytes_per_complex": self.counts["complex_bytes"] / entries if entries else 0.0,
            "pca.fit_pca_s": total("pca.fit_pca"),
            "pca.fit_pca_self_s": own("pca.fit_pca"),
            "pca.rank": rank,
            "pca.fill_columns": count - rank,
            "numerics.svd_s": total("numerics.svd"),
            "numerics.hermitian_eig_s": total("numerics.hermitian_eig"),
            "numerics.check_hermitian_s": total("numerics.check_hermitian"),
            "evolution.ising_chain_s": total("evolution.ising_chain"),
            "evolution.evolve_sequence_self_s": own("evolution.evolve_sequence"),
            "evolution.coarse_grain_hamiltonian_s": total("evolution.coarse_grain_hamiltonian"),
            "decimation.build_map_s": total("decimation.build_map"),
            "decimation.select_dimension_s": total("decimation.select_dimension"),
            "decimation.decimate_state_s": total("decimation.decimate_state"),
            "decimation.decimate_state_calls": calls("decimation.decimate_state"),
            "decimation.coarse_grain_operator_s": total("decimation.coarse_grain_operator"),
            "entanglement.entropy_vs_dimension_curve_s": total(
                "entanglement.entropy_vs_dimension_curve"
            ),
            "entanglement.curves": calls("entanglement.entropy_vs_dimension_curve"),
            "entanglement.reduced_density_matrix_calls": calls(
                "entanglement.reduced_density_matrix"
            ),
            "entanglement.von_neumann_entropy_calls": calls("entanglement.von_neumann_entropy"),
            "stateset.validate_state_set_s": total("stateset.validate_state_set"),
            "cli.fit_self_s": own("cli.fit"),
            "cli.decimate_self_s": own("cli.decimate"),
            "cli.entropy_curve_self_s": own("cli.entropy_curve"),
            "cli.evolve_self_s": own("cli.evolve"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = self.errors[layer]
        return metrics


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "fileio.bytes_per_complex":
        return "B/complex"
    if metric.startswith("fileio.bytes_"):
        return "B"
    return "count"


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over repetitions."""
    return {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
