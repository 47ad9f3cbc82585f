import ast
import importlib
from pathlib import Path

import qdecimate

PUBLIC = [
    "AllZeroDeviations",
    "BadDimension",
    "BadQubitIndex",
    "CoarseGrainMap",
    "CoarseState",
    "DEFAULT_TOL",
    "DimMismatch",
    "DomainError",
    "EntropyCurve",
    "IsingChain",
    "LN2",
    "NoConvergence",
    "NonFinite",
    "NonRealExpectation",
    "NormPolicy",
    "NotDensityMatrix",
    "NotHermitian",
    "NotNormalized",
    "NotPowerOfTwo",
    "PcaModel",
    "QubitFactorization",
    "RegimeViolation",
    "StateSet",
    "Tolerances",
    "ZeroNorm",
    "build_map",
    "coarse_grain_hamiltonian",
    "coarse_grain_operator",
    "coarse_grained_trajectory",
    "decimate_state",
    "entropy_vs_dimension_curve",
    "evolve_sequence",
    "expectation",
    "fit_pca",
    "importances",
    "ising_chain",
    "random_hamiltonian",
    "random_state_set",
    "random_state_vector",
    "reduced_density_matrix",
    "retained_power",
    "saturation_dimension",
    "select_dimension",
    "validate_state_set",
    "von_neumann_entropy",
]


def test_public_names_are_pinned():
    assert sorted(qdecimate.__all__) == PUBLIC
    assert len(set(qdecimate.__all__)) == len(qdecimate.__all__)
    for name in PUBLIC:
        assert hasattr(qdecimate, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from qdecimate import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC


def _tracer_targets() -> list[tuple[str, str, str]]:
    """TARGETS of perfbench/tracer.py, read from its source without importing it."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(source.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {source}")


def test_benchmark_tracer_targets_resolve():
    # the tracer wraps each (module, attr) by name; a renamed function must fail here
    targets = _tracer_targets()
    assert targets
    missing = [
        (module, attr)
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
