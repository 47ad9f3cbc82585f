import ast
import importlib
from pathlib import Path

import qdecimate

PUBLIC = [
    "BadDimension",
    "BadQubitIndex",
    "DEFAULT_TOL",
    "DimMismatch",
    "DomainError",
    "EntropyCurve",
    "IsingChain",
    "NoConvergence",
    "NonFinite",
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
    "fit_pca",
    "ising_chain",
    "outside_span",
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


def _module_trees() -> dict[str, ast.Module]:
    package = Path(qdecimate.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "__all__"
        ]:
            return set(ast.literal_eval(node.value))
    return set()


def _module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_no_unused_import_or_unreferenced_private_name():
    # a removal that leaves a helper, a constant or an import behind fails here
    trees = _module_trees()
    read = set()  # names loaded, attributes taken, and names imported from a sibling module
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                read.update(alias.name for alias in node.names)
    unused, unreferenced = [], []
    for module, tree in trees.items():
        loaded = _exported(tree) | {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{module}: {bound}")
        for name in _module_level_names(tree):
            if name.startswith("_") and not name.startswith("__") and name not in read:
                unreferenced.append(f"{module}: {name}")
    assert (unused, unreferenced) == ([], [])


def test_no_module_imports_a_private_name_from_a_sibling():
    # a helper two modules share is public in the module that owns it
    private = [
        f"{module}: {alias.name}"
        for module, tree in _module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []
