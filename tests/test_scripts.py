import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qdecimate import fit_pca, random_hamiltonian, random_state_set
from qdecimate.fileio import write_curve, write_model, write_operator

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entropy_saturation_endpoint_matches_fine(tmp_path, capsys):
    script = _load_script("entropy_saturation")
    out = tmp_path / "curve.csv"
    assert script.main(["--qubits", "6", "--states", "20", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    diff = float(re.search(r"\|diff\|=([^)]+)\)", printed).group(1))
    assert diff <= 1e-8
    assert out.read_text().splitlines()[0] == "d,value"
    assert len(out.read_text().splitlines()) == 1 + 21


def test_trajectory_compare_runs(capsys):
    script = _load_script("trajectory_compare")
    assert script.main(["--qubits", "5", "--steps", "8", "--d", "3", "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("D=32 steps=8 dt=0.1 d=3 ")
    assert len(lines) == 2 + 2 + 1
    for line in lines[2:4]:
        _, local, rand, _ = (float(x) for x in line.split(","))
        assert 0.0 < local <= 1.0 + 1e-12 and 0.0 < rand <= 1.0 + 1e-12
    assert re.fullmatch(r"chain retained at least as much in [012]/2 runs", lines[-1])


def test_output_digest_reruns_byte_identical(tmp_path, capsys):
    script = _load_script("output_digest")
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        assert script.main([str(run), "--small"]) == 0
    digests = [run / "digest.json" for run in runs]
    record = json.loads(digests[0].read_text())
    assert record["sizes"] == "small"
    entries = record["digests"]
    # 15 commands' stdout; 2 inputs, 10 fit/decimate/curve files, 12 evolve files
    assert sum(key.endswith("/stdout") for key in entries) == 15
    assert len(entries) == 15 + 2 + 10 + 12
    capsys.readouterr()
    # the runs differ in their directory only, which stdout digests leave out
    assert script.main(["--compare", *map(str, digests)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"0 of {len(entries)} entries differ"]

    entries["ising_hcg.json"] = "0" * 64
    del entries["dense/stdout"]
    digests[1].write_text(json.dumps(record))
    assert script.main(["--compare", *map(str, digests)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: dense/stdout",
        "differs: ising_hcg.json",
        f"2 of {len(entries) + 1} entries differ",
    ]


def test_output_digest_compare_says_how_far_a_moved_file_moved(tmp_path, capsys):
    script = _load_script("output_digest")
    model = fit_pca(random_state_set(16, 3, seed=1))
    operator = random_hamiltonian(4, seed=2)
    runs = [tmp_path / "a", tmp_path / "b"]
    for run, shift in zip(runs, (0.0, 1e-9)):
        run.mkdir()
        write_model(run / "m_model.json", model)
        write_operator(run / "m_hcg.json", operator + shift * np.eye(4))
        write_curve(run / "m_curve.csv", [(1, 0.5), (2, 0.25 + shift)])
        (run / "same.csv").write_text("d,value\n1,0.5\n")
        digests = {name: f"{run.name}-{name}" for name in ("m_model.json", "m_hcg.json")}
        digests |= {"m_curve.csv": f"{run.name}", "same.csv": f"{run.name}", "x/stdout": "0"}
        (run / "digest.json").write_text(json.dumps({"digests": digests}))
    # the doctored model moves only its singular values, by 3e-13 of the largest
    doctored = json.loads((runs[1] / "m_model.json").read_text())
    doctored["singular_values"][1] += 3e-13 * model.singular_values[0]
    (runs[1] / "m_model.json").write_text(json.dumps(doctored))
    assert script.main(["--compare", *(str(run / "digest.json") for run in runs)]) == 1
    lines = capsys.readouterr().out.splitlines()
    moved = 1e-9 / np.abs(operator).max()
    assert lines == [
        "differs: m_curve.csv",
        "  value: max |a - b| = 1e-09",
        "differs: m_hcg.json",
        f"  matrix: max |a - b| / max |a| = {moved:.3g}",
        "differs: m_model.json",
        "  basis: max |a - b| / max |a| = 0",
        "  singular_values: max |a - b| / max |a| = 3e-13",
        "  weights: max |a - b| / max |a| = 0",
        "differs: same.csv",
        "4 of 5 entries differ",
    ]


def test_output_digest_needs_an_empty_run_directory(tmp_path):
    script = _load_script("output_digest")
    (tmp_path / "stale.json").write_text("{}")
    with pytest.raises(SystemExit):
        script.main([str(tmp_path), "--small"])
