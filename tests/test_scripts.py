import importlib.util
import json
import re
from pathlib import Path

import pytest

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


def test_output_digest_needs_an_empty_run_directory(tmp_path):
    script = _load_script("output_digest")
    (tmp_path / "stale.json").write_text("{}")
    with pytest.raises(SystemExit):
        script.main([str(tmp_path), "--small"])
