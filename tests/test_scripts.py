import importlib.util
import re
from pathlib import Path

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
