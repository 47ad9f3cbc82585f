import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qdecimate import (
    NormPolicy,
    PcaModel,
    Tolerances,
    entropy_vs_dimension_curve,
    evolve_sequence,
    fit_pca,
    ising_chain,
    random_state_set,
    random_state_vector,
    select_dimension,
    validate_state_set,
)
from qdecimate import cli
from qdecimate.cli import main
from qdecimate.fileio import (
    read_curve,
    read_model,
    read_operator,
    read_state_set,
    write_curve,
    write_model,
    write_state_set,
)

from helpers import dense_reduced_density_matrix, entropy_eigvalsh, peak_bytes


def _stderr_lines(argv):
    """Exit code and stderr lines of one in-process run; warnings count as lines."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def _states_file(tmp_path, dim, count, seed, name="states.json"):
    s = random_state_set(dim, count, seed=seed)
    path = tmp_path / name
    write_state_set(path, s.matrix)
    return path, s


# the header-less fields of a state set of one state, 1 + 0j in one dimension
_ONE_STATE = (
    b'"dimension": 1, "states": '
    b'{"dtype": "<c16", "shape": [1, 1], "data": "AAAAAAAA8D8AAAAAAAAAAA=="}'
)
_NOT_AN_OBJECT = "states must be a {dtype, shape, data} object"


class TestFit:
    def test_happy_path(self, tmp_path, capsys):
        path, s = _states_file(tmp_path, 16, 3, seed=130)
        out = tmp_path / "model.json"
        assert main(["fit", str(path), "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "M=3" in captured and "D=16" in captured and "rank: 3" in captured
        assert out.exists()

    def test_importance_lines_sum_to_one(self, tmp_path, capsys):
        path, _ = _states_file(tmp_path, 16, 3, seed=131)
        main(["fit", str(path), "-o", str(tmp_path / "m.json")])
        rows = [
            line.split(",")
            for line in capsys.readouterr().out.splitlines()
            if line and line[0].isdigit()
        ]
        total = sum(float(cols[2]) for cols in rows)
        assert abs(total - 1.0) <= 1e-12

    def test_regime_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "states.json"
        write_state_set(path, np.eye(3, dtype=complex))
        assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 2
        assert "RegimeViolation" in capsys.readouterr().err

    def test_round_trip_reconstruction(self, tmp_path):
        path, s = _states_file(tmp_path, 16, 3, seed=132)
        out = tmp_path / "model.json"
        main(["fit", str(path), "-o", str(out)])
        model = read_model(out)
        assert np.abs(model.basis @ model.weights - s.matrix).max() <= 1e-9

    def test_missing_input_exit_1(self, tmp_path, capsys):
        rc = main(["fit", str(tmp_path / "nope.json"), "-o", str(tmp_path / "m.json")])
        assert rc == 1

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("fine", [False, True])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
            (b'{"dimension": 2, "labels": ["\xff"]}', "not UTF-8"),
            # format 1: a version-1 file, a pair-list array, a state set with no version
            (b'{"format_version": 1, %s}' % _ONE_STATE, "unsupported format_version 1"),
            (b'{"format_version": 2, "dimension": 1, "states": [[[1.0, 0.0]]]}', _NOT_AN_OBJECT),
            (b"{%s}" % _ONE_STATE, "missing key 'format_version'"),
            (b"[{%s}]" % _ONE_STATE, "expected a JSON object at top level"),
        ],
    )
    def test_unreadable_json_exit_2_one_line(self, tmp_path, capsys, fine, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        if fine:
            argv = ["entropy-curve", str(path), "--state", "1", "--qubit", "1", "--fine"]
        else:
            argv = ["fit", str(path), "-o", str(tmp_path / "m.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "DomainError" in err and message in err

    @pytest.mark.parametrize("dimension", [[1], 1.5, True, "2"])
    def test_non_integer_dimension_exit_2(self, tmp_path, capsys, dimension):
        path, _ = _states_file(tmp_path, 16, 3, seed=135)
        doc = json.loads(path.read_text())
        doc["dimension"] = dimension
        path.write_text(json.dumps(doc))
        assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "DomainError" in err and "'dimension' must be an integer" in err

    def test_dimension_past_the_integer_digit_limit_exit_2(self, tmp_path, capsys):
        # json.dumps cannot write such an integer either, so the text is edited
        path, _ = _states_file(tmp_path, 16, 3, seed=135)
        text = path.read_text()
        assert text.count('"dimension":16') == 1
        path.write_text(text.replace('"dimension":16', '"dimension":' + "9" * 5000))
        assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "DomainError" in err
        assert "not valid JSON (Exceeds the limit (4300 digits)" in err
        assert not (tmp_path / "m.json").exists()

    def test_auto_normalize(self, tmp_path):
        s = random_state_set(16, 3, seed=133)
        path = tmp_path / "drifted.json"
        write_state_set(path, s.matrix * 1.0001)
        out = tmp_path / "m.json"
        assert main(["fit", str(path), "-o", str(out)]) == 2
        assert main(["fit", str(path), "-o", str(out), "--auto-normalize"]) == 0

    def test_strict_norm_error_names_the_flag(self, tmp_path, capsys):
        # norms drawn in 0.9..1.1: the one-line error tells a CLI user what to pass
        s = random_state_set(64, 20, seed=136)
        norms = np.random.Generator(np.random.PCG64(137)).uniform(0.9, 1.1, 20)
        path = tmp_path / "drift.json"
        write_state_set(path, s.matrix * norms)
        assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "NotNormalized" in err
        assert "--auto-normalize" in err and "NormPolicy.AUTO_NORMALIZE" in err

    def test_all_uniform_set_still_fits(self, tmp_path, capsys):
        path = tmp_path / "uniform.json"
        write_state_set(path, np.full((16, 3), 0.25, dtype=complex))
        assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        path, _ = _states_file(tmp_path, 16, 3, seed=134)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["fit", str(path), "-o", str(a)])
        main(["fit", str(path), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_blas_thread_count_moves_the_model_by_round_off_only(self, tmp_path):
        # files are byte-identical only at a fixed BLAS build and thread count;
        # across thread counts the model, phases included, agrees to round-off
        path, _ = _states_file(tmp_path, 2**12, 200, seed=3)
        src = str(Path(cli.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        models = []
        for threads in ("1", "2"):
            out = tmp_path / f"model_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            argv = ["fit", str(path), "-o", str(out)]
            code = "import sys; from qdecimate.cli import main; sys.exit(main())"
            subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, capture_output=True)
            models.append(read_model(out))
        one, two = models
        assert one.rank == two.rank
        for name in ("basis", "weights", "singular_values"):
            a, b = getattr(one, name), getattr(two, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_blas_thread_count_moves_a_rank_deficient_model_by_round_off_over_the_gap(
        self, tmp_path
    ):
        # Columns past a rank r < M are a function of the first r+1, so across
        # thread counts the whole basis moves as the retained singular vectors
        # do: by up to Wedin's eps * e_1 / gap, the gap being the smallest
        # between a retained singular value and any other. A coarse H = B^H H B
        # then moves by up to 2 ||H|| times that. Measured at 0.14 and 0.21 of
        # the bound for the two bases and 0.02 for _hcg.json, where a completion
        # taken from round-off moves them by 3e13, 1e4 and 9e3 times the bound.
        base = random_state_set(2**10, 8, 1).matrix
        rng = np.random.Generator(np.random.PCG64([1, 8]))
        mixed = base @ (rng.standard_normal((8, 150)) + 1j * rng.standard_normal((8, 150)))
        states = tmp_path / "lowrank.json"
        write_state_set(states, mixed / np.linalg.norm(mixed, axis=0))
        src = str(Path(cli.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        evolve = ["evolve", "--hamiltonian", "ising:10", "--psi0", "random:3", "--dt", "0.1"]
        runs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            prefix = tmp_path / f"chain_{threads}"
            for argv in (
                ["fit", str(states), "-o", str(tmp_path / f"model_{threads}.json")],
                [*evolve, "--steps", "60", "--d", "61", "--out-prefix", str(prefix)],
            ):
                code = "import sys; from qdecimate.cli import main; sys.exit(main())"
                subprocess.run(
                    [sys.executable, "-c", code, *argv], env=env, check=True, capture_output=True
                )
            runs[threads] = (
                read_model(tmp_path / f"model_{threads}.json"),
                read_model(f"{prefix}_model.json"),
                read_operator(f"{prefix}_hcg.json"),
            )
        (fit_one, chain_one, hcg_one), (fit_two, chain_two, hcg_two) = runs["1"], runs["2"]
        assert (fit_one.rank, chain_one.rank) == (8, 42)

        def wedin(model):
            sv, r = model.singular_values, model.rank
            gaps = np.abs(sv[:r, np.newaxis] - sv[np.newaxis, :])
            gaps[np.arange(r), np.arange(r)] = np.inf
            return np.finfo(float).eps * sv[0] / gaps.min()

        for one, two in ((fit_one, fit_two), (chain_one, chain_two)):
            assert two.rank == one.rank
            assert np.abs(one.basis - two.basis).max() <= wedin(one)
        bound = 2.0 * ising_chain(10).bound * wedin(chain_one)
        assert hcg_one.shape == (61, 61) and np.abs(hcg_one - hcg_two).max() <= bound


class TestImportanceTable:
    """fit prints each singular value's fraction of their sum, or one line saying it cannot."""

    @staticmethod
    def _table(tmp_path, monkeypatch, capsys, sv=None):
        # sv: the fit returns a model with these singular values (a Fourier
        # basis of M+2 rows and zero weights) instead of fitting the states
        path, _ = _states_file(tmp_path, 32, 6, seed=33)
        if sv is not None:
            count = len(sv)
            basis = np.fft.fft(np.eye(count + 2))[:, : count + 1] / np.sqrt(count + 2)
            weights = np.zeros((count + 1, count), dtype=complex)
            model = PcaModel(basis, np.asarray(sv, dtype=np.float64), weights)
            monkeypatch.setattr(cli, "fit_pca", lambda phi: model)
        assert main(["fit", str(path), "-o", str(tmp_path / "m.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines if line[:1].isdigit()]
        return lines, [float(cols[2]) for cols in rows]

    def test_direct_ratio(self, tmp_path, monkeypatch, capsys):
        _, fractions = self._table(tmp_path, monkeypatch, capsys, [3.0, 1.0])
        assert fractions == [0.75, 0.25]

    def test_symmetric_values(self, tmp_path, monkeypatch, capsys):
        _, fractions = self._table(tmp_path, monkeypatch, capsys, [0.7, 0.7, 0.7, 0.7])
        assert len(fractions) == 4
        for value in fractions:
            assert abs(value - 0.25) <= 1e-15

    def test_sum_to_one(self, tmp_path, monkeypatch, capsys):
        _, fractions = self._table(tmp_path, monkeypatch, capsys)
        assert len(fractions) == 6
        assert abs(sum(fractions) - 1.0) <= 1e-12

    def test_all_zero_deviations_skip_the_table(self, tmp_path, monkeypatch, capsys):
        lines, fractions = self._table(tmp_path, monkeypatch, capsys, [0.0, 0.0])
        assert fractions == []
        assert "importance table: skipped (all deviation singular values are zero)" in lines
        assert "k,singular_value,importance" not in lines


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


class TestOneBuffer:
    """fit and entropy-curve hold the states once: in the fit buffer that becomes the basis."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # D=2^12, M=200, and the same set drifting by up to 5e-9, past state_norm
        folder = tmp_path_factory.mktemp("one-buffer")
        s = random_state_set(2**12, 200, seed=3)
        drift = 1.0 + 5e-9 * np.random.Generator(np.random.PCG64(11)).uniform(-1, 1, 200)
        write_state_set(folder / "unit.json", s.matrix)
        write_state_set(folder / "drift.json", s.matrix * drift)
        return folder

    @pytest.mark.parametrize(
        "command, name, flags",
        [
            ("fit", "unit.json", []),
            ("fit", "drift.json", ["--auto-normalize"]),
            ("entropy-curve", "unit.json", ["--state", "7", "--qubit", "3"]),
        ],
        ids=["fit", "fit-auto-normalize", "entropy-curve"],
    )
    def test_peak_holds_the_states_once(self, files, tmp_path, command, name, flags):
        # 12.5 MiB of states: the reader's array and the fit buffer, then the
        # buffer and the fit's temporaries; three copies of the states read 35.6-37.6
        argv = [command, str(files / name), "-o", str(tmp_path / "out"), *flags]
        assert peak_bytes(lambda: _quiet_main(argv)) <= 26 * 2**20

    @pytest.mark.parametrize("name", ["unit.json", "drift.json"])
    def test_fit_writes_the_public_path_model(self, files, tmp_path, name):
        flags = ["--auto-normalize"] if name == "drift.json" else []
        policy = NormPolicy.AUTO_NORMALIZE if flags else NormPolicy.STRICT
        matrix, _ = read_state_set(files / name)
        write_model(tmp_path / "want.json", fit_pca(validate_state_set(matrix, policy)))
        argv = ["fit", str(files / name), "-o", str(tmp_path / "got.json"), *flags]
        assert _quiet_main(argv) == 0
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("name", ["unit.json", "drift.json"])
    def test_curve_writes_the_public_path_csv(self, files, tmp_path, name):
        flags = ["--auto-normalize"] if name == "drift.json" else []
        policy = NormPolicy.AUTO_NORMALIZE if flags else NormPolicy.STRICT
        s = validate_state_set(read_state_set(files / name)[0], policy)
        write_curve(tmp_path / "want.csv", entropy_vs_dimension_curve(s, fit_pca(s), 7, 3).points)
        argv = ["entropy-curve", str(files / name), "--state", "7", "--qubit", "3", *flags]
        assert _quiet_main([*argv, "-o", str(tmp_path / "got.csv")]) == 0
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestDecimate:
    def _fitted(self, tmp_path, dim=16, count=3, seed=140):
        path, s = _states_file(tmp_path, dim, count, seed=seed)
        model_path = tmp_path / "model.json"
        assert main(["fit", str(path), "-o", str(model_path)]) == 0
        return model_path, s

    def test_full_d_keeps_weights(self, tmp_path):
        model_path, s = self._fitted(tmp_path)
        out = tmp_path / "coarse.json"
        assert main(["decimate", str(model_path), "-o", str(out), "--d", "4"]) == 0
        model = read_model(model_path)
        matrix, _ = read_state_set(out)
        assert np.abs(matrix - model.weights).max() <= 1e-12

    def test_eps_zero_full_rank_keeps_everything(self, tmp_path, capsys):
        model_path, _ = self._fitted(tmp_path, seed=141)
        out = tmp_path / "coarse.json"
        assert main(["decimate", str(model_path), "-o", str(out), "--eps", "0"]) == 0
        assert "selected d=4" in capsys.readouterr().out

    def test_eps_matches_library_rule(self, tmp_path, capsys):
        model_path, _ = self._fitted(tmp_path, dim=32, count=6, seed=142)
        out = tmp_path / "coarse.json"
        assert main(["decimate", str(model_path), "-o", str(out), "--eps", "0.01"]) == 0
        printed = capsys.readouterr().out
        model = read_model(model_path)
        expected = select_dimension(model, 0.01)
        assert f"selected d={expected}" in printed
        matrix, _ = read_state_set(out)
        assert matrix.shape == (expected, 6)
        assert np.abs(np.linalg.norm(matrix, axis=0) - 1.0).max() <= 1e-10

    def test_requires_exactly_one_selector(self, tmp_path, monkeypatch):
        # a usage error, like an unknown command: argparse exits 2 before the model is read
        model_path, _ = self._fitted(tmp_path, seed=143)
        out = tmp_path / "coarse.json"
        reached = []
        monkeypatch.setattr(cli.fileio, "read_model", lambda *args: reached.append(args))
        for selector in ([], ["--d", "2", "--eps", "0.1"]):
            with pytest.raises(SystemExit) as exc:
                main(["decimate", str(model_path), "-o", str(out), *selector])
            assert exc.value.code == 2
        assert not reached and not out.exists()

    def test_bad_dimension_exit_2(self, tmp_path, capsys):
        model_path, _ = self._fitted(tmp_path, seed=144)
        out = tmp_path / "coarse.json"
        assert main(["decimate", str(model_path), "-o", str(out), "--d", "1"]) == 2
        assert "BadDimension" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[{}, {}], [[1.0], [0.5, 0.2], []], "1,2,3"])
    def test_non_numeric_singular_values_exit_2(self, tmp_path, capsys, values):
        model_path, _ = self._fitted(tmp_path, seed=146)
        doc = json.loads(model_path.read_text())
        doc["singular_values"] = values
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["decimate", str(model_path), "-o", str(tmp_path / "c.json"), "--d", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "DomainError" in err and "singular_values is not a numeric array" in err

    def test_summary_lines(self, tmp_path, capsys):
        model_path, _ = self._fitted(tmp_path, seed=145)
        out = tmp_path / "coarse.json"
        main(["decimate", str(model_path), "-o", str(out), "--d", "2"])
        printed = capsys.readouterr().out
        for mu in (1, 2, 3):
            assert f"state {mu}: d=2 retained_power=" in printed


class TestEntropyCurve:
    def test_uniform_set_zero_column(self, tmp_path):
        path = tmp_path / "uniform.json"
        write_state_set(path, np.full((16, 3), 0.25, dtype=complex))
        out = tmp_path / "curve.csv"
        rc = main(["entropy-curve", str(path), "-o", str(out), "--state", "1", "--qubit", "1"])
        assert rc == 0
        rows = read_curve(out)
        assert [d for d, _ in rows] == [1, 2, 3, 4]
        assert all(value == 0.0 for _, value in rows)

    def test_endpoint_matches_fine_flag(self, tmp_path, capsys):
        path, _ = _states_file(tmp_path, 16, 3, seed=150)
        rc = main(["entropy-curve", str(path), "--state", "2", "--qubit", "3", "--fine"])
        assert rc == 0
        fine_line = capsys.readouterr().out.strip().splitlines()[-1]
        fine = float(fine_line.split("=")[1].split()[0])
        out = tmp_path / "curve.csv"
        main(["entropy-curve", str(path), "-o", str(out), "--state", "2", "--qubit", "3"])
        rows = read_curve(out)
        assert abs(rows[-1][1] - fine) <= 1e-8

    def test_fine_takes_every_admitted_norm(self, tmp_path, capsys):
        # norms 1 + 4e-10 pass validation, so --fine must work beside the curve
        path = tmp_path / "scaled.json"
        matrix = random_state_set(16, 3, 1).matrix * (1 + 4e-10)
        write_state_set(path, matrix)
        assert main(["entropy-curve", str(path), "--state", "1", "--qubit", "1", "--fine"]) == 0
        fine = float(capsys.readouterr().out.split("=")[1].split()[0])
        out = tmp_path / "curve.csv"
        argv = ["entropy-curve", str(path), "-o", str(out), "--state", "1", "--qubit", "1"]
        assert main(argv) == 0
        assert abs(read_curve(out)[-1][1] - fine) <= 1e-8
        rho = dense_reduced_density_matrix(matrix[:, 0], 4, 1)
        assert abs(entropy_eigvalsh(rho / np.trace(rho).real) - fine) <= 1e-12

    def test_d95_printed(self, tmp_path, capsys):
        path, _ = _states_file(tmp_path, 16, 4, seed=151)
        out = tmp_path / "curve.csv"
        main(["entropy-curve", str(path), "-o", str(out), "--state", "1", "--qubit", "1"])
        printed = capsys.readouterr().out
        assert "d95=" in printed
        d95 = int(printed.split("d95=")[1].split()[0])
        assert 1 <= d95 <= 5

    def test_bits_flag_scales(self, tmp_path):
        path, _ = _states_file(tmp_path, 16, 3, seed=152)
        nats_out = tmp_path / "nats.csv"
        bits_out = tmp_path / "bits.csv"
        main(["entropy-curve", str(path), "-o", str(nats_out), "--state", "1", "--qubit", "2"])
        main(
            [
                "entropy-curve",
                str(path),
                "-o",
                str(bits_out),
                "--state",
                "1",
                "--qubit",
                "2",
                "--bits",
            ]
        )
        nats = read_curve(nats_out)
        bits = read_curve(bits_out)
        for (_, a), (_, b) in zip(nats, bits):
            assert abs(b - a / math.log(2.0)) <= 1e-12

    def test_non_power_of_two_exit_2(self, tmp_path, capsys):
        path, _ = _states_file(tmp_path, 12, 3, seed=153)
        rc = main(["entropy-curve", str(path), "-o", str(tmp_path / "c.csv"), "--state", "1", "--qubit", "1"])
        assert rc == 2
        assert "NotPowerOfTwo" in capsys.readouterr().err

    def test_output_required_without_fine(self, tmp_path):
        path, _ = _states_file(tmp_path, 16, 3, seed=154)
        with pytest.raises(SystemExit) as exc:
            main(["entropy-curve", str(path), "--state", "1", "--qubit", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fine", [[], ["--fine"]], ids=["curve", "fine"])
    @pytest.mark.parametrize("state", ["0", "4"])
    def test_state_out_of_range_refused_before_fit(self, tmp_path, monkeypatch, state, fine):
        path, _ = _states_file(tmp_path, 16, 3, seed=155)
        reached = []
        monkeypatch.setattr(cli, "fit_pca", lambda *args: reached.append(args))
        out = tmp_path / "curve.csv"
        argv = ["entropy-curve", str(path), "--state", state, "--qubit", "1"]
        code, err = _stderr_lines([*argv, *(fine or ["-o", str(out)])])
        assert code == 2 and err == [f"error: DomainError: --state must lie in 1..3, got {state}"]
        assert not reached and not out.exists()


    @pytest.mark.parametrize("fine", [[], ["--fine"]], ids=["curve", "fine"])
    @pytest.mark.parametrize("qubit", ["0", "5", "99"])
    def test_qubit_out_of_range_refused_before_fit(self, tmp_path, monkeypatch, qubit, fine):
        path, _ = _states_file(tmp_path, 16, 3, seed=156)
        reached = []
        monkeypatch.setattr(cli, "fit_pca", lambda *args: reached.append(args))
        out = tmp_path / "curve.csv"
        argv = ["entropy-curve", str(path), "--state", "1", "--qubit", qubit]
        code, err = _stderr_lines([*argv, *(fine or ["-o", str(out)])])
        assert code == 2 and err == [f"error: DomainError: --qubit must lie in 1..4, got {qubit}"]
        assert not reached and not out.exists()

    def test_missing_output_refused_before_reading(self, tmp_path, monkeypatch):
        path, _ = _states_file(tmp_path, 16, 3, seed=157)
        reached = []
        monkeypatch.setattr(cli, "_load_states", lambda *args: reached.append(args))
        monkeypatch.setattr(cli, "fit_pca", lambda *args: reached.append(args))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["entropy-curve", str(path), "--state", "1", "--qubit", "1"])
        assert exc.value.code == 2
        assert err.getvalue().splitlines()[-1] == (
            "qdecimate entropy-curve: error: one of the arguments -o/--output --fine is required"
        )
        assert not reached


class TestEvolve:
    def test_zero_hamiltonian_constant_trajectory(self, tmp_path):
        prefix = tmp_path / "run"
        rc = main(
            [
                "evolve",
                "--hamiltonian",
                "zero",
                "--dim",
                "8",
                "--dt",
                "0.1",
                "--steps",
                "5",
                "--out-prefix",
                str(prefix),
            ]
        )
        assert rc == 0
        matrix, labels = read_state_set(f"{prefix}_trajectory.json")
        assert matrix.shape == (8, 5)
        for j in range(1, 5):
            assert np.abs(matrix[:, j] - matrix[:, 0]).max() <= 1e-12
        assert labels is not None and labels[0] == "t=0.0"

    def test_prints_the_rank_of_its_fit(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        argv = ["evolve", "--hamiltonian", "ising:10", "--psi0", "random:3"]
        assert main(argv + ["--dt", "0.1", "--steps", "60", "--out-prefix", str(prefix)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "rank: 42" in lines
        assert read_model(f"{prefix}_model.json").rank == 42

    def test_ising_norms_validated_on_reload(self, tmp_path):
        prefix = tmp_path / "run"
        rc = main(
            [
                "evolve",
                "--hamiltonian",
                "ising:6",
                "--dt",
                "0.05",
                "--steps",
                "20",
                "--out-prefix",
                str(prefix),
            ]
        )
        assert rc == 0
        matrix, _ = read_state_set(f"{prefix}_trajectory.json")
        validate_state_set(matrix)  # strict norm check on reload
        assert np.abs(np.linalg.norm(matrix, axis=0) - 1.0).max() <= 1e-9

    def test_outputs_are_consistent(self, tmp_path):
        prefix = tmp_path / "run"
        main(
            [
                "evolve",
                "--hamiltonian",
                "random:7",
                "--dim",
                "16",
                "--psi0",
                "random:8",
                "--dt",
                "0.1",
                "--steps",
                "6",
                "--d",
                "4",
                "--out-prefix",
                str(prefix),
            ]
        )
        matrix, _ = read_state_set(f"{prefix}_trajectory.json")
        model = read_model(f"{prefix}_model.json")
        refit = fit_pca(validate_state_set(matrix))
        assert np.array_equal(model.basis, refit.basis)
        curve = read_curve(f"{prefix}_retained.csv")
        assert [d for d, _ in curve] == list(range(1, 8))
        assert abs(curve[-1][1] - 1.0) <= 1e-9
        powers = np.abs(model.weights.real) ** 2 + np.abs(model.weights.imag) ** 2
        assert abs(curve[3][1] - float(np.cumsum(powers, axis=0)[3].mean())) <= 1e-12

    def test_paired_local_vs_random(self, tmp_path, capsys):
        def retained(spec, seed_args):
            prefix = tmp_path / f"run_{spec.replace(':', '_').replace(',', '_')}"
            rc = main(
                [
                    "evolve",
                    "--hamiltonian",
                    spec,
                    *seed_args,
                    "--dt",
                    "0.05",
                    "--steps",
                    "8",
                    "--d",
                    "5",
                    "--out-prefix",
                    str(prefix),
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            return float(out.split("mean retained power at d:")[1].split()[0])

        local = retained("ising:4", [])
        rand = retained("random:11", ["--dim", "16"])
        assert local >= rand

    def test_spec_errors_exit_2(self, tmp_path):
        base = ["--dt", "0.1", "--steps", "3", "--out-prefix", str(tmp_path / "x")]
        assert main(["evolve", "--hamiltonian", "banana", "--dim", "8", *base]) == 2
        assert main(["evolve", "--hamiltonian", "random:1", *base]) == 2
        assert main(["evolve", "--hamiltonian", "ising:3", "--dim", "32", *base]) == 2
        assert main(["evolve", "--hamiltonian", "ising:nope", *base]) == 2
        assert main(["evolve", "--hamiltonian", "zero", "--dim", "8", "--psi0", "basis:99", *base]) == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            (["zero:1", "--dim", "8"], "zero takes no parameters, got 'zero:1'"),
            (["zero"], "zero Hamiltonian needs --dim"),
            (["ising:"], "ising spec needs a site count"),
            (["ising:1"], "chain needs at least 2 qubits, got 1"),
            (["ising:4,1,1,1"], "ising takes at most n,J,g, got 'ising:4,1,1,1'"),
        ],
        ids=["zero-parameter", "zero-no-dim", "ising-empty", "ising-one-site", "ising-four-fields"],
    )
    def test_hamiltonian_spec_refused_one_line(self, tmp_path, spec, message):
        argv = ["evolve", "--hamiltonian", *spec, "--dt", "0.1", "--steps", "3"]
        code, err = _stderr_lines([*argv, "--out-prefix", str(tmp_path / "x")])
        assert code == 2 and len(err) == 1, err
        assert err[0].startswith("error: DomainError: ") and message in err[0], err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["unknown", "two-state-file", "basis-zero"])
    def test_psi0_spec_refused_one_line(self, tmp_path, monkeypatch, kind):
        # refused before H is built: a dense H at --dim 2048 would take 200 MiB first
        def refuse(*args, **kwargs):
            raise AssertionError("Hamiltonian built before psi0 was checked")

        monkeypatch.setattr(cli, "random_hamiltonian", refuse)
        monkeypatch.setattr(cli, "ising_chain", refuse)
        if kind == "unknown":
            psi0 = "banana:1"
            message = (
                "unknown initial-state spec 'banana:1' "
                "(use uniform | basis:i | random:seed | file:path)"
            )
        elif kind == "two-state-file":
            path, _ = _states_file(tmp_path, 8, 2, seed=141, name="psi.json")
            psi0 = f"file:{path}"
            message = (
                f"bad initial-state spec '{psi0}': initial-state file must hold "
                "exactly one length-8 state, got shape (8, 2)"
            )
        else:
            psi0 = "basis:0"
            message = "bad initial-state spec 'basis:0': basis index must lie in 1..8, got 0"
        for hamiltonian in (["ising:3"], ["random:3", "--dim", "8"]):
            argv = ["evolve", "--hamiltonian", *hamiltonian, "--psi0", psi0, "--dt", "0.1"]
            code, err = _stderr_lines([*argv, "--steps", "3", "--out-prefix", str(tmp_path / "x")])
            assert code == 2 and err == [f"error: DomainError: {message}"], hamiltonian
        assert not list(tmp_path.glob("x_*"))

    def test_negative_hamiltonian_seed_refused_before_building(self, tmp_path, monkeypatch):
        # numpy would refuse it only inside the build, as "invalid input"
        reached = []
        monkeypatch.setattr(cli, "random_hamiltonian", lambda *args: reached.append(args))
        monkeypatch.setattr(cli, "_check_evolve_memory", lambda *args: reached.append(args))
        argv = ["evolve", "--hamiltonian", "random:-1", "--dim", "8", "--dt", "0.1"]
        code, err = _stderr_lines([*argv, "--steps", "2", "--out-prefix", str(tmp_path / "P")])
        assert code == 2 and err == [
            "error: DomainError: bad Hamiltonian spec 'random:-1': "
            "seed must be non-negative, got -1"
        ]
        assert not reached and not list(tmp_path.iterdir())

    def test_uniform_takes_no_parameters(self, tmp_path):
        argv = ["evolve", "--hamiltonian", "ising:3", "--psi0", "uniform:garbage", "--dt", "0.1"]
        code, err = _stderr_lines([*argv, "--steps", "3", "--out-prefix", str(tmp_path / "x")])
        assert code == 2 and err == [
            "error: DomainError: bad initial-state spec 'uniform:garbage': "
            "uniform takes no parameters"
        ]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("psi0, rank", [([], 9), (["--psi0", "random:1"], 10)])
    def test_default_uniform_start_loses_one_rank(self, tmp_path, capsys, psi0, rank):
        # the default psi0 is u0 itself: state 1 deviates from u0 by exactly zero
        argv = ["evolve", "--hamiltonian", "random:3", "--dim", "64", *psi0, "--dt", "0.1"]
        assert main(argv + ["--steps", "10", "--out-prefix", str(tmp_path / "r")]) == 0
        assert f"rank: {rank}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("index", [1, 6, 8])
    def test_psi0_basis_state_starts_the_trajectory(self, tmp_path, index):
        prefix = tmp_path / "run"
        argv = ["evolve", "--hamiltonian", "ising:3", "--psi0", f"basis:{index}", "--dt", "0.1"]
        assert main([*argv, "--steps", "4", "--out-prefix", str(prefix)]) == 0
        matrix, _ = read_state_set(f"{prefix}_trajectory.json")
        expected = np.zeros(8, dtype=complex)
        expected[index - 1] = 1.0
        assert matrix.shape == (8, 4) and np.array_equal(matrix[:, 0], expected)

    def test_regime_violation_exit_2(self, tmp_path, capsys):
        rc = main(
            [
                "evolve",
                "--hamiltonian",
                "zero",
                "--dim",
                "4",
                "--dt",
                "0.1",
                "--steps",
                "5",
                "--out-prefix",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "RegimeViolation" in capsys.readouterr().err

    def test_psi0_file(self, tmp_path):
        psi = np.zeros((8, 1), dtype=complex)
        psi[3, 0] = 1.0
        psi_path = tmp_path / "psi.json"
        write_state_set(psi_path, psi)
        prefix = tmp_path / "run"
        rc = main(
            [
                "evolve",
                "--hamiltonian",
                "zero",
                "--dim",
                "8",
                "--psi0",
                f"file:{psi_path}",
                "--dt",
                "0.1",
                "--steps",
                "3",
                "--out-prefix",
                str(prefix),
            ]
        )
        assert rc == 0
        matrix, _ = read_state_set(f"{prefix}_trajectory.json")
        assert np.abs(matrix[:, 0] - psi[:, 0]).max() <= 1e-12

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "evolve",
            "--hamiltonian",
            "ising:4,1.0,0.5",
            "--psi0",
            "random:5",
            "--dt",
            "0.1",
            "--steps",
            "6",
            "--d",
            "3",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out-prefix", str(a)]) == 0
        assert main([*args, "--out-prefix", str(b)]) == 0
        for suffix in ("_trajectory.json", "_model.json", "_hcg.json", "_retained.csv"):
            assert (
                (tmp_path / f"a{suffix}").read_bytes()
                == (tmp_path / f"b{suffix}").read_bytes()
            )

    @pytest.mark.parametrize(
        "spec, dt",
        [
            ("ising:6", "inf"),
            ("ising:6", "-inf"),
            ("ising:6", "nan"),
            ("ising:6", "1e300"),
            ("ising:6,1e308,1e308", "0.1"),
            ("ising:6,nan", "0.1"),
            ("ising:6,1,inf", "0.1"),
            ("zero", "inf"),
            ("random:3", "nan"),
            ("random:3", "1e307"),
        ],
    )
    def test_non_finite_or_unexpandable_input_one_line(self, tmp_path, spec, dt):
        dim = ["--dim", "16"] if not spec.startswith("ising") else []
        argv = ["evolve", "--hamiltonian", spec, *dim, f"--dt={dt}", "--steps", "5"]
        code, err = _stderr_lines([*argv, "--out-prefix", str(tmp_path / "x")])
        assert code == 2 and len(err) == 1 and err[0].startswith("error: "), err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dt, steps", [("nan", 2), ("inf", 2), ("1e308", 3)])
    def test_non_finite_time_refused_before_building(self, tmp_path, monkeypatch, dt, steps):
        # a dense H at --dim 2048 would take 200 MiB before evolve_sequence refused it
        def refuse(*args, **kwargs):
            raise AssertionError("Hamiltonian built before the time span was checked")

        monkeypatch.setattr(cli, "random_hamiltonian", refuse)
        monkeypatch.setattr(cli, "ising_chain", refuse)
        message = f"time step and span must be finite, got dt={float(dt)!r}, steps={steps}"
        for hamiltonian in (["ising:3"], ["random:3", "--dim", "8"]):
            argv = ["evolve", "--hamiltonian", *hamiltonian, f"--dt={dt}", "--steps", str(steps)]
            code, err = _stderr_lines([*argv, "--out-prefix", str(tmp_path / "x")])
            assert code == 2 and err == [f"error: RegimeViolation: {message}"], hamiltonian
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("spec", ["zero", "random:1"])
    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_dim_below_one_exit_2_one_line(self, tmp_path, spec, dim):
        argv = ["evolve", "--hamiltonian", spec, f"--dim={dim}", "--dt", "0.1", "--steps", "3"]
        code, err = _stderr_lines([*argv, "--out-prefix", str(tmp_path / "x")])
        assert code == 2 and err == [f"error: DomainError: --dim must be at least 1, got {dim}"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("d", ["1", "62"])
    def test_bad_d_refused_before_evolving(self, tmp_path, monkeypatch, d):
        reached = []
        monkeypatch.setattr(cli, "evolve_sequence", lambda *args: reached.append(args))
        argv = ["evolve", "--hamiltonian", "ising:6", "--dt", "0.1", "--steps", "60", "--d", d]
        code, err = _stderr_lines([*argv, "--out-prefix", str(tmp_path / "x")])
        assert code == 2 and err == [
            f"error: BadDimension: coarse dimension must lie in [2, 61], got {d}"
        ]
        assert not reached and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("d", [[], ["--d", "3"]], ids=["default-d", "d3"])
    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_steps_below_one_refused_first(self, tmp_path, monkeypatch, steps, d):
        reached = []
        monkeypatch.setattr(cli, "ising_chain", lambda *args, **kwargs: reached.append(args))
        argv = ["evolve", "--hamiltonian", "ising:6", "--dt", "0.1", "--steps", steps, *d]
        code, err = _stderr_lines([*argv, "--out-prefix", str(tmp_path / "x")])
        assert code == 2 and err == [
            f"error: RegimeViolation: need at least one state, got M={steps}"
        ]
        assert not reached and not list(tmp_path.iterdir())

    def test_bare_random_is_seed_zero(self, tmp_path):
        def trajectory(name, hamiltonian, psi0):
            argv = ["evolve", "--hamiltonian", hamiltonian, "--dim", "8", "--psi0", psi0]
            prefix = tmp_path / name
            argv += ["--dt", "0.1", "--steps", "3", "--out-prefix", str(prefix)]
            assert main(argv) == 0
            return read_state_set(f"{prefix}_trajectory.json")[0]

        bare = trajectory("bare", "random", "random")
        assert np.array_equal(bare, trajectory("zero", "random:0", "random:0"))
        assert not np.array_equal(bare, trajectory("one", "random:1", "random:0"))
        assert not np.array_equal(bare, trajectory("psi-one", "random:0", "random:1"))

    def test_out_of_memory_exit_1_one_line(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("cannot allocate the chain")

        monkeypatch.setattr(cli, "ising_chain", refuse)
        argv = ["evolve", "--hamiltonian", "ising:6", "--dt", "0.1", "--steps", "5"]
        code, err = _stderr_lines([*argv, "--out-prefix", str(tmp_path / "x")])
        assert code == 1 and err == ["error: out of memory: cannot allocate the chain"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "spec, dim", [("ising:6", []), ("zero", ["--dim", "40"]), ("random:2", ["--dim", "40"])]
    )
    def test_estimated_footprint_over_physical_memory_exit_1(
        self, tmp_path, monkeypatch, spec, dim
    ):
        # beyond the interpreter's share, the estimate is 123-183 KiB for these specs and
        # 30 steps (D > steps+1, so the dimension check passes); pretend the machine has
        # 16 KiB more than that share. Neither H nor psi0 is built before the estimate
        # refuses the run.
        monkeypatch.setattr(cli, "_physical_memory", lambda: cli._INTERPRETER_BYTES + 2**14)
        reached = []
        for name in ("evolve_sequence", "ising_chain", "random_hamiltonian", "random_state_vector"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kw: reached.append(name))
        argv = ["evolve", "--hamiltonian", spec, *dim, "--psi0", "random:3", "--dt", "0.1"]
        code, err = _stderr_lines([*argv, "--steps", "30", "--out-prefix", str(tmp_path / "x")])
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error: out of memory: evolve with D=") and "30 steps" in err[0]
        assert not reached and not list(tmp_path.iterdir())

    def test_dimension_refused_before_the_memory_estimate(self, tmp_path, monkeypatch):
        # 10^9 steps would be estimated at about 1.2e3 GiB; D=16 <= steps+1 comes first
        reached = []
        monkeypatch.setattr(cli, "_check_evolve_memory", lambda *args, **kw: reached.append(args))
        argv = ["evolve", "--hamiltonian", "ising:4", "--dt", "0.1", "--steps", "1000000000"]
        code, err = _stderr_lines([*argv, "--out-prefix", str(tmp_path / "x")])
        assert code == 2 and err == [
            "error: RegimeViolation: need dimension D > M+1, got D=16, M=1000000000"
        ]
        assert not reached and not list(tmp_path.iterdir())

    def test_footprint_within_physical_memory_runs(self, tmp_path, monkeypatch):
        # ising:6 with 5 steps needs 64 MiB + 16*64*(3*6 + 5) = 67132416 bytes by the
        # estimate: the interpreter, three trajectories of 6 columns and a series block
        # of 5 vectors
        monkeypatch.setattr(cli, "_physical_memory", lambda: 67132416)
        argv = ["evolve", "--hamiltonian", "ising:6", "--dt", "0.1", "--steps", "5"]
        assert main([*argv, "--out-prefix", str(tmp_path / "x")]) == 0
        monkeypatch.setattr(cli, "_physical_memory", lambda: 67132415)
        assert main([*argv, "--out-prefix", str(tmp_path / "y")]) == 1

    def test_ising_20_with_100_steps_fits_in_8_gib(self, monkeypatch):
        # 64 MiB + 16 * 2^20 * (3 * 101 + 32) bytes = 5.30 GiB; the run peaks at 4.14 GiB
        monkeypatch.setattr(cli, "_physical_memory", lambda: int(7.83 * 2**30))
        cli._check_evolve_memory(2**20, 100, dense=False)
        monkeypatch.setattr(cli, "_physical_memory", lambda: 4 * 2**30)
        with pytest.raises(MemoryError, match="about 5.3 GiB"):
            cli._check_evolve_memory(2**20, 100, dense=False)

    def test_dense_hamiltonian_counts_its_matrix(self, tmp_path, monkeypatch):
        # 3 steps: beyond the interpreter, the chain's terms are 16*32*(3*4 + 3) bytes
        # = 7.5 KiB, under the 64 KiB; the dense D x D term, 16*40*5*40 = 125 KiB, is not
        monkeypatch.setattr(cli, "_physical_memory", lambda: cli._INTERPRETER_BYTES + 2**16)
        argv = ["--dt", "0.1", "--steps", "3", "--out-prefix", str(tmp_path / "x")]
        assert main(["evolve", "--hamiltonian", "ising:5", *argv]) == 0
        code, err = _stderr_lines(["evolve", "--hamiltonian", "zero", "--dim", "40", *argv])
        assert code == 1 and err[0].startswith("error: out of memory: evolve with D=40")

    @pytest.mark.parametrize(
        "spec, psi0, steps, rank",
        [
            ("ising:6", "random:1", 40, 24),
            ("ising:6", "random:1", 10, 10),
            ("zero", "uniform", 3, 0),
        ],
        ids=["rank-deficient", "full-rank", "constant"],
    )
    def test_default_d_is_the_span_the_trajectory_reached(
        self, tmp_path, capsys, spec, psi0, steps, rank
    ):
        # d = rank+1, at least 2: the default _hcg.json is (rank+1) x (rank+1),
        # (M+1) x (M+1) only when the trajectory has full rank; a constant
        # trajectory (rank 0) gets the smallest d there is
        prefix = tmp_path / "chain"
        dim = ["--dim", "64"] if spec == "zero" else []
        argv = ["evolve", "--hamiltonian", spec, *dim, "--psi0", psi0, "--dt", "0.1"]
        assert main([*argv, "--steps", str(steps), "--out-prefix", str(prefix)]) == 0
        d = max(2, rank + 1)
        lines = capsys.readouterr().out.splitlines()
        assert f"rank: {rank}" in lines and f"coarse dimension: d={d}" in lines
        assert read_operator(f"{prefix}_hcg.json").shape == (d, d)
        power = read_curve(f"{prefix}_retained.csv")[d - 1][1]
        assert f"mean retained power at d: {power!r}" in lines

    def test_ising_14_runs_without_a_dense_matrix(self, tmp_path):
        # a dense H would need 4 GiB here
        prefix = tmp_path / "big"
        argv = ["evolve", "--hamiltonian", "ising:14", "--dt", "0.1", "--steps", "20"]
        assert main([*argv, "--d", "6", "--out-prefix", str(prefix)]) == 0
        matrix, _ = read_state_set(f"{prefix}_trajectory.json")
        assert matrix.shape == (2**14, 20)
        assert np.abs(np.linalg.norm(matrix, axis=0) - 1.0).max() <= 1e-12
        assert read_operator(f"{prefix}_hcg.json").shape == (6, 6)


class TestWriteFailure:
    """A failed write is one stderr line naming the requested path, never the temp file."""

    def _argv(self, tmp_path, command, out):
        states, _ = _states_file(tmp_path, 16, 3, seed=280)
        model = tmp_path / "model.json"
        assert main(["fit", str(states), "-o", str(model)]) == 0
        return {
            "fit": ["fit", str(states), "-o", out],
            "decimate": ["decimate", str(model), "-o", out, "--d", "2"],
            "entropy-curve": ["entropy-curve", str(states), "-o", out]
            + ["--state", "1", "--qubit", "1"],
            "evolve": ["evolve", "--hamiltonian", "ising:4", "--dt", "0.1", "--steps", "3"]
            + ["--out-prefix", out],
        }[command]

    @pytest.mark.parametrize("command", ["fit", "decimate", "entropy-curve", "evolve"])
    def test_missing_directory_exit_1(self, tmp_path, command):
        out = str(tmp_path / "missing" / "dir" / "out")
        code, err = _stderr_lines(self._argv(tmp_path, command, out))
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error: I/O failure: [Errno 2] No such file or directory: ")
        assert out in err[0] and ".tmp" not in err[0]


class TestInfoAndParser:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "model format_version: 2" in out
        assert '"dtype": "<c16"' in out and "[re, im]" not in out
        assert "tolerance base: 1e-10" in out

    def test_info_prints_every_tolerance_constant(self, capsys):
        assert main(["info"]) == 0
        printed = [
            line.split()[1].rstrip(":")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("tolerance ")
        ]
        constants = [name for name, value in vars(Tolerances).items() if isinstance(value, float)]
        assert printed == constants == ["base", "state_norm", "zero_norm", "rank_rel", "psd_slack"]

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "s.json", "-o", "m.json", "--seed", "1"],
            ["decimate", "m.json", "-o", "c.json", "--d", "2", "--seed", "1"],
            ["entropy-curve", "s.json", "--state", "1", "--qubit", "1", "--fine", "--seed", "1"],
            ["entropy-curve", "s.json", "-o", "c.csv", "--state", "1", "--qubit", "1", "--fine"],
            ["info", "--seed", "1"],
            ["info", "--tolerance", "1e-9"],
            ["fit", "s.json", "-o", "m.json", "--tolerance", "1e-9"],
            ["decimate", "m.json", "-o", "c.json", "--d", "2", "--tolerance", "1e-9"],
            ["entropy-curve", "s.json", "--state", "1", "--qubit", "1", "--fine"]
            + ["--tolerance", "1e-9"],
            ["evolve", "--hamiltonian", "ising:4", "--dt", "0.1", "--steps", "3"]
            + ["--out-prefix", "missing-dir/x", "--tolerance", "1e-9"],
            ["evolve", "--hamiltonian", "random", "--dim", "8", "--dt", "0.1", "--steps", "3"]
            + ["--out-prefix", "missing-dir/x", "--seed", "1"],
        ],
        ids=[
            "fit-seed",
            "decimate-seed",
            "entropy-curve-seed",
            "entropy-curve-output-and-fine",
            "info-seed",
            "info-tolerance",
            "fit-tolerance",
            "decimate-tolerance",
            "entropy-curve-tolerance",
            "evolve-tolerance",
            "evolve-seed",
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_readme_documents_exactly_the_long_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"--[a-z0-9][a-z0-9-]*", section))
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            option
            for p in (parser, *sub.choices.values())
            for action in p._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        assert documented <= options, documented - options
        # --output is documented as -o
        assert options - {"--help", "--version", "--output"} <= documented

    def test_readme_states_the_measured_application_count(self, apply_calls):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        words = r"`ising:10` with 60 steps of Δt = 0\.1 takes (\d+) applications"
        claims = re.findall(words.replace(" ", r"\s+"), readme)
        evolve_sequence(ising_chain(10), random_state_vector(1024, seed=1), 0.1, 60)
        assert claims == [str(len(apply_calls))]
