import json

import numpy as np
import pytest

from qdecimate import DomainError, NotHermitian, fit_pca, random_state_set
from qdecimate.fileio import (
    read_curve,
    read_model,
    read_operator,
    read_state_set,
    write_curve,
    write_model,
    write_operator,
    write_state_set,
)

from helpers import random_hermitian_oracle


class TestStateSetFile:
    def test_round_trip_exact(self, tmp_path):
        s = random_state_set(16, 3, seed=120)
        path = tmp_path / "states.json"
        write_state_set(path, s.matrix, labels=("a", "b", "c"))
        matrix, labels = read_state_set(path)
        assert np.array_equal(matrix, s.matrix)
        assert labels == ("a", "b", "c")

    def test_labels_optional(self, tmp_path):
        s = random_state_set(8, 2, seed=121)
        path = tmp_path / "states.json"
        write_state_set(path, s.matrix)
        _, labels = read_state_set(path)
        assert labels is None

    def test_awkward_floats_survive(self, tmp_path):
        matrix = np.array([[0.1 + 0.2, 1e-300], [1.0 / 3.0, -0.0]], dtype=complex).T
        path = tmp_path / "states.json"
        write_state_set(path, matrix)
        back, _ = read_state_set(path)
        assert np.array_equal(back, matrix)

    def test_rewrites_byte_identical(self, tmp_path):
        s = random_state_set(16, 3, seed=122)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_state_set(a, s.matrix)
        write_state_set(b, s.matrix)
        assert a.read_bytes() == b.read_bytes()

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(DomainError):
            read_state_set(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 4}))
        with pytest.raises(DomainError):
            read_state_set(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"dimension": 3, "states": [[[1.0, 0.0], [0.0, 0.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_state_set(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension":1,"states":[[[Infinity,0.0]]]}')
        with pytest.raises(DomainError):
            read_state_set(path)

    def test_ragged_states_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"dimension": 2, "states": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_state_set(path)

    def test_bad_pairs_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"dimension": 1, "states": [[[1.0, 0.0, 5.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_state_set(path)

    def test_label_count_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"dimension": 1, "states": [[[1.0, 0.0]]], "labels": ["x", "y"]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_state_set(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_state_set(tmp_path / "nope.json")


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        model = fit_pca(random_state_set(16, 4, seed=123))
        path = tmp_path / "model.json"
        write_model(path, model)
        back = read_model(path)
        assert back.dim == model.dim and back.count == model.count
        assert back.rank == model.rank
        assert np.array_equal(back.basis, model.basis)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.singular_values, model.singular_values)

    def test_format_version_checked(self, tmp_path):
        model = fit_pca(random_state_set(8, 2, seed=124))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_model(path)

    def test_tampered_basis_rejected(self, tmp_path):
        model = fit_pca(random_state_set(8, 2, seed=125))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        doc["basis"][0][1] = [5.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_model(path)

    def test_bad_singular_value_order_rejected(self, tmp_path):
        model = fit_pca(random_state_set(8, 2, seed=126))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        doc["singular_values"] = sorted(doc["singular_values"])
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = fit_pca(random_state_set(8, 2, seed=127))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        doc["count"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_model(path)

    @pytest.mark.parametrize("key", ["format_version", "dimension", "count"])
    @pytest.mark.parametrize("value", [True, 2.5, [2], "2"])
    def test_header_fields_must_be_integers(self, tmp_path, key, value):
        model = fit_pca(random_state_set(8, 2, seed=128))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=f"'{key}' must be an integer"):
            read_model(path)


class TestOperatorFile:
    def test_round_trip_exact(self, tmp_path):
        op = random_hermitian_oracle(6, seed=128)
        path = tmp_path / "op.json"
        write_operator(path, op)
        assert np.array_equal(read_operator(path), op)

    def test_shape_checked(self, tmp_path):
        path = tmp_path / "op.json"
        doc = {"format_version": 1, "dimension": 3, "matrix": [[[1.0, 0.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="shape"):
            read_operator(path)

    def test_non_hermitian_rejected(self, tmp_path):
        path = tmp_path / "op.json"
        write_operator(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitian):
            read_operator(path)

    @pytest.mark.parametrize("version", [99, None, "1", 1.0])
    def test_format_version_checked(self, tmp_path, version):
        path = tmp_path / "op.json"
        write_operator(path, random_hermitian_oracle(3, seed=129))
        doc = json.loads(path.read_text())
        if version is None:
            del doc["format_version"]
        else:
            doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="format_version"):
            read_operator(path)


class TestCurveFile:
    def test_round_trip_exact(self, tmp_path):
        rows = [(1, 0.0), (2, 1.0 / 3.0), (3, 0.6931471805599453)]
        path = tmp_path / "curve.csv"
        write_curve(path, rows)
        assert read_curve(path) == rows

    def test_header(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve(path, [(1, 0.5)])
        assert path.read_text().splitlines()[0] == "d,value"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("x,y\n1,0.5\n")
        with pytest.raises(DomainError):
            read_curve(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("d,value\n1,0.5,9\n")
        with pytest.raises(DomainError):
            read_curve(path)


class TestAtomicity:
    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("old contents")
        write_curve(path, [(1, 0.25)])
        assert path.read_text() == "d,value\n1,0.25\n"

    def test_no_temp_files_left(self, tmp_path):
        write_curve(tmp_path / "curve.csv", [(1, 0.25)])
        write_state_set(tmp_path / "s.json", random_state_set(8, 2, seed=129).matrix)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
