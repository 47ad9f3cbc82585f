import base64
import dataclasses
import itertools
import json
import os
import re
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import DomainError, NotHermitian, fit_pca, random_state_set, validate_state_set
from qdecimate import fileio
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

from helpers import peak_bytes, random_columns, random_hermitian_oracle, whole_document_json

# -0.0, the smallest subnormal, a mid-range subnormal and the largest finite magnitudes
AWKWARD = np.array([-0.0, 5e-324, 1.1125369292536007e-308, 1e308, -1e308, 0.1 + 0.2])


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<c16").tobytes()


def _decode(obj: dict) -> np.ndarray:
    """Independent reading of a {dtype, shape, data} array object."""
    assert obj["dtype"] == "<c16"
    return np.frombuffer(base64.b64decode(obj["data"]), dtype="<c16").reshape(obj["shape"])


def _encode(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<c16")
    return {"dtype": "<c16", "shape": list(a.shape), "data": base64.b64encode(a).decode()}


def _write_doc(path, **doc) -> None:
    """A format-2 file holding doc's fields, its ndarray values as array objects."""
    doc = {key: _encode(v) if isinstance(v, np.ndarray) else v for key, v in doc.items()}
    path.write_text(json.dumps({"format_version": 2, **doc}))


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
        matrix = np.hstack([matrix, np.stack([AWKWARD[:2] + 1j * AWKWARD[4:], AWKWARD[2:4]])])
        path = tmp_path / "states.json"
        write_state_set(path, matrix)
        back, _ = read_state_set(path)
        assert _bits(back) == _bits(matrix)

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
        _write_doc(path, dimension=4)
        with pytest.raises(DomainError, match="bad.json: missing key 'states'"):
            read_state_set(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        _write_doc(path, dimension=3, states=np.array([[1.0, 0.0]]))
        with pytest.raises(DomainError, match="dimension field 3 does not match state length 2"):
            read_state_set(path)

    def test_label_count_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        _write_doc(path, dimension=1, states=np.ones((1, 1)), labels=["x", "y"])
        with pytest.raises(DomainError, match="labels must list one string per state"):
            read_state_set(path)

    @pytest.mark.parametrize(
        "labels", [[{"a": 1}, [2], None], ["x", 2, "z"], ["x", None, "z"], ["x", True, "z"]]
    )
    def test_labels_must_be_strings(self, tmp_path, labels):
        path = tmp_path / "states.json"
        write_state_set(path, random_state_set(8, 3, seed=131).matrix, labels=("x", "y", "z"))
        doc = json.loads(path.read_text())
        doc["labels"] = labels
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="labels must list one string per state"):
            read_state_set(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_state_set(tmp_path / "nope.json")

    def test_layout_is_one_row_per_state(self, tmp_path):
        s = random_state_set(16, 3, seed=130)
        path = tmp_path / "states.json"
        write_state_set(path, s.matrix)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2 and doc["dimension"] == 16
        assert doc["states"]["shape"] == [3, 16]
        assert np.array_equal(_decode(doc["states"]), s.matrix.T)

    def test_matrix_is_the_transposed_view_of_the_rows(self, tmp_path, monkeypatch):
        # the rows fill in file order and the D x M matrix is their view, not a copy
        decoded, decode = [], fileio._decode_into

        def spy(*args):
            decoded.append(decode(*args))
            return decoded[-1]

        monkeypatch.setattr(fileio, "_decode_into", spy)
        s = random_state_set(16, 3, seed=140)
        path = tmp_path / "states.json"
        write_state_set(path, s.matrix)
        matrix, _ = read_state_set(path)
        (rows,) = decoded
        assert rows.shape == (3, 16) and rows.flags.c_contiguous
        assert matrix.flags.f_contiguous and not matrix.flags.c_contiguous
        assert matrix.T.flags.c_contiguous and np.shares_memory(matrix.T, rows)
        assert _bits(matrix) == _bits(s.matrix)

    @pytest.mark.parametrize("shape", [[16], [1, 2, 8], [1, 1, 2, 8]])
    def test_states_must_be_two_dimensional(self, tmp_path, shape):
        path = tmp_path / "states.json"
        rows = random_state_set(16, 1, seed=141).matrix.T.reshape(shape)
        _write_doc(path, dimension=16, states=rows)
        with pytest.raises(DomainError, match=r"states must have shape \[M, D\], one row per"):
            read_state_set(path)

    def test_unsupported_format_version(self, tmp_path):
        path = tmp_path / "states.json"
        write_state_set(path, random_state_set(8, 2, seed=132).matrix)
        doc = json.loads(path.read_text())
        doc["format_version"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="format_version"):
            read_state_set(path)

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(DomainError, match="nested too deeply"):
            read_state_set(path)

    def test_invalid_utf8_names_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dimension": 1, "labels": ["\xe9"]}')
        with pytest.raises(DomainError, match="latin1.json: not UTF-8"):
            read_state_set(path)


class TestArrayObject:
    """The {dtype, shape, data} field checks, run through read_state_set."""

    def _write(self, tmp_path, **changes):
        path = tmp_path / "states.json"
        write_state_set(path, random_state_set(8, 2, seed=133).matrix)
        doc = json.loads(path.read_text())
        doc["states"].update(changes)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("dtype", [">c16", "<c8", "complex128", None])
    def test_dtype(self, tmp_path, dtype):
        with pytest.raises(DomainError, match="states dtype"):
            read_state_set(self._write(tmp_path, dtype=dtype))

    @pytest.mark.parametrize("shape", [[2, -8], [True, 8], [0, 8], [2.0, 8], "2,8", None])
    def test_shape(self, tmp_path, shape):
        with pytest.raises(DomainError, match="states shape"):
            read_state_set(self._write(tmp_path, shape=shape))

    def test_huge_shape_checked_before_allocation(self, tmp_path):
        with pytest.raises(DomainError, match="shape needs"):
            read_state_set(self._write(tmp_path, shape=[10**18, 10**18]))

    @pytest.mark.parametrize("data", ["AAA$" * 8, "AAA", "é"])
    def test_bad_base64(self, tmp_path, data):
        with pytest.raises(DomainError, match="states data is not valid base64"):
            read_state_set(self._write(tmp_path, data=data))

    def test_data_must_be_a_string(self, tmp_path):
        with pytest.raises(DomainError, match="states data must be a base64 string"):
            read_state_set(self._write(tmp_path, data=5))

    def test_wrong_length(self, tmp_path):
        with pytest.raises(DomainError, match="holds 240 bytes, shape needs 256"):
            read_state_set(self._write(tmp_path, data="A" * 320))

    @pytest.mark.parametrize("pad", ["=", "==", "====", "========="])
    def test_padding_after_the_final_quad(self, tmp_path, pad):
        # 48 bytes are 64 characters with no padding; the C decoder alone
        # would read 64 characters plus any run of "=" as the same 48 bytes
        valid = _encode(random_state_set(3, 1, seed=135).matrix.T)
        assert len(valid["data"]) == 64
        path = tmp_path / "states.json"
        _write_doc(path, dimension=3, states={**valid, "data": valid["data"] + pad})
        with pytest.raises(DomainError, match="states data is not valid base64 of 64 characters"):
            read_state_set(path)

    def test_wrong_padding_at_the_canonical_length(self, tmp_path):
        # 256 bytes end in "==", so "A=" in its place decodes one byte too many
        data = _encode(random_state_set(8, 2, seed=136).matrix.T)["data"]
        assert len(data) == 344 and data.endswith("==")
        with pytest.raises(DomainError, match="holds 257 bytes, shape needs 256"):
            read_state_set(self._write(tmp_path, data=data[:-2] + "A="))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1j * np.nan])
    def test_non_finite_data(self, tmp_path, value):
        matrix = random_state_set(8, 2, seed=134).matrix.T.copy()
        matrix[1, 3] = value
        with pytest.raises(DomainError, match="non-finite"):
            read_state_set(self._write(tmp_path, **_encode(matrix)))


def _write_model_with_basis(path, model, basis) -> None:
    """model's file with its basis replaced by one no PcaModel would hold."""
    write_model(path, model)
    doc = json.loads(path.read_text())
    doc["basis"] = _encode(basis)
    path.write_text(json.dumps(doc))


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
        basis = model.basis.copy()
        basis[0, 1] = 5.0
        _write_model_with_basis(path, model, basis)
        with pytest.raises(DomainError, match="not orthonormal") as info:
            read_model(path)
        # the model's own refusal comes back as a DomainError naming the path
        assert type(info.value) is DomainError and str(info.value).startswith(f"{path}: ")

    def test_wrong_column_zero_rejected(self, tmp_path):
        model = fit_pca(random_state_set(8, 2, seed=125))
        path = tmp_path / "model.json"
        basis = model.basis.copy()
        basis[0, 0] = 0.5
        _write_model_with_basis(path, model, basis)
        with pytest.raises(DomainError, match="column 0 is not the uniform") as info:
            read_model(path)
        assert type(info.value) is DomainError and str(info.value).startswith(f"{path}: ")

    def test_overflowing_basis_rejected(self, tmp_path):
        # The Gram product of these columns holds inf - inf = nan, which a
        # plain "deviation > tol" comparison lets through.
        model = fit_pca(random_state_set(8, 2, seed=125))
        basis = model.basis.copy()
        basis[:, 1] = [1e200, 1e200, 0, 0, 0, 0, 0, 0]
        basis[:, 2] = [1e200, 1e200j, 0, 0, 0, 0, 0, 0]
        path = tmp_path / "model.json"
        _write_model_with_basis(path, model, basis)
        with pytest.raises(DomainError, match="not orthonormal"):
            read_model(path)

    def test_rewrites_byte_identical(self, tmp_path):
        model = fit_pca(random_state_set(16, 4, seed=135))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_model(a, model)
        write_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_arrays_are_base64_objects(self, tmp_path):
        model = fit_pca(random_state_set(16, 4, seed=136))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2
        assert doc["basis"]["shape"] == [16, 5] and doc["weights"]["shape"] == [5, 4]
        assert _bits(_decode(doc["basis"])) == _bits(model.basis)
        assert _bits(_decode(doc["weights"])) == _bits(model.weights)
        assert doc["singular_values"] == model.singular_values.tolist()

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

    @pytest.mark.parametrize("values", [[10**400, 1.0], [1.0, "x"], [[1.0], 0.5]])
    def test_non_numeric_singular_values_rejected(self, tmp_path, values):
        model = fit_pca(random_state_set(8, 2, seed=129))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        doc["singular_values"] = values
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="singular_values is not a numeric array"):
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


def _set_of_rank(dim, count, rank, seed):
    """count unit combinations of rank random states; rank 0 is count constant states."""
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (max(rank, 1), count)
    base = random_columns(dim, rank, seed) if rank else np.ones((dim, 1))
    states = base @ (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return validate_state_set(states / np.linalg.norm(states, axis=0))


def _narrow_model_file(path, rank=3):
    """A written model of rank 3 of 6 at D=32: its file holds 4 basis columns and weight rows."""
    model = fit_pca(_set_of_rank(32, 6, rank, seed=150))
    assert model.rank == rank
    write_model(path, model)
    return model, json.loads(path.read_text())


class TestNarrowModelFile:
    """A rank-r model's file holds its first r+1 basis columns and weight rows."""

    @pytest.mark.parametrize("rank", [0, 1, 8, 12])
    def test_round_trip_exact(self, tmp_path, rank):
        model = fit_pca(_set_of_rank(64, 12, rank, seed=151))
        assert model.rank == rank
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        width = min(rank + 1, 13)
        assert doc["basis"]["shape"] == [64, width] and doc["weights"]["shape"] == [width, 12]
        assert _bits(_decode(doc["basis"])) == _bits(model.basis[:, :width])
        assert _bits(_decode(doc["weights"])) == _bits(model.weights[:width])
        back = read_model(path)
        for name in ("basis", "singular_values", "weights"):
            assert _bits(getattr(back, name)) == _bits(getattr(model, name)), name

    def test_full_width_file_reads_its_own_columns(self, tmp_path):
        # a file written before models were narrowed: its columns past the
        # rank are read as they are, not rebuilt
        model, doc = _narrow_model_file(tmp_path / "model.json")
        basis = np.array(model.basis)
        basis[:, 4:] = basis[:, [6, 4, 5]] * np.array([1j, -1.0, 1.0])
        path = tmp_path / "full.json"
        _write_doc(
            path,
            dimension=32,
            count=6,
            singular_values=doc["singular_values"],
            basis=basis,
            weights=np.array(model.weights),
        )
        back = read_model(path)
        assert _bits(back.basis) == _bits(basis)
        assert _bits(back.weights) == _bits(model.weights)

    def test_wider_file_keeps_its_columns_and_rebuilds_the_rest(self, tmp_path):
        model, doc = _narrow_model_file(tmp_path / "model.json")
        path = tmp_path / "wide.json"
        _write_doc(
            path,
            dimension=32,
            count=6,
            singular_values=doc["singular_values"],
            basis=np.array(model.basis[:, :6]),
            weights=np.array(model.weights[:6]),
        )
        back = read_model(path)
        assert _bits(back.basis[:, :6]) == _bits(model.basis[:, :6])
        assert np.abs(back.basis @ back.weights - model.basis @ model.weights).max() <= 1e-15

    @pytest.mark.parametrize(
        "basis_columns, weight_rows, message",
        [
            (4, 7, "are not D x w and w x M"),
            (7, 4, "are not D x w and w x M"),
            (3, 3, "3 basis columns, fewer than rank\\+1 = 4"),
            (8, 8, "are not D x w and w x M with w <= M\\+1 = 7"),
        ],
        ids=["narrow-basis-full-weights", "full-basis-narrow-weights", "below-rank", "too-wide"],
    )
    def test_widths_refused(self, tmp_path, basis_columns, weight_rows, message):
        model, doc = _narrow_model_file(tmp_path / "model.json")
        wide = np.concatenate([model.basis, model.basis[:, 1:2]], axis=1)
        doc["basis"] = _encode(wide[:, :basis_columns])
        doc["weights"] = _encode(np.concatenate([model.weights, model.weights[:1]])[:weight_rows])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=message) as info:
            read_model(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("kind", ["tampered", "overflowing"])
    def test_columns_that_are_not_orthonormal_refused(self, tmp_path, kind):
        # the narrow twins of test_tampered_basis_rejected and
        # test_overflowing_basis_rejected: nothing is rebuilt from such columns
        model, doc = _narrow_model_file(tmp_path / "model.json")
        basis = np.array(model.basis[:, :4])
        if kind == "tampered":
            basis[0, 1] = 5.0
        else:
            basis[:, 1:3] = 0.0
            basis[:2, 1] = [1e200, 1e200]
            basis[:2, 2] = [1e200, 1e200j]
        doc["basis"] = _encode(basis)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="not orthonormal") as info:
            read_model(path)
        assert type(info.value) is DomainError and str(info.value).startswith(f"{path}: ")


class TestOperatorFile:
    def test_round_trip_exact(self, tmp_path):
        op = random_hermitian_oracle(6, seed=128)
        path = tmp_path / "op.json"
        write_operator(path, op)
        assert np.array_equal(read_operator(path), op)

    def test_awkward_values_bit_exact(self, tmp_path):
        op = np.diag(AWKWARD).astype(complex)
        op[1, 2], op[2, 1] = 5e-324 - 1e-310j, 5e-324 + 1e-310j
        path = tmp_path / "op.json"
        write_operator(path, op)
        back = read_operator(path)
        assert _bits(back) == _bits(op) and back.flags.writeable

    def test_rewrites_byte_identical(self, tmp_path):
        op = random_hermitian_oracle(5, seed=138)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_operator(a, op)
        write_operator(b, op)
        assert a.read_bytes() == b.read_bytes()

    def test_shape_checked(self, tmp_path):
        path = tmp_path / "op.json"
        _write_doc(path, dimension=3, matrix=np.ones((1, 1)))
        with pytest.raises(DomainError, match=r"matrix shape \(1, 1\) != \(3, 3\)"):
            read_operator(path)

    def test_non_hermitian_rejected(self, tmp_path):
        path = tmp_path / "op.json"
        _write_doc(path, dimension=2, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
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


@pytest.mark.parametrize(
    "kind, form, message",
    [
        ("model", "version 1", r"unsupported format_version 1 \(only 2 is read\)"),
        ("operator", "pair list", "matrix must be a {dtype, shape, data} object"),
        ("states", "no version", "missing key 'format_version'"),
    ],
)
def test_format_1_refused(tmp_path, kind, form, message):
    """Format 1 (version 1, [re, im] pair lists, state sets with no version) is not read."""
    path = tmp_path / f"{kind}.json"
    if kind == "states":
        write_state_set(path, random_state_set(8, 2, seed=140).matrix)
    elif kind == "model":
        write_model(path, fit_pca(random_state_set(8, 2, seed=141)))
    else:
        write_operator(path, random_hermitian_oracle(3, seed=142))
    doc = json.loads(path.read_text())
    if form == "version 1":
        doc["format_version"] = 1
    elif form == "pair list":
        doc["matrix"] = [[[z.real, z.imag] for z in row] for row in _decode(doc["matrix"]).tolist()]
    else:
        del doc["format_version"]
    path.write_text(json.dumps(doc))
    reader = {"states": read_state_set, "model": read_model, "operator": read_operator}[kind]
    with pytest.raises(DomainError, match=message):
        reader(path)


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

    @pytest.mark.parametrize("row", ["x,0.5", "1,abc", "1.5,0.5", "1", ""])
    def test_non_numeric_row_rejected(self, tmp_path, row):
        path = tmp_path / "curve.csv"
        path.write_text(f"d,value\n1,0.5\n{row}\n")
        with pytest.raises(DomainError, match="malformed row 3"):
            read_curve(path)

    @pytest.mark.parametrize(
        "ds, message",
        [
            ([3, 1, 1], "d must be an integer above 3, got 1"),
            ([1, 2, 2], "d must be an integer above 2, got 2"),
            ([0, 1], "d must be an integer above 0, got 0"),
            ([-1], "d must be an integer above 0, got -1"),
            ([True, 2], "d must be an integer above 0, got True"),
            ([1, 2.0], "d must be an integer above 1, got 2.0"),
            ([1, "2"], "d must be an integer above 1, got '2'"),
        ],
        ids=["decreasing", "repeated", "zero", "negative", "bool", "float", "text"],
    )
    def test_writer_refuses_d_values_that_do_not_increase_from_1(self, tmp_path, ds, message):
        path = tmp_path / "curve.csv"
        with pytest.raises(DomainError, match=f"^{re.escape(f'{path}: {message}')}$"):
            write_curve(path, [(d, 0.5) for d in ds])
        assert not path.exists()

    def test_writer_takes_numpy_integers(self, tmp_path):
        write_curve(tmp_path / "a.csv", [(d, 0.5**d) for d in (1, 2, 5)])
        write_curve(tmp_path / "b.csv", [(np.int64(d), 0.5**d) for d in (1, 2, 5)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("3,0.1\n1,0.2\n1,0.3", "row 3: d must exceed 3, got 1"),
            ("1,0.1\n2,0.2\n2,0.3", "row 4: d must exceed 2, got 2"),
            ("0,0.1", "row 2: d must exceed 0, got 0"),
            ("1,0.1\n-5,0.2", "row 3: d must exceed 1, got -5"),
        ],
        ids=["decreasing", "repeated", "zero", "negative"],
    )
    def test_reader_refuses_a_d_that_does_not_exceed_the_one_before(self, tmp_path, rows, message):
        path = tmp_path / "curve.csv"
        path.write_text(f"d,value\n{rows}\n")
        with pytest.raises(DomainError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_curve(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"d,value\n1,\xff\n")
        with pytest.raises(DomainError, match="curve.csv: not UTF-8"):
            read_curve(path)

    def test_field_over_the_csv_limit_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("d,value\n2," + "1" * 200000 + "\n")
        with pytest.raises(DomainError, match=r"curve.csv: not valid CSV \(field larger than"):
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

    def test_error_inside_the_writer_propagates_and_leaves_nothing(self, tmp_path, monkeypatch):
        # not an OSError: re-raised as it is, not renamed to the target path
        failure = RuntimeError("encoder failed")

        def fail(*args):
            raise failure

        monkeypatch.setattr(fileio, "_write_array", fail)
        with pytest.raises(RuntimeError) as caught:
            write_state_set(tmp_path / "s.json", random_state_set(8, 2, seed=129).matrix)
        assert caught.value is failure
        assert not list(tmp_path.iterdir())


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        model = fit_pca(random_state_set(8, 3, seed=260))
        writers = {
            "states.json": lambda p: write_state_set(p, random_state_set(8, 3, seed=261).matrix),
            "model.json": lambda p: write_model(p, model),
            "operator.json": lambda p: write_operator(p, np.eye(2, dtype=complex)),
            "curve.csv": lambda p: write_curve(p, [(1, 0.5)]),
        }
        old = os.umask(umask)
        try:
            for name, write in writers.items():
                write(tmp_path / name)
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)
        for name in writers:
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def _row_counts(row_bytes: int) -> list[int]:
    """Row counts around the writer's block size, where streamed pieces join."""
    step = fileio._block_rows(row_bytes)
    return sorted({1, 2, 3, step - 1, step, step + 1, 2 * step + 2})


# (rows, columns) of the stored array: narrow rows (many per block), rows of
# 64 KiB (a few per block) and one row longer than a whole streamed piece
STREAM_SHAPES = [
    (rows, cols) for cols in (5, 4096) for rows in _row_counts(16 * cols)
] + [(1, 2**17)]


def _complex(shape, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStreamedWriter:
    """The streaming writers give the bytes of one json.dumps of the document."""

    @pytest.mark.parametrize("rows, cols", STREAM_SHAPES)
    def test_operator(self, tmp_path, rows, cols):
        # write_operator takes square matrices only (test_square_operator);
        # an operator document of any rows x cols array streams the same way
        matrix = _complex((rows, cols), seed=rows + cols)
        doc = {"format_version": 2, "dimension": rows, "matrix": matrix}
        fileio._dump_json(tmp_path / "op.json", doc)
        assert (tmp_path / "op.json").read_bytes() == whole_document_json(doc)

    # fileio._block_rows(16 * n) is 222 at n = 221 (one block), 219 at n = 222
    # and 223 (a second block of 3 and 4 rows) and 156 at n = 314 (two blocks
    # and 2 rows)
    @pytest.mark.parametrize("n", [1, 2, 3, 221, 222, 223, 314])
    def test_square_operator(self, tmp_path, n):
        matrix = random_hermitian_oracle(n, seed=n)
        write_operator(tmp_path / "op.json", matrix)
        expected = whole_document_json({"format_version": 2, "dimension": n, "matrix": matrix})
        assert (tmp_path / "op.json").read_bytes() == expected

    @pytest.mark.parametrize("rows, cols", STREAM_SHAPES)
    def test_state_set_from_its_transpose(self, tmp_path, rows, cols):
        # rows states of length cols: the writer streams blocks of matrix.T
        matrix = _complex((cols, rows), seed=rows * cols)
        write_state_set(tmp_path / "s.json", matrix)
        expected = whole_document_json({"format_version": 2, "dimension": cols, "states": matrix.T})
        assert (tmp_path / "s.json").read_bytes() == expected

    @pytest.mark.parametrize("rows, cols", STREAM_SHAPES)
    def test_model(self, tmp_path, rows, cols):
        # write_model takes valid models only (test_fitted_model); a model
        # document of any rows x cols basis streams the same way
        basis, weights = _complex((rows, cols), seed=1), _complex((3, 2), seed=2)
        doc = {
            "format_version": 2,
            "dimension": rows,
            "count": 2,
            "singular_values": [2.5, 0.1 + 0.2],
            "basis": basis,
            "weights": weights,
        }
        fileio._dump_json(tmp_path / "m.json", doc)
        assert (tmp_path / "m.json").read_bytes() == whole_document_json(doc)

    def test_fitted_model(self, tmp_path):
        # fileio._block_rows(16 * 4) is 12288: a basis of 12289 rows of 4
        # columns streams in two blocks, the second of one row
        model = fit_pca(random_state_set(12289, 3, seed=3))
        write_model(tmp_path / "m.json", model)
        doc = {
            "format_version": 2,
            "dimension": 12289,
            "count": 3,
            "singular_values": model.singular_values.tolist(),
            "basis": model.basis,
            "weights": model.weights,
        }
        assert (tmp_path / "m.json").read_bytes() == whole_document_json(doc)

    @pytest.mark.parametrize(
        "labels",
        [
            None,
            ("a", "b", "c"),
            ("t=0.1", "ψ₀ ünïcode", "日本"),
            ('quote "q"', "back\\slash", "new\nline\ttab"),
            ("", "\x00", "\U0001f600"),
        ],
    )
    def test_state_set_labels(self, tmp_path, labels):
        matrix = _complex((16, 3), seed=7)
        write_state_set(tmp_path / "s.json", matrix, labels=labels)
        doc = {"format_version": 2, "dimension": 16, "states": matrix.T}
        if labels is not None:
            doc["labels"] = list(labels)
        assert (tmp_path / "s.json").read_bytes() == whole_document_json(doc)
        assert read_state_set(tmp_path / "s.json")[1] == labels

    @pytest.mark.parametrize(
        "matrix",
        [
            np.add.outer(np.arange(12.0), np.arange(12.0)),
            np.asfortranarray(random_hermitian_oracle(40, seed=8)),
            random_hermitian_oracle(60, seed=9)[::3, ::3],
            random_hermitian_oracle(9, seed=10).astype(">c16"),
        ],
        ids=["real", "fortran", "strided", "big-endian"],
    )
    def test_any_layout_or_dtype(self, tmp_path, matrix):
        write_operator(tmp_path / "op.json", matrix)
        expected = whole_document_json(
            {"format_version": 2, "dimension": matrix.shape[0], "matrix": matrix}
        )
        assert (tmp_path / "op.json").read_bytes() == expected


_THREE_STATES = random_state_set(16, 3, seed=1).matrix


class TestWriterRefusals:
    """A writer refuses what its reader would refuse, before it makes any file."""

    @pytest.mark.parametrize(
        "matrix, labels",
        [
            (_THREE_STATES, ("a",)),
            (_THREE_STATES, ("a", "b", "c", "d")),
            (_THREE_STATES, (1, 2, 3)),
            (_THREE_STATES, "abc"),
            (_THREE_STATES[:, 0], None),
            (np.zeros((2, 16, 3), dtype=complex), None),
            (np.where(np.arange(3) == 1, np.nan, _THREE_STATES), None),
            (np.where(np.arange(3) == 2, np.inf, _THREE_STATES), None),
            (np.zeros((16, 0), dtype=complex), None),
        ],
        ids=[
            "too-few-labels",
            "too-many-labels",
            "int-labels",
            "bare-str",
            "1-d",
            "3-d",
            "nan",
            "inf",
            "empty",
        ],
    )
    def test_state_set(self, tmp_path, matrix, labels):
        path = tmp_path / "s.json"
        with pytest.raises(DomainError, match=str(path)):
            write_state_set(path, matrix, labels=labels)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((2, 3)),
            np.zeros((3, 2)),
            np.zeros(4),
            np.zeros((2, 2, 2)),
            np.zeros((0, 0)),
            np.diag([1.0, np.inf]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
        ],
        ids=["2x3", "3x2", "1-d", "3-d", "empty", "inf", "non-hermitian"],
    )
    def test_operator(self, tmp_path, matrix):
        path = tmp_path / "op.json"
        with pytest.raises(DomainError, match=str(path)):
            write_operator(path, matrix)
        assert list(tmp_path.iterdir()) == []


class TestWriteMemory:
    """A writer holds one streamed block, not copies of the whole base64 text."""

    @pytest.mark.parametrize("kind", ["states", "model", "operator"])
    def test_peak_of_a_12_mib_array(self, tmp_path, kind):
        # each array is 12.5-12.6 MiB of complex128
        if kind == "states":
            matrix = _complex((2**12, 200), seed=11)
            call = lambda: write_state_set(tmp_path / "s.json", matrix)  # noqa: E731
        elif kind == "model":
            model = fit_pca(random_state_set(2**12, 200, seed=12))
            call = lambda: write_model(tmp_path / "m.json", model)  # noqa: E731
        else:
            matrix = random_hermitian_oracle(905, seed=14)
            call = lambda: write_operator(tmp_path / "op.json", matrix)  # noqa: E731
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 4 * 2**20, f"{kind}: peak {peak / 2**20:.1f} MiB"


# two finite complex128 values: 32 bytes, 44 base64 characters ending in "="
_PAYLOAD = base64.b64encode(np.array([1.0 + 2.0j, -0.5 + 0.25j]).tobytes()).decode()
_EDIT_CHARS = list("AQw+/=-_ \n\r\t\x00é") + ["Ａ", " "]


def _decode_in_memory(data: str) -> bytes:
    obj = {"dtype": "<c16", "shape": [2], "data": data}
    shape, text = fileio._array_text(obj, "x", "f.json")
    return fileio._decode_into(np.empty(shape, dtype="<c16"), text, "x", "f.json").tobytes()


def _decode_through_a_file(data: str, path, shape=(1, 2)) -> bytes:
    """data as the base64 of a one-state set, read by read_state_set in pieces of 64 characters.

    A string json must escape (a quote, a backslash, a control character)
    reaches the decoder through json; any other stays in the file as raw
    bytes, UTF-8 for a non-ASCII character.
    """
    text = json.dumps(data, ensure_ascii=False)
    doc = f'{{"dimension":{shape[1]},"format_version":2,"states":{{"data":{text},'
    path.write_bytes(f'{doc}"dtype":"<c16","shape":{list(shape)}}}}}'.encode())
    with mock.patch.object(fileio, "_PIECE_CHARS", 64):
        return read_state_set(path)[0].tobytes()


def _decoders_agree(data: str, decode, field: str = "x") -> bool:
    """decode accepts data exactly when strict b64decode does, with equal bytes.

    A text of any length but the 44 characters of 32 bytes must also be
    canonical, 4 * ceil(n / 3) characters for the n bytes it holds, or it
    is not valid base64: that length check runs before anything is decoded.
    """
    try:
        expected = base64.b64decode(data, validate=True)
    except ValueError:
        expected = None
    if expected is not None and len(data) not in (len(_PAYLOAD), 4 * -(-len(expected) // 3)):
        expected = None
    try:
        got = decode(data)
    except DomainError as exc:
        message = str(exc)
        if expected is None:
            return f"{field} data is not valid base64" in message
        if len(expected) != 32:
            return f"holds {len(expected)} bytes" in message
        return "non-finite" in message and not np.isfinite(np.frombuffer(expected, "<c16")).all()
    return got == expected


def _short_strings() -> list[str]:
    alphabet = ["A", "Q", "/", "=", "-", "_", " ", "\n", "é"]
    strings = [
        "".join(chars)
        for length in range(6)
        for chars in itertools.product(alphabet, repeat=length)
    ]
    assert len(strings) == 66430
    return strings


def _quad_pairs() -> list[str]:
    # padding in the middle, extra padding, whitespace, URL-safe and non-ASCII quads
    quads = ["AAAA", "QQ==", "AAA=", "A===", "====", "AA=A", "=AAA", " AAA", "AA\nA"]
    quads += ["-AAA", "AA_A", "AAé=", "AA==\n", "AA\r\n"]
    pairs = [a + b for a, b in itertools.product(quads, repeat=2)]
    # bare, and as the last two quads of a payload of the canonical length
    return pairs + [_PAYLOAD[:36] + pair for pair in pairs if len(pair) == 8]


_PAYLOAD_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(0, len(_PAYLOAD)),
        st.sampled_from(_EDIT_CHARS),
    ),
    max_size=3,
)


class TestBase64Decoder:
    """Differential test of the strict C decoder against base64.b64decode(validate=True)."""

    def test_short_strings_exhaustive(self):
        assert [s for s in _short_strings() if not _decoders_agree(s, _decode_in_memory)] == []

    def test_quad_pairs(self):
        assert [s for s in _quad_pairs() if not _decoders_agree(s, _decode_in_memory)] == []

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(edits=_PAYLOAD_EDITS)
    def test_edited_payloads(self, edits):
        data = _edit(_PAYLOAD, edits)
        assert _decoders_agree(data, _decode_in_memory), repr(data)


class TestBase64DecoderThroughAFile:
    """The same cases through a whole file and read_state_set, in pieces of 64 characters."""

    @pytest.fixture(scope="class")
    def decode(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("decoder") / "states.json"
        return lambda data: _decode_through_a_file(data, path)

    def test_short_strings_exhaustive(self, decode):
        # a file write and read each: the strings of up to 4 characters
        strings = [s for s in _short_strings() if len(s) <= 4]
        assert len(strings) == 7381
        assert [s for s in strings if not _decoders_agree(s, decode, "states")] == []

    def test_quad_pairs(self, decode):
        assert [s for s in _quad_pairs() if not _decoders_agree(s, decode, "states")] == []

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(edits=_PAYLOAD_EDITS)
    def test_edited_payloads(self, decode, edits):
        data = _edit(_PAYLOAD, edits)
        assert _decoders_agree(data, decode, "states"), repr(data)


def _edit(data: str, edits) -> str:
    for op, at, char in edits:
        at = min(at, len(data))
        if op == "insert":
            data = data[:at] + char + data[at:]
        elif op == "replace":
            data = data[:at] + char + data[at + 1 :]
        else:
            data = data[:at] + data[at + 1 :]
    return data


# 20 finite values: 320 bytes, 428 characters ending in "=", so six pieces of
# 64 characters and a last one of 44
_LONG = base64.b64encode(_complex((1, 20), seed=15).tobytes()).decode()
_BOUNDARIES = [at + step for at in range(64, 428, 64) for step in (-2, -1, 0, 1)]


class TestPiecewiseDecoder:
    """Pieces of 64 characters accept exactly what one strict decode of the whole text does."""

    def _agrees(self, data: str, path) -> bool:
        try:
            expected = base64.b64decode(data, validate=True)
        except ValueError:
            expected = None
        accepted = (
            expected is not None
            and len(data) == len(_LONG)
            and len(expected) == 320
            and np.isfinite(np.frombuffer(expected, "<c16")).all()
        )
        try:
            got = _decode_through_a_file(data, path, shape=(1, 20))
        except DomainError as exc:
            return not accepted and "states data" in str(exc)
        return accepted and got == expected

    def test_unedited(self, tmp_path):
        assert len(_LONG) == 428 and self._agrees(_LONG, tmp_path / "s.json")

    @pytest.mark.parametrize(
        "data",
        [
            # padding that ends a piece, followed by more quads
            _LONG[:60] + "AA==" + _LONG[64:],
            _LONG[:60] + "AAA=" + _LONG[64:],
            # a run of "=" after a complete quad, from a piece boundary to the end
            _LONG[:64] + "=" * (428 - 64),
            _LONG[:384] + "=" * 44,
            # the last piece alone: padding where the canonical text has data
            _LONG[:424] + "AA==",
            # a byte lost to padding in a piece and one gained at the end
            _LONG[:60] + "AAA=" + _LONG[64:427] + "A",
        ],
    )
    def test_padding_across_pieces(self, tmp_path, data):
        assert len(data) == len(_LONG)
        assert self._agrees(data, tmp_path / "s.json")

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "replace", "delete"]),
                st.one_of(st.sampled_from(_BOUNDARIES), st.integers(0, len(_LONG))),
                st.sampled_from(list("A=/-\n ")),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_edits_near_piece_boundaries(self, tmp_path_factory, edits):
        path = tmp_path_factory.mktemp("pieces") / "s.json"
        data = _edit(_LONG, edits)
        assert self._agrees(data, path), repr(data)


def _oracle(path) -> tuple[dict, dict]:
    """A file's document by json.load, and each array object decoded by strict b64decode."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    arrays = {
        key: np.frombuffer(base64.b64decode(value["data"], validate=True), "<c16").reshape(
            value["shape"]
        )
        for key, value in doc.items()
        if isinstance(value, dict)
    }
    return doc, arrays


_STALE = {"data": "QUFB" * 4, "dtype": "<c16", "shape": [1]}


def _hand_made(doc: dict, form: str) -> str:
    """The JSON text of doc (array objects as dicts) as a person might write it."""
    text = json.dumps(doc)
    if form == "spaced":
        return json.dumps(doc, indent=2, separators=(" ,\n", " :\t"))
    if form == "wide-gap":
        # too wide a gap after the key for the reader to leave the text in the file
        return text.replace('"data": ', '"data"' + " " * 100 + ": ")
    if form == "reordered":
        flip = lambda d: dict(reversed(d.items()))  # noqa: E731
        return json.dumps(flip({k: flip(v) if isinstance(v, dict) else v for k, v in doc.items()}))
    if form in ("slash-escape", "unicode-escape"):
        old, new = ("/", "\\/") if form == "slash-escape" else ("A", "\\u0041")
        for value in doc.values():
            if isinstance(value, dict):
                text = text.replace(value["data"], value["data"].replace(old, new))
        return text
    if form == "duplicate-keys":
        # an earlier value for every key, and an earlier "data" in every array object
        stale = {k: dict(_STALE) if isinstance(v, dict) else 0 for k, v in doc.items()}
        text = text.replace('{"data": ', '{"data": "QUFB", "data": ')
        return json.dumps(stale)[:-1] + ", " + text[1:]
    assert form == "plain"
    return text


FORMS = ["plain", "spaced", "wide-gap", "reordered", "slash-escape", "unicode-escape"]
FORMS += ["duplicate-keys"]


@pytest.fixture
def parsed_sizes(monkeypatch) -> list[int]:
    """The length of every text json.loads parses; a json.load of a whole file fails."""
    sizes = []
    loads = json.loads

    def recorded(text, *args, **kwargs):
        sizes.append(len(text))
        return loads(text, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("json.load of a whole file")

    monkeypatch.setattr(json, "loads", recorded)
    monkeypatch.setattr(json, "load", refused)
    return sizes


class TestReaderEquivalence:
    """Hand-made files read to the arrays a json.load of the whole text gives, bit for bit."""

    @pytest.fixture(params=[None, 64], ids=["default-pieces", "64-char-pieces"])
    def pieces(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(fileio, "_PIECE_CHARS", request.param)

    @pytest.mark.parametrize("form", FORMS)
    def test_state_set(self, tmp_path, pieces, form):
        matrix = _complex((13, 5), seed=16)
        labels = ['"data":"AAAA"', "a\\/b", "é", "", '{"data": "QUFB"}']
        doc = {"format_version": 2, "dimension": 13, "states": _encode(matrix.T), "labels": labels}
        path = tmp_path / "s.json"
        path.write_text(_hand_made(doc, form), encoding="utf-8")
        want, arrays = _oracle(path)
        got, got_labels = read_state_set(path)
        assert _bits(got) == _bits(arrays["states"].T) == _bits(matrix)
        assert got_labels == tuple(want["labels"]) == tuple(labels)

    @pytest.mark.parametrize("form", FORMS)
    def test_model(self, tmp_path, pieces, form):
        model = fit_pca(random_state_set(16, 6, seed=17))
        doc = {
            "format_version": 2,
            "dimension": 16,
            "count": 6,
            "singular_values": model.singular_values.tolist(),
            "basis": _encode(model.basis),
            "weights": _encode(model.weights),
        }
        path = tmp_path / "m.json"
        path.write_text(_hand_made(doc, form))
        _, arrays = _oracle(path)
        back = read_model(path)
        assert _bits(back.basis) == _bits(arrays["basis"]) == _bits(model.basis)
        assert _bits(back.weights) == _bits(arrays["weights"]) == _bits(model.weights)

    @pytest.mark.parametrize("form", FORMS)
    def test_operator(self, tmp_path, pieces, form):
        op = random_hermitian_oracle(7, seed=18)
        path = tmp_path / "op.json"
        doc = {"format_version": 2, "dimension": 7, "matrix": _encode(op)}
        path.write_text(_hand_made(doc, form))
        _, arrays = _oracle(path)
        assert _bits(read_operator(path)) == _bits(arrays["matrix"]) == _bits(op)

    @pytest.mark.parametrize("shift", range(4))
    def test_escapes_across_64_char_pieces(self, tmp_path, monkeypatch, parsed_sizes, shift):
        # every other byte of each label's text starts an escape pair; the
        # scanner must still find where the states' text starts and cut it
        labels = ("x" * shift + '\\"' * 50, '"\\' * 50, "\\" * 3 + "\n" * 40)
        path = tmp_path / "s.json"
        matrix = _complex((40, 3), seed=20)
        write_state_set(path, matrix, labels=labels)
        monkeypatch.setattr(fileio, "_PIECE_CHARS", 64)
        assert read_state_set(path)[1] == labels
        assert parsed_sizes[0] < matrix.nbytes

    def test_numbers_like_a_placeholder(self, tmp_path):
        # a cut text stands in the skeleton as a number; no number of the file may match it
        model = fit_pca(random_state_set(8, 6, seed=21))
        sv = np.array([1.5, 1.11111111111, 1.1, 0.5, 0.11, 0.1])
        path = tmp_path / "m.json"
        write_model(path, dataclasses.replace(model, singular_values=sv))
        back = read_model(path)
        assert np.array_equal(back.singular_values, sv)
        assert _bits(back.basis) == _bits(model.basis)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(labels=st.lists(st.text(max_size=40), min_size=3, max_size=3))
    def test_any_labels_in_64_char_pieces(self, tmp_path_factory, labels):
        # quotes, backslashes and escapes fall across the scanner's block boundaries
        path = tmp_path_factory.mktemp("labels") / "s.json"
        matrix = _complex((4, 3), seed=19)
        write_state_set(path, matrix, labels=tuple(labels))
        with mock.patch.object(fileio, "_PIECE_CHARS", 64):
            got, got_labels = read_state_set(path)
        assert _bits(got) == _bits(matrix) and got_labels == tuple(labels)


class TestUnreadText:
    """A "data" text that no array reads is still checked, as json.load checked it."""

    @pytest.mark.parametrize("bad", [b"\x01", b"\t", b"\xe9A", b"\xc3"])
    @pytest.mark.parametrize("where", ["duplicate-key", "extra-key"])
    def test_refused(self, tmp_path, bad, where):
        path = tmp_path / "s.json"
        write_state_set(path, random_state_set(8, 2, seed=137).matrix)
        unread = b'{"data":"QUFB' + bad + b'QUFB","dtype":"<c16","shape":[1]}'
        text = path.read_bytes()
        if where == "duplicate-key":
            path.write_bytes(b'{"states":' + unread + b"," + text[1:])
        else:
            path.write_bytes(b'{"notes":' + unread + b"," + text[1:])
        with pytest.raises(ValueError):
            json.loads(path.read_bytes().decode("utf-8"))
        with pytest.raises(DomainError, match="not (valid JSON|UTF-8 text)"):
            read_state_set(path)

    @pytest.mark.parametrize("after", [b"5", b".5", b"e5", b"0.1"])
    def test_no_number_right_after_the_text(self, tmp_path, after):
        path = tmp_path / "s.json"
        write_state_set(path, random_state_set(8, 2, seed=139).matrix)
        unread = b'{"data":"QUFB"' + after + b',"dtype":"<c16","shape":[1]}'
        path.write_bytes(b'{"notes":' + unread + b"," + path.read_bytes()[1:])
        with pytest.raises(ValueError):
            json.loads(path.read_bytes())
        with pytest.raises(DomainError, match="not valid JSON"):
            read_state_set(path)

    @pytest.mark.parametrize("where", ["duplicate-key", "extra-key"])
    def test_valid_text_accepted(self, tmp_path, where):
        matrix = random_state_set(8, 2, seed=138).matrix
        path = tmp_path / "s.json"
        write_state_set(path, matrix)
        key = b"states" if where == "duplicate-key" else b"notes"
        unread = b'{"data":"not base64 \xc3\xa9","dtype":"<c16","shape":[1]}'
        path.write_bytes(b'{"' + key + b'":' + unread + b"," + path.read_bytes()[1:])
        assert _bits(read_state_set(path)[0]) == _bits(matrix)


def _large_files(root) -> dict:
    """A state set, a model and an operator, each of a 12.5-12.6 MiB array."""
    states = _complex((2**12, 200), seed=11)
    model = fit_pca(random_state_set(2**12, 200, seed=12))
    operator = random_hermitian_oracle(905, seed=14)
    write_state_set(root / "s.json", states)
    write_model(root / "m.json", model)
    write_operator(root / "op.json", operator)
    return {
        "states": (read_state_set, root / "s.json", states.nbytes),
        "model": (read_model, root / "m.json", model.basis.nbytes + model.weights.nbytes),
        "operator": (read_operator, root / "op.json", operator.nbytes),
    }


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    return _large_files(tmp_path_factory.mktemp("large"))


class TestReadMemory:
    """A reader holds its decoded arrays and one piece of text, never the file's text."""

    @pytest.mark.parametrize("kind", ["states", "model", "operator"])
    def test_peak_of_a_12_mib_array(self, large_files, kind):
        read, path, decoded = large_files[kind]
        peak = peak_bytes(lambda: read(path))
        extra = peak - decoded
        assert extra < 4 * 2**20, f"{kind}: {extra / 2**20:.1f} MiB beyond the arrays"

    @pytest.mark.parametrize("kind", ["states", "model", "operator"])
    def test_a_header_the_arrays_do_not_fit_is_refused_before_any_is_allocated(
        self, large_files, tmp_path, kind
    ):
        # the dimension field is one short: the refusal holds pieces of text, no array
        message = {
            "states": "dimension field 4095 does not match state length 4096",
            "model": r"header \(D, M\) = \(4095, 200\) does not match the arrays",
            "operator": r"matrix shape \(905, 905\) != \(904, 904\)",
        }[kind]
        read, path, _ = large_files[kind]
        text = path.read_bytes()
        dim = int(re.search(rb'"dimension":([0-9]+)', text)[1])
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.replace(b'"dimension":%d' % dim, b'"dimension":%d' % (dim - 1), 1))
        del text

        def refuse():
            with pytest.raises(DomainError, match=message):
                read(bad)

        peak = peak_bytes(refuse)
        assert peak < 3 * 2**20, f"{kind}: {peak / 2**20:.1f} MiB"

    def test_peak_of_a_narrow_model(self, tmp_path):
        # rank 150 of 200 at D=2^12: the file's 151 columns are 9.4 MiB, and
        # are decoded and spread, in 13 blocks of rows, inside the final
        # 12.6 MiB basis, not copied
        model = fit_pca(_set_of_rank(2**12, 200, 150, seed=152))
        path = tmp_path / "m.json"
        write_model(path, model)
        back = []
        peak = peak_bytes(lambda: back.append(read_model(path)))
        extra = peak - model.basis.nbytes - model.weights.nbytes
        assert extra < 4 * 2**20, f"{extra / 2**20:.1f} MiB beyond the arrays"
        assert _bits(back[0].basis) == _bits(model.basis)

    def test_json_parses_only_the_skeleton(self, large_files, parsed_sizes):
        for read, path, _ in large_files.values():
            read(path)
        assert len(parsed_sizes) == 3 and max(parsed_sizes) <= 64 * 2**10

    def test_key_across_64_char_pieces(self, tmp_path, monkeypatch, parsed_sizes):
        # wherever a block boundary falls in '"data":"', the text stays in the file
        monkeypatch.setattr(fileio, "_PIECE_CHARS", 64)
        matrix = _complex((16, 2), seed=22)
        for shift in range(64):
            write_state_set(tmp_path / "s.json", matrix, labels=("x" * shift, ""))
            assert _bits(read_state_set(tmp_path / "s.json")[0]) == _bits(matrix)
        assert max(parsed_sizes) < 4 * -(-matrix.nbytes // 3)


@pytest.fixture(scope="module")
def cut_files(tmp_path_factory) -> dict:
    """A 16.7 MiB state file (D=2^12, M=200, labelled) cut in a label or halfway."""
    root = tmp_path_factory.mktemp("cut")
    labels = tuple(f"state {mu}" for mu in range(200))
    write_state_set(root / "s.json", random_state_set(2**12, 200, seed=1).matrix, labels=labels)
    text = (root / "s.json").read_bytes()
    data = text.index(b'"data":"') + len(b'"data":"')
    escaped = text[:data] + text[data:].replace(b"/", b"\\/", 1)
    cuts = {
        "data": text[: len(text) // 2],
        "escaped-data": escaped[: len(escaped) // 2],
        "label": text[: text.index(b"state 100") + 3],
    }
    for name, cut in cuts.items():
        (root / f"{name}.json").write_bytes(cut)
    return {name: root / f"{name}.json" for name in cuts}


class TestTruncatedRead:
    """A file cut short is refused without holding the text that was read."""

    MESSAGES = {
        "data": "Expecting value on line 1",
        "escaped-data": "Expecting value on line 1",
        "label": "Unterminated string starting at on line 1",
    }

    @pytest.mark.parametrize("where", list(MESSAGES))
    def test_refused_within_two_pieces(self, cut_files, where):
        refused = []

        def read():
            with pytest.raises(DomainError) as caught:
                read_state_set(cut_files[where])
            refused.append(str(caught.value))

        peak = peak_bytes(read)
        assert refused == [f"{cut_files[where]}: not valid JSON ({self.MESSAGES[where]})"]
        # the scan holds the block it reads and the one before it
        assert peak < 2.2 * fileio._PIECE_CHARS, f"{peak / 2**20:.2f} MiB"


class TestFailedWrite:
    """A failed write names the requested path, not the temp file, and leaves nothing."""

    WRITERS = {
        "states": lambda p: write_state_set(p, random_state_set(8, 2, seed=270).matrix),
        "model": lambda p: write_model(p, fit_pca(random_state_set(8, 2, seed=271))),
        "operator": lambda p: write_operator(p, np.eye(2, dtype=complex)),
        "curve": lambda p: write_curve(p, [(1, 0.5)]),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_missing_directory(self, tmp_path, kind):
        path = tmp_path / "missing" / "out.json"
        with pytest.raises(FileNotFoundError) as caught:
            self.WRITERS[kind](path)
        assert caught.value.filename == str(path)
        assert ".tmp" not in str(caught.value)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_target_is_a_directory(self, tmp_path, kind):
        path = tmp_path / "taken"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as caught:
            self.WRITERS[kind](path)
        assert caught.value.filename == str(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert not list(path.iterdir())
