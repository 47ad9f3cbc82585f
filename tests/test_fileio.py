import base64
import dataclasses
import itertools
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import DomainError, NotHermitian, PcaModel, fit_pca, random_state_set
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

from helpers import random_hermitian_oracle, whole_document_json

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
        basis = _decode(doc["basis"]).copy()
        basis[0, 1] = 5.0
        doc["basis"] = _encode(basis)
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            read_model(path)

    def test_overflowing_basis_rejected(self, tmp_path):
        # The Gram product of these columns holds inf - inf = nan, which a
        # plain "deviation > tol" comparison lets through.
        model = fit_pca(random_state_set(8, 2, seed=125))
        basis = model.basis.copy()
        basis[:, 1] = [1e200, 1e200, 0, 0, 0, 0, 0, 0]
        basis[:, 2] = [1e200, 1e200j, 0, 0, 0, 0, 0, 0]
        path = tmp_path / "model.json"
        write_model(path, dataclasses.replace(model, basis=basis))
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

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"d,value\n1,\xff\n")
        with pytest.raises(DomainError, match="curve.csv: not UTF-8"):
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
        matrix = _complex((rows, cols), seed=rows + cols)
        write_operator(tmp_path / "op.json", matrix)
        expected = whole_document_json({"format_version": 2, "dimension": rows, "matrix": matrix})
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
        basis, weights = _complex((rows, cols), seed=1), _complex((3, 2), seed=2)
        sv = np.array([2.5, 0.1 + 0.2])
        model = PcaModel(
            dim=rows, count=2, basis=basis, singular_values=sv, weights=weights, rank=2
        )
        write_model(tmp_path / "m.json", model)
        doc = {
            "format_version": 2,
            "dimension": rows,
            "count": 2,
            "singular_values": sv.tolist(),
            "basis": basis,
            "weights": weights,
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
            np.arange(60.0).reshape(12, 5),
            np.asfortranarray(_complex((40, 7), seed=8)),
            _complex((40, 14), seed=9)[::2, ::3],
            _complex((9, 4), seed=10).astype(">c16"),
        ],
        ids=["real", "fortran", "strided", "big-endian"],
    )
    def test_any_layout_or_dtype(self, tmp_path, matrix):
        write_operator(tmp_path / "op.json", matrix)
        expected = whole_document_json(
            {"format_version": 2, "dimension": matrix.shape[0], "matrix": matrix}
        )
        assert (tmp_path / "op.json").read_bytes() == expected


class TestWriteMemory:
    """A writer holds one streamed block, not copies of the whole base64 text."""

    @pytest.mark.parametrize("kind", ["states", "model", "operator"])
    def test_peak_of_a_12_mib_array(self, tmp_path, kind):
        # each array is 12.5-12.6 MiB of complex128
        if kind == "states":
            matrix = _complex((2**12, 200), seed=11)
            call = lambda: write_state_set(tmp_path / "s.json", matrix)  # noqa: E731
        elif kind == "model":
            model = PcaModel(
                dim=2**12,
                count=200,
                basis=_complex((2**12, 201), seed=12),
                singular_values=np.linspace(2.0, 1.0, 200),
                weights=_complex((201, 200), seed=13),
                rank=200,
            )
            call = lambda: write_model(tmp_path / "m.json", model)  # noqa: E731
        else:
            matrix = _complex((905, 905), seed=14)
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


def _decoders_agree(data: str) -> bool:
    """_decode_array accepts data exactly when strict b64decode does, with equal bytes.

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
    obj = {"dtype": "<c16", "shape": [2], "data": data}
    try:
        got = fileio._decode_array(obj, "x", "f.json").tobytes()
    except DomainError as exc:
        message = str(exc)
        if expected is None:
            return "x data is not valid base64" in message
        if len(expected) != 32:
            return f"holds {len(expected)} bytes" in message
        return "non-finite" in message and not np.isfinite(np.frombuffer(expected, "<c16")).all()
    return got == expected


class TestBase64Decoder:
    """Differential test of the strict C decoder against base64.b64decode(validate=True)."""

    def test_short_strings_exhaustive(self):
        alphabet = ["A", "Q", "/", "=", "-", "_", " ", "\n", "é"]
        strings = [
            "".join(chars)
            for length in range(6)
            for chars in itertools.product(alphabet, repeat=length)
        ]
        assert len(strings) == 66430
        assert [s for s in strings if not _decoders_agree(s)] == []

    def test_quad_pairs(self):
        # padding in the middle, extra padding, whitespace, URL-safe and non-ASCII quads
        quads = ["AAAA", "QQ==", "AAA=", "A===", "====", "AA=A", "=AAA", " AAA", "AA\nA"]
        quads += ["-AAA", "AA_A", "AAé=", "AA==\n", "AA\r\n"]
        pairs = [a + b for a, b in itertools.product(quads, repeat=2)]
        # bare, and as the last two quads of a payload of the canonical length
        strings = pairs + [_PAYLOAD[:36] + pair for pair in pairs if len(pair) == 8]
        assert [s for s in strings if not _decoders_agree(s)] == []

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "replace", "delete"]),
                st.integers(0, len(_PAYLOAD)),
                st.sampled_from(_EDIT_CHARS),
            ),
            max_size=3,
        )
    )
    def test_edited_payloads(self, edits):
        data = _PAYLOAD
        for op, at, char in edits:
            at = min(at, len(data))
            if op == "insert":
                data = data[:at] + char + data[at:]
            elif op == "replace":
                data = data[:at] + char + data[at + 1 :]
            else:
                data = data[:at] + data[at + 1 :]
        assert _decoders_agree(data), repr(data)


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
