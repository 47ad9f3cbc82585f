"""On-disk formats: JSON for states/models/operators, CSV for curves.

Every complex array is one JSON object
``{"dtype": "<c16", "shape": [r, c], "data": "<base64>"}`` whose data is
the row-major little-endian complex128 bytes, so a write/read cycle is
bit-exact and identical inputs produce byte-identical files. State sets
store their D x M matrix transposed, one row per state (shape [M, D]).
Readers still accept the format-1 form, a nested list of [re, im] pairs,
so hand-written state sets and older model and operator files load.
Singular values stay a plain JSON float list; curves are CSV rows whose
floats go through Python's shortest round-trip repr. All writes are
atomic (temp file + rename) and leave the file with mode 0666 less the
umask; a failed write names the requested path.

Writers never build the document as one text: keys go out in sorted
order and each array's base64 is streamed in pieces of about 1 MiB, with
the same bytes as one json.dumps(sort_keys=True) of the whole document.
Readers pop each array's base64 string out of the parsed document, check
that it has the canonical length of the bytes its shape needs, and
decode it strictly in C (binascii.a2b_base64, strict_mode=True), so the
text is freed before the array is copied or checked.
"""

from __future__ import annotations

import binascii
import csv
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .errors import DomainError
from .numerics import DEFAULT_TOL, Tolerances, check_hermitian, gram_deviation
from .pca import PcaModel, numerical_rank

FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, FORMAT_VERSION)
_DTYPE = "<c16"
# base64 text that padding may end, and nothing else
_BASE64_TEXT = r"[A-Za-z0-9+/]*={0,2}"
# a multiple of 3, so each streamed piece of an array encodes to unpadded base64
_CHUNK_BYTES = 3 << 18


def _atomic_write(path: str | Path, write_body) -> None:
    """Call write_body(binary_handle) on a temp file, then rename it to path.

    An OSError names the requested path, not the random temp name.
    """
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            write_body(handle)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
        raise


def _atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


def _block_rows(row_bytes: int) -> int:
    """Rows per streamed block: a multiple of 3, about _CHUNK_BYTES in all."""
    return 3 * max(1, _CHUNK_BYTES // (3 * max(row_bytes, 1)))


def _write_array(handle, m: np.ndarray) -> None:
    """Write m as {"data":...,"dtype":...,"shape":...}, its base64 in pieces.

    Every piece but the last encodes a multiple of 3 bytes, so the pieces
    join into exactly the text of one b64encode of the whole array. Only
    one block of rows is ever made contiguous, so a transposed view is
    never copied whole.
    """
    handle.write(b'{"data":"')
    step = _block_rows(16 * math.prod(m.shape[1:]))
    for start in range(0, m.shape[0], step):
        block = np.ascontiguousarray(m[start : start + step], dtype=_DTYPE).reshape(-1)
        raw = block.view(np.uint8)
        for offset in range(0, raw.shape[0], _CHUNK_BYTES):
            handle.write(binascii.b2a_base64(raw[offset : offset + _CHUNK_BYTES], newline=False))
    shape = json.dumps(list(m.shape), separators=(",", ":"))
    handle.write(f'","dtype":"{_DTYPE}","shape":{shape}}}'.encode("ascii"))


def _dump_json(path: str | Path, doc: dict) -> None:
    """Write doc with sorted keys and no spaces; each ndarray value is an array object.

    The bytes equal json.dumps(doc, sort_keys=True, separators=(",", ":"))
    plus a newline, with every array replaced by its {dtype, shape, data}
    object, but no whole-document text is ever built.
    """

    def write_body(handle) -> None:
        separator = b"{"
        for key in sorted(doc):
            handle.write(separator + json.dumps(key).encode("ascii") + b":")
            value = doc[key]
            if isinstance(value, np.ndarray):
                _write_array(handle, value)
            else:
                handle.write(
                    json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")
                )
            separator = b","
        handle.write(b"}\n")

    _atomic_write(path, write_body)


def _load_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
        except RecursionError as exc:
            raise DomainError(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:
            raise DomainError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: expected a JSON object at top level")
    return doc


def _int_field(doc: dict, key: str, path: str | Path) -> int:
    """A header field that must be a JSON integer (not a bool, float or list)."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{path}: '{key}' must be an integer, got {type(value).__name__}")
    return value


def _check_format_version(doc: dict, path: str | Path) -> None:
    version = _int_field(doc, "format_version", path)
    if version not in _READABLE_VERSIONS:
        raise DomainError(f"{path}: unsupported format_version {version}")


def _float_array(value, field: str, path: str | Path) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{path}: {field} is not a numeric array") from exc


def _decode_array(value, field: str, path: str | Path) -> np.ndarray:
    """A complex array from its {dtype, shape, data} object or a list of [re, im] pairs.

    The object form returns a read-only view of the decoded bytes. Its
    shape entries must be positive, so no decoded dimension exceeds the
    number of entries the file actually holds. The "data" string is popped
    out of the object and dropped once decoded; callers pop the object out
    of their document, so the text is freed before any further copy.
    """
    if not isinstance(value, dict):
        arr = _float_array(value, field, path)
        if arr.ndim < 1 or arr.shape[-1] != 2:
            raise DomainError(f"{path}: {field} entries must be [re, im] pairs")
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{path}: {field} contains non-finite numbers")
        return arr[..., 0] + 1j * arr[..., 1]
    if value.get("dtype") != _DTYPE:
        raise DomainError(f"{path}: {field} dtype must be '{_DTYPE}'")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in shape
    ):
        raise DomainError(f"{path}: {field} shape must be a list of positive integers")
    data = value.pop("data", None)
    if not isinstance(data, str):
        raise DomainError(f"{path}: {field} data must be a base64 string")
    expected = 16 * math.prod(shape)
    # Only the padded base64 of the expected bytes is read: the C decoder
    # alone would also take any run of "=" after a complete final quad. A
    # text of another length is refused before anything is decoded.
    chars = 4 * -(-expected // 3)
    if len(data) == chars:
        try:
            raw = binascii.a2b_base64(data, strict_mode=True)
        except ValueError as exc:
            raise DomainError(f"{path}: {field} data is not valid base64 ({exc})") from exc
        held = len(raw)
    elif len(data) % 4 or not re.fullmatch(_BASE64_TEXT, data):
        raise DomainError(f"{path}: {field} data is not valid base64 of {chars} characters")
    else:
        held = 3 * len(data) // 4 - data.endswith("=") - data.endswith("==")
    del data
    if held != expected:
        raise DomainError(f"{path}: {field} data holds {held} bytes, shape needs {expected}")
    arr = np.frombuffer(raw, dtype=_DTYPE).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{path}: {field} contains non-finite numbers")
    return arr


def write_state_set(
    path: str | Path, matrix: np.ndarray, labels: tuple[str, ...] | None = None
) -> None:
    """Write a D x M complex matrix; row mu of "states" is column mu."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": int(matrix.shape[0]),
        "states": np.asarray(matrix).T,
    }
    if labels is not None:
        doc["labels"] = list(labels)
    _dump_json(path, doc)


def read_state_set(path: str | Path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read back a D x M matrix plus optional labels (no policy applied here)."""
    doc = _load_json(path)
    for key in ("dimension", "states"):
        if key not in doc:
            raise DomainError(f"{path}: missing key '{key}'")
    if "format_version" in doc:
        _check_format_version(doc, path)
    states = _decode_array(doc.pop("states"), "states", path)
    if states.ndim != 2:
        raise DomainError(f"{path}: states must be a list of equal-length vectors")
    dim = _int_field(doc, "dimension", path)
    matrix = np.ascontiguousarray(states.T)
    if matrix.shape[0] != dim:
        raise DomainError(
            f"{path}: dimension field {dim} does not match state length {matrix.shape[0]}"
        )
    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != matrix.shape[1]
            or not all(isinstance(item, str) for item in labels)
        ):
            raise DomainError(f"{path}: labels must list one string per state")
        labels = tuple(labels)
    return matrix, labels


def write_model(path: str | Path, model: PcaModel) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": model.dim,
        "count": model.count,
        "singular_values": model.singular_values.tolist(),
        "basis": model.basis,
        "weights": model.weights,
    }
    _dump_json(path, doc)


def read_model(path: str | Path, tol: Tolerances = DEFAULT_TOL) -> PcaModel:
    """Load and re-validate a fitted model."""
    doc = _load_json(path)
    for key in ("format_version", "dimension", "count", "singular_values", "basis", "weights"):
        if key not in doc:
            raise DomainError(f"{path}: missing key '{key}'")
    _check_format_version(doc, path)
    dim = _int_field(doc, "dimension", path)
    count = _int_field(doc, "count", path)
    basis = _decode_array(doc.pop("basis"), "basis", path)
    weights = _decode_array(doc.pop("weights"), "weights", path)
    sv = _float_array(doc["singular_values"], "singular_values", path)
    if basis.shape != (dim, count + 1):
        raise DomainError(f"{path}: basis shape {basis.shape} != ({dim}, {count + 1})")
    if weights.shape != (count + 1, count):
        raise DomainError(f"{path}: weights shape {weights.shape} != ({count + 1}, {count})")
    if sv.shape != (count,) or not np.all(np.isfinite(sv)):
        raise DomainError(f"{path}: expected {count} finite singular values")
    if np.any(np.diff(sv) > 0) or np.any(sv < 0):
        raise DomainError(f"{path}: singular values must be non-negative and descending")
    if np.abs(basis[:, 0] - 1.0 / math.sqrt(dim)).max() > tol.base:
        raise DomainError(f"{path}: basis column 0 is not the uniform superposition")
    with np.errstate(over="ignore", invalid="ignore"):
        gram_dev = gram_deviation(basis)
    if not gram_dev <= tol.base:  # also rejects a NaN deviation from overflowing entries
        raise DomainError(f"{path}: basis columns not orthonormal (deviation {gram_dev:.3e})")
    rank = numerical_rank(sv, tol)
    basis.setflags(write=False)
    weights.setflags(write=False)
    sv.setflags(write=False)
    return PcaModel(
        dim=dim, count=count, basis=basis, singular_values=sv, weights=weights, rank=rank
    )


def write_operator(path: str | Path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.complex128)
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": int(matrix.shape[0]),
        "matrix": matrix,
    }
    _dump_json(path, doc)


def read_operator(path: str | Path) -> np.ndarray:
    """Load a square operator and check that it is Hermitian."""
    doc = _load_json(path)
    for key in ("format_version", "dimension", "matrix"):
        if key not in doc:
            raise DomainError(f"{path}: missing key '{key}'")
    _check_format_version(doc, path)
    dim = _int_field(doc, "dimension", path)
    matrix = np.array(_decode_array(doc.pop("matrix"), "matrix", path))
    if matrix.shape != (dim, dim):
        raise DomainError(f"{path}: matrix shape {matrix.shape} != ({dim}, {dim})")
    check_hermitian(matrix, name=str(path))
    return matrix


def write_curve(path: str | Path, rows: list[tuple[int, float]]) -> None:
    """CSV with header d,value; one row per (strictly increasing) d."""
    lines = ["d,value"]
    for d, value in rows:
        lines.append(f"{int(d)},{float(value)!r}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_curve(path: str | Path) -> list[tuple[int, float]]:
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            lines = list(csv.reader(handle))
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
        except csv.Error as exc:
            raise DomainError(f"{path}: not valid CSV ({exc})") from exc
    header = lines[0] if lines else None
    if header != ["d", "value"]:
        raise DomainError(f"{path}: expected header 'd,value', got {header}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            d, value = line
            rows.append((int(d), float(value)))
        except ValueError as exc:
            raise DomainError(f"{path}: malformed row {number}") from exc
    return rows
