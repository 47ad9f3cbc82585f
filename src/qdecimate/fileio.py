"""On-disk formats: JSON for states/models/operators, CSV for curves.

Every complex array is one JSON object
``{"dtype": "<c16", "shape": [r, c], "data": "<base64>"}`` whose data is
the row-major little-endian complex128 bytes, so a write/read cycle is
bit-exact and identical inputs produce byte-identical files. State sets
store their D x M matrix transposed, one row per state (shape [M, D]),
and read back as the transposed view of those rows.
Every JSON file holds format_version 2, the only version read, and an
integer dimension, and one header check serves all three readers.
A model of rank r stores only its first r+1 basis columns and weight
rows: the columns past them are pca.complete_basis's function of those,
which the reader calls, and the weight rows past them are zero.
Singular values stay a plain JSON float list; curves are CSV rows whose
floats go through Python's shortest round-trip repr. All writes are
atomic (temp file + rename) and leave the file with mode 0666 less the
umask; a failed write names the requested path.

Writers never build the document as one text: keys go out in sorted
order and each array's base64 is streamed in pieces of about 1 MiB, with
the same bytes as one json.dumps(sort_keys=True) of the whole document.
Readers never hold a document's text. A first pass over the file's
bytes finds every JSON string by its quotes and lists where each cut
string lies: a string that follows a "data" key and holds no backslash,
whose text stays in the file. Every other byte is the skeleton (keys,
header integers, dtype, shape, singular values, labels), which is read
back from the file by offset and is all that json.loads parses. Then
each array runs its checks in order, all before anything is
allocated: dtype, positive shape entries, and the canonical base64
length of the bytes its shape needs. Only then is the final array
allocated and its text read and decoded into it strictly in C
(binascii.a2b_base64, strict_mode=True), one piece of about 1 MiB at a
time, each at its own byte offset, so every array fills in file order;
every entry must then be finite. So a read holds its arrays, one
piece and the skeleton. A "data" string with a backslash (a hand-made
file's escapes) is never cut: json unescapes it in the skeleton, and it
is decoded in the same pieces. A cut string that no array reads (a
duplicate key's) is still checked as JSON text.
"""

from __future__ import annotations

import binascii
import codecs
import csv
import io
import json
import math
import os
import re
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import DomainError
from .numerics import check_finite, check_hermitian
from .pca import PcaModel, check_orthonormal, complete_basis, numerical_rank

FORMAT_VERSION = 2
_DTYPE = "<c16"
# a multiple of 3, so each streamed piece of an array encodes to unpadded base64
_CHUNK_BYTES = 3 << 18
# base64 characters a reader holds at once: the text of _CHUNK_BYTES, a
# multiple of 64 characters, so every piece but the last is whole entries
_PIECE_CHARS = 4 * _CHUNK_BYTES // 3
# base64 text is alphabet characters, with "=" only among the last two
_ALPHABET = re.compile(rb"[A-Za-z0-9+/]*")
_BASE64_TAIL = re.compile(rb"[A-Za-z0-9+/]{0,2}|[A-Za-z0-9+/]=|==")
# the bytes before the opening quote of a "data" value; a string whose
# key lies further back than _KEY_WINDOW bytes is left to json
_DATA_KEY = re.compile(rb'"data"[ \t\n\r]*:[ \t\n\r]*\Z')
_KEY_WINDOW = 64
_CONTROL = re.compile(rb"[\x00-\x1f]")


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


@dataclass
class _Text:
    """A JSON string's text, length bytes from offset in handle, read piece by piece."""

    handle: BinaryIO
    offset: int
    length: int
    read: bool = False


def _pieces(text: _Text, start: int, stop: int, path: str | Path) -> Iterator[memoryview]:
    """Bytes start..stop of text, _PIECE_CHARS at a time, each read into one reused buffer."""
    buffer = memoryview(bytearray(max(0, min(_PIECE_CHARS, stop - start))))
    text.handle.seek(text.offset + start)
    for at in range(start, stop, _PIECE_CHARS):
        piece = buffer[: min(_PIECE_CHARS, stop - at)]
        if text.handle.readinto(piece) != len(piece):
            raise DomainError(f"{path}: file ended while it was read")
        yield piece


def _scan(handle) -> tuple[list[tuple[int, int]], int]:
    """Where each cut string's text lies, as (offset, length), and where the skeleton ends.

    Strings are found by their quotes, escape pairs skipped, one block of
    _PIECE_CHARS bytes at a time; no skeleton byte is copied. A cut
    string follows a "data" key and holds no backslash. The skeleton ends
    at the end of the file, or at the opening quote of a "data" string
    that the file never closes.
    """
    spans = []
    offset = at = 0  # file offset of block[0]; next byte to look at, from block[0]
    opened = None  # file offset of the text of the string being read
    data = escaped = False  # the string follows a "data" key; it holds a backslash
    previous = b""
    while block := handle.read(_PIECE_CHARS):
        quote = -1
        while at < len(block):
            # quote: the first quote at or after at, len(block) if there is none
            if quote < at:
                quote = block.find(b'"', at)
                quote = len(block) if quote < 0 else quote
            if opened is None:
                if quote == len(block):
                    break
                window = (previous + block[max(0, quote - _KEY_WINDOW) : quote])[-_KEY_WINDOW:]
                data = _DATA_KEY.search(window) is not None
                opened, escaped, at = offset + quote + 1, False, quote + 1
                continue
            slash = block.find(b"\\", at, quote)
            if slash >= 0:
                # the pair may end in the next block
                escaped, at = True, slash + 2
                continue
            if quote == len(block):
                break
            if data and not escaped:
                spans.append((opened, offset + quote - opened))
            opened, at = None, quote + 1
        previous = block[-_KEY_WINDOW:]
        offset, at = offset + len(block), max(0, at - len(block))
    return spans, opened - 1 if opened is not None and data else offset


def _parse(handle, path: str | Path) -> tuple[object, list[_Text]]:
    """The JSON value of a file, whose cut strings stay in the file.

    json.loads reads only the skeleton, read back from the file between
    the cut strings and their quotes. Each cut string stands there as a
    number whose fraction has more digits than any digit run of the file,
    so it cannot be mistaken for one of the file's numbers; parse_float
    turns it into its _Text. A "data" string with a backslash is no cut
    string: it stays in the skeleton, for json to unescape.
    """
    spans, end = _scan(handle)
    edges = [0, *(edge for at, length in spans for edge in (at - 1, at + length + 1)), end]
    segments = []
    for start, stop in zip(edges[::2], edges[1::2]):
        handle.seek(start)
        if len(seg := handle.read(stop - start)) != stop - start:
            raise DomainError(f"{path}: file ended while it was read")
        try:
            segments.append(seg.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DomainError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {start + exc.start})"
            ) from exc
    runs = [len(run) for seg in segments for run in re.findall("[0-9]+", seg)]
    marker = "." + "1" * (max(runs, default=0) + 1)
    placeholders = {f"{index}{marker}": _Text(handle, *span) for index, span in enumerate(spans)}
    # the space keeps a digit that follows a cut string from joining its number
    skeleton = "".join(seg + f"{key} " for seg, key in zip(segments, placeholders)) + segments[-1]
    try:
        doc = json.loads(
            skeleton,
            parse_float=lambda s: placeholders[s] if s in placeholders else float(s),
        )
    except RecursionError as exc:
        raise DomainError(f"{path}: JSON nested too deeply") from exc
    except json.JSONDecodeError as exc:
        # a column of the skeleton is not one of the file, but its lines are the file's
        raise DomainError(f"{path}: not valid JSON ({exc.msg} on line {exc.lineno})") from exc
    except ValueError as exc:
        raise DomainError(f"{path}: not valid JSON ({exc})") from exc
    return doc, list(placeholders.values())


def _check_string(text: _Text, path: str | Path) -> None:
    """A cut string that no array read must still be JSON: UTF-8, no control characters."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    at = text.offset
    try:
        for piece in _pieces(text, 0, text.length, path):
            control = _CONTROL.search(piece)
            if control:
                raise DomainError(
                    f"{path}: not valid JSON (control character at byte {at + control.start()})"
                )
            decoder.decode(piece, final=at + len(piece) == text.offset + text.length)
            at += len(piece)
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {at})") from exc


@contextmanager
def _read_document(path: str | Path, *keys: str) -> Iterator[tuple[dict, int]]:
    """A format-2 file's JSON object, which must hold keys, and its integer dimension.

    The file stays open while the caller decodes its arrays. On leaving,
    every cut string that no array read is checked as JSON text.
    """
    with open(path, "rb") as handle:
        doc, texts = _parse(handle, path)
        if not isinstance(doc, dict):
            raise DomainError(f"{path}: expected a JSON object at top level")
        for key in ("format_version", "dimension", *keys):
            if key not in doc:
                raise DomainError(f"{path}: missing key '{key}'")
        version = _int_field(doc, "format_version", path)
        if version != FORMAT_VERSION:
            raise DomainError(
                f"{path}: unsupported format_version {version} (only {FORMAT_VERSION} is read)"
            )
        yield doc, _int_field(doc, "dimension", path)
        for text in texts:
            if not text.read:
                _check_string(text, path)


def _int_field(doc: dict, key: str, path: str | Path) -> int:
    """A header field that must be a JSON integer (not a bool, float or list)."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{path}: '{key}' must be an integer, got {type(value).__name__}")
    return value


def _array_text(value, field: str, path: str | Path) -> tuple[list[int], _Text]:
    """The checked shape and base64 text of a {dtype, shape, data} object; nothing is allocated.

    Checks run in this order: the dtype, the shape, whose entries must be
    positive so that no dimension exceeds the entries the file holds, and
    the canonical length of the base64 text.
    """
    if not isinstance(value, dict):
        raise DomainError(f"{path}: {field} must be a {{dtype, shape, data}} object")
    if value.get("dtype") != _DTYPE:
        raise DomainError(f"{path}: {field} dtype must be '{_DTYPE}'")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in shape
    ):
        raise DomainError(f"{path}: {field} shape must be a list of positive integers")
    data = value.pop("data", None)
    if isinstance(data, str):
        # a text json unescaped; a non-ASCII character stays one (invalid) character
        data = _Text(io.BytesIO(data.encode("ascii", "replace")), 0, len(data))
    elif not isinstance(data, _Text):
        raise DomainError(f"{path}: {field} data must be a base64 string")
    data.read = True
    expected = 16 * math.prod(shape)
    # Only the padded base64 of the expected bytes is read: the C decoder
    # alone would also take any run of "=" after a complete final quad. A
    # text of another length is refused before anything is decoded.
    chars = 4 * -(-expected // 3)
    if data.length != chars:
        body = max(0, data.length - 2)
        tail = b"".join(_pieces(data, body, data.length, path))
        if (
            data.length % 4
            or not _BASE64_TAIL.fullmatch(tail)
            or not all(_ALPHABET.fullmatch(piece) for piece in _pieces(data, 0, body, path))
        ):
            raise DomainError(f"{path}: {field} data is not valid base64 of {chars} characters")
        held = 3 * data.length // 4 - tail.count(b"=")
        raise DomainError(f"{path}: {field} data holds {held} bytes, shape needs {expected}")
    return shape, data


def _decode_into(arr: np.ndarray, data: _Text, field: str, path: str | Path) -> np.ndarray:
    """Decode data, checked by _array_text for arr's shape, into the C-ordered arr, in file order.

    Each piece of the text is decoded into its bytes at the piece's
    offset; every entry must then be finite. Returns arr.
    """
    expected = arr.nbytes
    chars = 4 * -(-expected // 3)
    flat = arr.reshape(-1).view(np.uint8)
    held = 0
    # Every piece but the last is a whole number of quads and must decode to
    # 3 bytes per 4 characters, that is hold no "=": so the pieces accept
    # exactly the texts that one strict decode of the whole text accepts.
    for at, piece in zip(range(0, chars, _PIECE_CHARS), _pieces(data, 0, chars, path)):
        try:
            raw = binascii.a2b_base64(piece, strict_mode=True)
        except ValueError as exc:
            raise DomainError(f"{path}: {field} data is not valid base64 ({exc})") from exc
        if at + len(piece) < chars and 4 * len(raw) != 3 * len(piece):
            raise DomainError(f"{path}: {field} data is not valid base64 (padding before the end)")
        if held + len(raw) <= expected:
            flat[held : held + len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        held += len(raw)
    if held != expected:
        raise DomainError(f"{path}: {field} data holds {held} bytes, shape needs {expected}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{path}: {field} contains non-finite numbers")
    return arr


def _decode_array(value, field: str, path: str | Path) -> np.ndarray:
    """A complex array from its {dtype, shape, data} object, filled in file order.

    Every check of _array_text runs before anything is allocated; only
    then is the C-ordered result allocated and decoded into (_decode_into).
    """
    shape, data = _array_text(value, field, path)
    return _decode_into(np.empty(shape, dtype=_DTYPE), data, field, path)


def _check_labels(labels, count: int, path: str | Path) -> None:
    """Labels are a list or tuple of exactly count str values, never one bare str."""
    if not (isinstance(labels, (list, tuple)) and len(labels) == count) or not all(
        isinstance(item, str) for item in labels
    ):
        raise DomainError(f"{path}: labels must list one string per state")


def write_state_set(
    path: str | Path, matrix: np.ndarray, labels: tuple[str, ...] | None = None
) -> None:
    """Write a D x M complex matrix; row mu of "states" is column mu.

    A matrix or labels that read_state_set would refuse (not 2-d, empty,
    non-finite) are refused first.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.size == 0:
        raise DomainError(f"{path}: states must be 2-d and non-empty, got shape {matrix.shape}")
    check_finite(matrix, f"{path}: states")
    if labels is not None:
        _check_labels(labels, matrix.shape[1], path)
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": int(matrix.shape[0]),
        "states": matrix.T,
    }
    if labels is not None:
        doc["labels"] = list(labels)
    _dump_json(path, doc)


def read_state_set(path: str | Path) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read back a D x M matrix plus optional labels (no policy applied here).

    The matrix is the transposed, F-ordered view of the file's [M, D] rows:
    no copy is made. validate_state_set copies it into C order, or into the
    columns of a fit buffer (see fit_pca).
    """
    with _read_document(path, "states") as (doc, dim):
        rows = _decode_array(doc.pop("states"), "states", path)
    if rows.ndim != 2:
        raise DomainError(f"{path}: states must have shape [M, D], one row per state")
    matrix = rows.T
    if matrix.shape[0] != dim:
        raise DomainError(
            f"{path}: dimension field {dim} does not match state length {matrix.shape[0]}"
        )
    labels = doc.get("labels")
    if labels is not None:
        _check_labels(labels, matrix.shape[1], path)
        labels = tuple(labels)
    return matrix, labels


def write_model(path: str | Path, model: PcaModel) -> None:
    """Write a model's first rank+1 basis columns and weight rows, beside its singular values.

    Columns past the rank are complete_basis's function of those, and the
    weight rows past it are zero, so read_model rebuilds both. A full-rank
    model's file holds all M+1 columns and rows.
    """
    width = model.rank + 1
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": model.dim,
        "count": model.count,
        "singular_values": model.singular_values.tolist(),
        "basis": model.basis[:, :width],
        "weights": model.weights[:width],
    }
    _dump_json(path, doc)


def _spread_rows(buffer: np.ndarray, width: int) -> None:
    """Move the dim x width array held in buffer's leading entries into its first width columns.

    Blocks of rows move last block first: a row's new place starts no
    earlier than its old one, so no row is overwritten before it moves.
    """
    dim = buffer.shape[0]
    flat = buffer.reshape(-1)
    step = _block_rows(16 * width)
    for hi in range(dim, 0, -step):
        lo = max(0, hi - step)
        buffer[lo:hi, :width] = flat[lo * width : hi * width].reshape(hi - lo, width)


def read_model(path: str | Path) -> PcaModel:
    """Load a fitted model; PcaModel re-validates it, and every error names the path.

    The file's basis holds the model's first w columns and its weights the
    first w rows, rank+1 <= w <= M+1 (write_model writes w = rank+1). The
    basis is decoded into the leading entries of the final D x (M+1) array.
    When w <= M, its w columns must pass as orthonormal; they are then
    spread into place, complete_basis writes columns w..M, and weight rows
    w..M are zero.
    """
    with _read_document(path, "count", "singular_values", "basis", "weights") as (doc, dim):
        count = _int_field(doc, "count", path)
        try:
            sv = np.asarray(doc["singular_values"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"{path}: singular_values is not a numeric array") from exc
        basis_shape, basis_text = _array_text(doc.pop("basis"), "basis", path)
        weights_shape, weights_text = _array_text(doc.pop("weights"), "weights", path)
        if basis_shape[:1] + list(sv.shape) != [dim, count] or not 1 <= count < dim:
            raise DomainError(
                f"{path}: header (D, M) = ({dim}, {count}) does not match the arrays, "
                "or is not D > M >= 1"
            )
        width = basis_shape[-1]
        if basis_shape != [dim, width] or weights_shape != [width, count] or width > count + 1:
            raise DomainError(
                f"{path}: basis shape {basis_shape} and weights shape {weights_shape} "
                f"are not D x w and w x M with w <= M+1 = {count + 1}"
            )
        rank = numerical_rank(sv)
        if width < rank + 1:
            raise DomainError(f"{path}: {width} basis columns, fewer than rank+1 = {rank + 1}")
        basis = np.empty((dim, count + 1), dtype=np.complex128)
        weights = np.zeros((count + 1, count), dtype=np.complex128)
        head = basis.reshape(-1)[: dim * width].reshape(dim, width)
        _decode_into(head, basis_text, "basis", path)
        _decode_into(weights[:width], weights_text, "weights", path)
    try:
        if width <= count:  # columns w..M are rebuilt from the first w
            check_orthonormal(head)
            _spread_rows(basis, width)
            complete_basis(basis, width - 1)
        return PcaModel(basis=basis, singular_values=sv, weights=weights)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def write_operator(path: str | Path, matrix: np.ndarray) -> None:
    """Write a Hermitian matrix; one that read_operator would refuse is refused first."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.size == 0:
        raise DomainError(f"{path}: operator must not be empty, got shape {matrix.shape}")
    check_hermitian(matrix, name=str(path))
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": int(matrix.shape[0]),
        "matrix": matrix,
    }
    _dump_json(path, doc)


def read_operator(path: str | Path) -> np.ndarray:
    """Load a square operator and check that it is Hermitian."""
    with _read_document(path, "matrix") as (doc, dim):
        matrix = _decode_array(doc.pop("matrix"), "matrix", path)
    if matrix.shape != (dim, dim):
        raise DomainError(f"{path}: matrix shape {matrix.shape} != ({dim}, {dim})")
    check_hermitian(matrix, name=str(path))
    return matrix


def write_curve(path: str | Path, rows: list[tuple[int, float]]) -> None:
    """CSV with header d,value; one row per (strictly increasing) d."""
    lines = ["d,value"]
    for d, value in rows:
        lines.append(f"{int(d)},{float(value)!r}")
    text = "\n".join(lines) + "\n"
    _atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


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
