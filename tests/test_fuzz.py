"""Fuzz gate: malformed files end as a DomainError or a one-line CLI error.

Every loader and every CLI command that reads a file is fed mutations of
a real format-2 file: arbitrary JSON under each key, truncated prefixes,
corrupted base64 (also forms that a lenient decoder would take), wrong
dtypes, bad shape entries, non-finite numbers in the binary data, deep
nesting and bytes that are not UTF-8. Hypothesis runs derandomized, so
the examples are the same on every run.
"""

import base64
import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecimate import DomainError, fit_pca, random_state_set
from qdecimate.cli import main
from qdecimate.fileio import (
    read_curve,
    read_model,
    read_operator,
    read_state_set,
    write_model,
    write_operator,
    write_state_set,
)

from helpers import random_hermitian_oracle

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=60)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 2**63, 10**400])
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10,
)

BAD_DTYPES = [">c16", "<c8", "<f8", "complex128", "c16", "", None, 16, ["<c16"]]
BAD_SHAPES = [
    [-1, 4],
    [True, 4],
    [0, 4],
    [10**20, 1],
    [2**62, 2**62],
    [4.0, 4],
    ["4", 4],
    [],
    [[4], 4],
]


def _sources(root):
    """One real format-2 file per kind, as text."""
    states = random_state_set(16, 3, seed=190).matrix
    psi = random_state_set(16, 1, seed=191).matrix
    files = {
        "states": (write_state_set, states),
        "psi0": (write_state_set, psi),
        "model": (write_model, fit_pca(random_state_set(16, 3, seed=192))),
        "operator": (write_operator, random_hermitian_oracle(4, seed=193)),
    }
    texts = {}
    for name, (write, value) in files.items():
        write(root / f"{name}.json", value)
        texts[name] = (root / f"{name}.json").read_text()
    return texts


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("sources")
    return root, _sources(root)


def _array_keys(doc: dict) -> list[str]:
    return sorted(key for key, value in doc.items() if isinstance(value, dict))


@st.composite
def _arbitrary_value(draw, doc):
    """Delete or replace a top-level key, a field of an array object or a list element."""
    fields = [(key, field) for key in _array_keys(doc) for field in ("dtype", "shape", "data")]
    for key, value in doc.items():
        if isinstance(value, list):
            fields += [(key, index) for index in range(len(value))]
    path = draw(st.sampled_from(sorted(doc) + fields))
    target, key = (doc[path[0]], path[1]) if isinstance(path, tuple) else (doc, path)
    if isinstance(target, dict) and draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(json_values)
    return json.dumps(doc)


@st.composite
def _lenient_base64(draw, data):
    """Corrupt base64 that a lenient decoder would take or that keeps its length.

    Padding in the middle, extra padding, a run of padding after the final
    quad, line breaks or spaces every few characters, and a same-length
    swap to a URL-safe, space or non-ASCII character.
    """
    kind = draw(st.sampled_from(["pad_middle", "extra_pad", "pad_after_quad", "wrap", "swap"]))
    if kind == "pad_middle":
        quad = 4 * draw(st.integers(0, len(data) // 4 - 2))
        return data[:quad] + draw(st.sampled_from(["AA==", "AAA="])) + data[quad + 4 :]
    if kind == "extra_pad":
        # one "=" more than the last quad allows
        return data + "=" if data.endswith("=") else data[:-1] + "=="
    if kind == "pad_after_quad":
        # the C decoder alone reads "=" after a complete final quad as the same bytes
        return data + "=" * draw(st.sampled_from([1, 2, 3, 4, 9]))
    if kind == "wrap":
        width = draw(st.sampled_from([4, 64, 76]))
        separator = draw(st.sampled_from(["\n", "\r\n", " "]))
        return separator.join(data[i : i + width] for i in range(0, len(data), width))
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + draw(st.sampled_from(list("-_ \n\té") + ["Ａ"])) + data[at + 1 :]


@st.composite
def _bad_array_field(draw, doc):
    obj = doc[draw(st.sampled_from(_array_keys(doc)))]
    kind = draw(
        st.sampled_from(
            ["dtype", "shape", "bad_char", "drop", "append", "lenient", "non_finite"]
        )
    )
    if kind == "dtype":
        obj["dtype"] = draw(st.sampled_from(BAD_DTYPES))
    elif kind == "shape":
        obj["shape"] = draw(st.sampled_from(BAD_SHAPES))
    elif kind == "bad_char":
        data = obj["data"]
        at = draw(st.integers(0, len(data)))
        obj["data"] = data[:at] + draw(st.sampled_from(list("!$-_.~ \n=é\x00"))) + data[at:]
    elif kind == "drop":
        obj["data"] = obj["data"][: -draw(st.integers(1, 8))]
    elif kind == "append":
        obj["data"] += draw(st.sampled_from(["A", "AA==", "AAAA", "AAAAAAAA"]))
    elif kind == "lenient":
        obj["data"] = draw(_lenient_base64(obj["data"]))
    else:
        arr = np.frombuffer(base64.b64decode(obj["data"]), dtype="<c16").copy()
        arr[draw(st.integers(0, arr.size - 1))] = draw(
            st.sampled_from([complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)])
        )
        obj["data"] = base64.b64encode(arr).decode()
    return json.dumps(doc)


@st.composite
def mutated_json(draw, text):
    """A corrupted version of a real JSON file, as (bytes, always invalid).

    Only an arbitrary value under a key can leave the file valid, for
    example a list of one label per state.
    """
    kind = draw(st.sampled_from(["value", "array", "truncate", "nested", "bytes"]))
    if kind == "value":
        return draw(_arbitrary_value(json.loads(text))).encode(), False
    if kind == "array":
        content = draw(_bad_array_field(json.loads(text)))
    elif kind == "truncate":
        content = text[: draw(st.integers(0, len(text) - 2))]
    elif kind == "nested":
        depth = draw(st.sampled_from([2000, 100000]))
        inner = "[" * depth + "]" * depth
        key = draw(st.sampled_from(sorted(json.loads(text))))
        content = f'{{"{key}": {inner}}}' if draw(st.booleans()) else inner
    else:
        return draw(st.binary(max_size=64)) + b"\xff", True
    return content.encode(), True


@st.composite
def mutated_curve(draw):
    rows = ["d,value", "1,0.0", "2,0.3333333333333333", "3,0.6931471805599453"]
    kind = draw(st.sampled_from(["cell", "row", "truncate", "bytes"]))
    if kind == "cell":
        row = draw(st.integers(0, len(rows) - 1))
        cells = rows[row].split(",")
        cells[draw(st.integers(0, 1))] = draw(st.text(max_size=8))
        rows[row] = ",".join(cells)
    elif kind == "row":
        rows.insert(draw(st.integers(1, len(rows))), draw(st.text(max_size=12)))
    text = "\n".join(rows) + "\n"
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "bytes":
        return text.encode() + b"\x80"
    return text.encode()


READERS = {
    "states": read_state_set,
    "psi0": read_state_set,
    "model": read_model,
    "operator": read_operator,
}


def _load_or_domain_error(reader, path, invalid: bool):
    try:
        reader(path)
    except DomainError:
        return
    assert not invalid, "a corrupted file loaded"


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_reader_raises_only_domain_error(sources, kind, data):
    root, texts = sources
    path = root / f"fuzz_{kind}.json"
    content, invalid = data.draw(mutated_json(texts[kind]))
    path.write_bytes(content)
    _load_or_domain_error(READERS[kind], path, invalid)


@FUZZ
@given(content=mutated_curve())
def test_read_curve_raises_only_domain_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz_curve.csv"
    path.write_bytes(content)
    _load_or_domain_error(read_curve, path, invalid=False)


def _run_cli(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process run; warnings count as lines."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


COMMANDS = {
    "fit": ("states", lambda p, out: ["fit", p, "-o", out]),
    "decimate": ("model", lambda p, out: ["decimate", p, "-o", out, "--d", "2"]),
    "entropy-curve": (
        "states",
        lambda p, out: ["entropy-curve", p, "--state", "1", "--qubit", "1", "--fine"],
    ),
    "evolve": (
        "psi0",
        lambda p, out: [
            "evolve",
            "--hamiltonian",
            "zero",
            "--dim",
            "16",
            "--psi0",
            f"file:{p}",
            "--dt",
            "0.1",
            "--steps",
            "3",
            "--out-prefix",
            out,
        ],
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_accepts_the_real_file(sources, command):
    root, _ = sources
    kind, argv = COMMANDS[command]
    code, err = _run_cli(argv(str(root / f"{kind}.json"), str(root / "out")))
    assert (code, err) == (0, [])


@pytest.mark.parametrize("command", sorted(COMMANDS))
@FUZZ
@given(data=st.data())
def test_cli_fails_with_one_line(sources, command, data):
    root, texts = sources
    kind, argv = COMMANDS[command]
    path = root / f"fuzz_cli_{kind}.json"
    content, invalid = data.draw(mutated_json(texts[kind]))
    path.write_bytes(content)
    code, err = _run_cli(argv(str(path), str(root / "out")))
    if code == 0:
        assert not invalid and err == []
    else:
        assert code in (1, 2) and len(err) == 1 and err[0].startswith("error: "), err
