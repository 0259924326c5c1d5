import subprocess
import sys

import pytest

from heatpred.io import (
    boolean,
    integer,
    jsonl_ranges,
    number,
    numbers,
    read_jsonl,
    string,
    write_csv,
    write_json,
    write_jsonl,
    write_text,
)
from helpers import child_env


def _as_read(r):
    """A loader item in comparable form: the record, or the error's message."""
    return str(r) if isinstance(r, ValueError) else r


@pytest.mark.parametrize("trailing_newline", [True, False])
def test_ranges_cut_at_line_ends_and_read_like_the_whole_file(tmp_path, trailing_newline):
    path = tmp_path / "f.jsonl"
    lines = ['{"i": %d, "pad": "%s"}' % (i, "x" * (7 * i % 23)) for i in range(9)]
    lines[3] = ""
    lines[5] = "  "
    lines[7] = '{"i": 7, bad'
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    path.write_text(text)
    whole = [_as_read(r) for r in read_jsonl(path, lambda d: d["i"])]
    bad = f"{path}:8: invalid JSON (Expecting property name enclosed in double quotes: line 1 column 10 (char 9))"
    assert whole == [0, 1, 2, 4, 6, bad, 8]
    size = len(text)
    for parts in range(1, 12):
        ranges = jsonl_ranges(path, parts)
        assert 1 <= len(ranges) <= parts
        assert ranges[0][0] == 0 and ranges[-1][1] == size
        assert all(a < b == c for (a, b), (c, _) in zip(ranges, ranges[1:] + [(size, None)]))
        assert all(text[a - 1] == "\n" for a, _ in ranges[1:])
        pieces = [_as_read(r) for a, b in ranges for r in read_jsonl(path, lambda d: d["i"], a, b)]
        assert pieces == whole


def test_empty_file_has_no_ranges(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text("")
    assert jsonl_ranges(path, 4) == []


def test_bad_lines_name_path_line_and_sample(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_bytes(
        b'{"sample_id": "a", "v": 1}\n'
        b"\n"
        b"[2]\n"
        b'{"sample_id": "b", "v": 1, \n'
        b'{"sample_id": "c"}\n'
        b'{"id": "s7", "v": "x"}\n'
        b'{"v": -1}\n'
        b"\xff\xfe\n"
        + b"[" * 100_000 + b"\n"
        b'{"sample_id": "d", "v": 2}\n'
    )

    def parse(d):
        if float(d["v"]) < 0:
            raise ValueError("v must be non-negative")
        return d["v"]

    got = [_as_read(r) for r in read_jsonl(path, parse)]
    assert got[0] == 1 and got[-1] == 2
    errors = got[1:-1]
    assert errors[0] == f"{path}:3: record must be a JSON object"
    assert errors[1].startswith(f"{path}:4: invalid JSON")
    assert errors[2] == f"{path}:5 (sample c): missing key 'v'"
    assert errors[3] == f"{path}:6 (sample s7): could not convert string to float: 'x'"
    assert errors[4] == f"{path}:7: v must be non-negative"
    assert errors[5].startswith(f"{path}:8: invalid JSON")
    assert errors[6].startswith(f"{path}:9: invalid JSON")
    assert len(errors) == 7


@pytest.mark.parametrize(
    "read, value, message",
    [
        (number, True, "k: True is not a valid float"),
        (number, "2", "k: '2' is not a valid float"),
        (number, None, "k: None is not a valid float"),
        (number, float("nan"), "k: nan is not a valid float"),
        (number, 10**400, "k: 1" + "0" * 39 + "... (401 characters) is too large for a float"),
        (integer, 6.7, "k: 6.7 is not a valid int"),
        (integer, 6.0, "k: 6.0 is not a valid int"),
        (integer, False, "k: False is not a valid int"),
        (lambda v, where: integer(v, where, at_least=1), 0, "k: must be at least 1, got 0"),
        (numbers, "12", "k: '12' is not a list"),
        (numbers, [0.5, "x"], "k[1]: 'x' is not a valid float"),
        (lambda v, where: numbers(v, where, 2), [1, 2, 3], "k: [1, 2, 3] is not a list of 2 values"),
        (lambda v, where: numbers(v, where, 2, integer), [1, 2.5], "k[1]: 2.5 is not a valid int"),
        (number, "x" * 5000, "k: '" + "x" * 39 + "... (5002 characters) is not a valid float"),
        (string, 5, "k: 5 is not a string"),
        (string, None, "k: None is not a string"),
        (string, ["a"], "k: ['a'] is not a string"),
        (boolean, "no", "k: 'no' is not a bool"),
        (boolean, 1, "k: 1 is not a bool"),
    ],
)
def test_strict_readers_reject_naming_the_key(read, value, message):
    with pytest.raises(ValueError) as e:
        read(value, "k")
    assert str(e.value) == message


def test_strict_readers_return_values_as_stored():
    assert number(3, "k") == 3 and isinstance(number(3, "k"), int)
    assert number(-0.5, "k") == -0.5
    assert integer(7, "k", at_least=7) == 7
    assert numbers([1, 2.5], "k") == (1, 2.5)
    assert numbers([], "k") == ()
    assert string("5", "k") == "5"
    assert boolean(False, "k") is False


@pytest.mark.parametrize("module", ["heatpred", "heatpred.io"])
def test_import_loads_only_that_module(module):
    # the package root re-exports nothing, so importing it, or a module
    # that needs no numpy, loads neither numpy nor the other modules
    code = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith(('heatpred', 'numpy'))))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    assert loaded.split() == sorted({"heatpred", module})


class WriteFailed(RuntimeError):
    pass


def _rows_then_failure(rows):
    yield from rows
    raise WriteFailed("no more rows")


# Each writer, handed rows (or an object) that fail part-way.
_FAILING_WRITES = {
    "jsonl": lambda path: write_jsonl(path, _rows_then_failure([{"a": 1}, {"b": 2}])),
    "csv": lambda path: write_csv(path, ["x", "y"], _rows_then_failure([(1, 0.5), (2, 0.25)]), "abc"),
    "json": lambda path: write_json(path, {"a": 1, "b": WriteFailed("not JSON")}),
    # a lone surrogate cannot be encoded, so the file is opened but never written
    "text": lambda path: write_text(path, "<svg>\udcff</svg>"),
}


@pytest.mark.parametrize("kind", sorted(_FAILING_WRITES))
@pytest.mark.parametrize("earlier", [None, b"an earlier run's bytes\n"], ids=["new", "existing"])
def test_failed_write_leaves_the_path_as_it_was(tmp_path, kind, earlier):
    path = tmp_path / f"out.{kind}"
    if earlier is not None:
        path.write_bytes(earlier)
    with pytest.raises((WriteFailed, TypeError, UnicodeEncodeError)):
        _FAILING_WRITES[kind](path)
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else [path.name])
    if earlier is not None:
        assert path.read_bytes() == earlier


def test_writers_replace_an_earlier_file(tmp_path):
    path = tmp_path / "out"
    path.write_text("an earlier run's bytes, longer than what replaces them\n")
    assert write_jsonl(path, [{"b": 1, "a": [0.5, None]}, {}]) == 2
    assert path.read_bytes() == b'{"a":[0.5,null],"b":1}\n{}\n'
    write_csv(path, ["x", "y"], [(1, 0.5), ("s", 2)], "abc")
    assert path.read_bytes() == b"# config_hash=abc\nx,y\r\n1,0.5\r\ns,2\r\n"
    write_json(path, {"b": 1, "a": 2})
    assert path.read_bytes() == b'{\n  "a": 2,\n  "b": 1\n}\n'
    write_text(path, "| a |\n")
    assert path.read_bytes() == b"| a |\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
