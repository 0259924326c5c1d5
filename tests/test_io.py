import gc
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heatpred import sets
from heatpred.heatmap import GridSpec, Heatmap, heatmap_from_dict, heatmap_to_json
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
from heatpred.trajectory import Sample, sample_from_dict
from helpers import child_env, json_read_jsonl, random_heatmap


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


def _nested(depth: int) -> list:
    """A list ``depth`` levels deep around 1.0, which ``repr`` cannot show."""
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


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
        (number, _nested(100_000), "k: a list nested too deeply to show is not a valid float"),
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


def test_cli_import_loads_no_process_machinery():
    # the pool forks and pipes by hand, so no start-up pays for these
    heavy = ("multiprocessing", "concurrent.futures", "socket", "select", "selectors", "subprocess", "queue")
    code = f"import sys, heatpred.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    assert loaded.split() == []


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


# ---------------------------------------------------------------------------
# The decoder: orjson for every line, Python's json for the lines that fail


class Raw(bytes):
    """JSON text written as given."""


def _text(value) -> bytes:
    if isinstance(value, Raw):
        return bytes(value)
    if isinstance(value, dict):
        return b"{" + b",".join(json.dumps(k).encode() + b":" + _text(v) for k, v in value.items()) + b"}"
    if isinstance(value, list):
        return b"[" + b",".join(_text(v) for v in value) + b"]"
    return json.dumps(value).encode()


def _heatmap_record():
    grid = {"origin_x": -1.5, "origin_y": -2.0, "resolution": 0.5, "width": 8, "height": 6}
    return {"sample_id": "s1", "grid": grid, "cells": [[3, 0.25], [10, 0.5], [40, 0.25]]}


def _scene_record():
    return {
        "id": "s1", "dataset": "d",
        "past": [[-0.2, 0.0, 0.0], [-0.1, 0.1, 0.0], [0.0, 0.2, 0.0]],
        "future": [[0.1, 0.3, 0.0], [0.2, 0.4, 0.0]],
        "neighbors": [[[-0.1, 1.0, 1.0], [0.1, 1.0, 2.0]]],
        "is_predefined_target": True,
    }


# (good record, parser, the key of its id) of each kind of JSONL line
_LINES = {
    "heatmap": (_heatmap_record, heatmap_from_dict, "sample_id"),
    "ground-truth": (lambda: {"sample_id": "s1", "gt": [1.0, -2.5]}, sets._ground_truth_row, "sample_id"),
    "scene": (_scene_record, sample_from_dict, "id"),
}


def _numeric_paths(value, path=()):
    """The path of every number in a record, keys and list positions."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _numeric_paths(v, path + (k,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _numeric_paths(v, path + (i,))]
    return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _replace(record, path, new):
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = new(record[path[-1]])


_digits = st.text("0123456789", min_size=17, max_size=40).filter(lambda d: d[0] != "0")
_NUMBER_TEXT = st.one_of(
    st.integers(min_value=2**64, max_value=10**400).map(str),
    st.integers(min_value=-(10**400), max_value=-(2**63) - 1).map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1E-400", "-0", "-0.0",
                     "1.7976931348623159e308", "2.2250738585072011e-308", "5e-324",
                     "0.1000000000000000055511151231257827", "18446744073709551615"]),
    # a float of 17 to 40 significant digits, with its point anywhere and any exponent
    st.tuples(st.sampled_from(["", "-"]), _digits, st.integers(1, 40), st.integers(-330, 330)).map(
        lambda t: f"{t[0]}{t[1][:t[2]]}{'.' + t[1][t[2]:] if t[1][t[2]:] else ''}e{t[3]}"
    ),
)
# an id string, each as JSON text: lone surrogates escaped and as raw
# bytes, bytes that are not UTF-8, and two that every decoder reads
_STRING_TEXT = st.sampled_from([
    b'"\\ud800"', b'"a\\udfff"', b'"\\ud83d\\ude00"', b'"\\u00e9"',
    b'"\xed\xa0\x80"', b'"a\xed\xbf\xbf"', b'"\xff"', b'"\xc3("', b'"\xe2\x82"', b'"\xf0\x9f\x98\x80"',
])


@st.composite
def _mutated_line(draw, kind):
    record = _LINES[kind][0]()
    mutation = draw(st.sampled_from(["numbers", "string", "nesting", "duplicate-key", "truncated"]))
    if mutation == "numbers":
        # integers beyond 64 bits, NaN, Infinity, 1e400 and long floats, in any numeric fields
        paths = _numeric_paths(record)
        for i in draw(st.sets(st.integers(0, len(paths) - 1), min_size=1)):
            _replace(record, paths[i], lambda _: Raw(draw(_NUMBER_TEXT).encode()))
    elif mutation == "string":
        record[_LINES[kind][2]] = Raw(draw(_STRING_TEXT))
    elif mutation == "nesting":
        # a value the parser reads, 2,000 deep in lists or objects
        path = draw(st.sampled_from(_numeric_paths(record)))
        opened, closed = draw(st.sampled_from([(b"[", b"]"), (b'{"k":', b"}")]))
        _replace(record, path, lambda v: Raw(opened * 2000 + _text(v) + closed * 2000))
    elif mutation == "duplicate-key":
        key = draw(st.sampled_from(sorted(record)))
        other = _text(draw(st.sampled_from(["s2", 7, [0.5, 1.5], None, {}])))
        pair = json.dumps(key).encode() + b":" + other
        text = _text(record)
        return text[:1] + pair + b"," + text[1:] if draw(st.booleans()) else text[:-1] + b"," + pair + b"}"
    else:
        text = _text(record)
        return text[: draw(st.integers(1, len(text) - 1))]
    return _text(record)


def _comparable(value):
    """A read value with every float as its repr, so 0.0 and -0.0 differ."""
    if isinstance(value, ValueError):
        return ("error", str(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return tuple(_comparable(v) for v in value)
    if isinstance(value, Heatmap):
        return (repr(value.grid), value.idx.tolist(), _comparable(tuple(value.prob.tolist())), repr(value.mass))
    if isinstance(value, Sample):
        tracks = [value.past, value.future, *value.neighbors]
        return (value.id, value.dataset, value.is_predefined_target, [repr(t.data.tolist()) for t in tracks])
    return value


@pytest.mark.parametrize("kind", sorted(_LINES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_lines_read_as_json_reads_them(tmp_path, kind, data):
    # the mutated line between two good ones: equal values, or the same message
    good = _text(_LINES[kind][0]())
    path = tmp_path / "f.jsonl"
    path.write_bytes(b"\n".join([good, data.draw(_mutated_line(kind)), good]) + b"\n")
    parse = _LINES[kind][1]
    got = [_comparable(r) for r in read_jsonl(path, parse)]
    assert got == [_comparable(r) for r in json_read_jsonl(path, parse)]


@pytest.mark.parametrize("kind", sorted(_LINES))
def test_nesting_deeper_than_json_reads_in_a_key_no_parser_reads(tmp_path, kind):
    # Python's json refuses nesting beyond its recursion limit; orjson reads
    # any depth, so a line whose only deep value is one its parser never
    # looks at reads, where json alone failed it
    record = _LINES[kind][0]()
    record["extra"] = Raw(b"[" * 2000 + b"]" * 2000)
    path = tmp_path / "f.jsonl"
    path.write_bytes(_text(record) + b"\n")
    parse = _LINES[kind][1]
    (got,) = read_jsonl(path, parse)
    assert _comparable(got) == _comparable(parse(_LINES[kind][0]()))
    (refused,) = json_read_jsonl(path, parse)
    assert str(refused).startswith(f"{path}:1: invalid JSON (maximum recursion depth exceeded")


def test_json_reads_only_the_lines_that_fail(tmp_path, monkeypatch):
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
    rng = np.random.default_rng(3)
    grid = GridSpec(-4.0, -4.0, 0.5, 16, 16)
    lines = [heatmap_to_json(random_heatmap(rng, grid, 30), f"s{i}") for i in range(6)]
    path = tmp_path / "h.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert len([r for r in read_jsonl(path, heatmap_from_dict) if not isinstance(r, ValueError)]) == 6
    assert calls == []
    lines[1] = lines[1][:-5]
    lines[3] = "[1, 2]"
    lines[4] = lines[4].replace('"width":16', '"width":1.5')
    path.write_text("\n".join(lines) + "\n")
    read = list(read_jsonl(path, heatmap_from_dict))
    failed = [str(r).split(": ", 1)[0] for r in read if isinstance(r, ValueError)]
    assert failed == [f"{path}:2", f"{path}:4", f"{path}:5 (sample s4)"]
    assert len(calls) == 3


@pytest.fixture
def collector():
    """The cyclic garbage collector's on/off state, restored after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _collector_lines(tmp_path):
    """A JSONL file of: a good line, a line that orjson reads and ``parse``
    rejects, so that json reads it again, a line no parser reads, and a good
    line; and a ``parse`` that records whether the collector was on."""
    path = tmp_path / "f.jsonl"
    path.write_text('{"v": 0}\n{"w": 1}\n{"v": 2,\n{"v": 3}\n')
    seen = []

    def parse(d):
        seen.append(gc.isenabled())
        return d["v"]

    return path, parse, seen


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
def test_collector_is_paused_while_a_line_is_parsed(tmp_path, collector, enabled):
    (gc.enable if enabled else gc.disable)()
    path, parse, seen = _collector_lines(tmp_path)
    got = []
    for r in read_jsonl(path, parse):
        assert gc.isenabled() is enabled  # the consumer runs with the collector as it left it
        got.append(_as_read(r))
    assert got == [0, f"{path}:2: missing key 'v'", got[2], 3] and got[2].startswith(f"{path}:3: invalid JSON")
    # the second line is parsed twice: as orjson reads it, then as json does
    assert seen == [False, False, False, False]
    assert gc.isenabled() is enabled


def test_collector_is_restored_when_reading_stops_early(tmp_path, collector):
    gc.enable()
    path, parse, _ = _collector_lines(tmp_path)
    reader = read_jsonl(path, parse)
    assert next(reader) == 0
    reader.close()
    assert gc.isenabled()

    def fail(d):
        raise RuntimeError("not a bad record")

    with pytest.raises(RuntimeError):
        list(read_jsonl(path, fail))
    assert gc.isenabled()


def test_orjson_is_imported_on_first_read(tmp_path):
    # the CLI and synth, which read no JSONL, never load it
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code = (
        "import sys; from heatpred import cli, io; before = 'orjson' in sys.modules; "
        f"list(io.read_jsonl({str(path)!r}, dict)); print(before, 'orjson' in sys.modules)"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    assert loaded.split() == ["False", "True"]
