"""JSON/JSONL/CSV helpers: deterministic serialization, the one JSONL record
loader, the staged writers of every output, and the strict readers of config
values and of the fields of records."""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO


def canonical_dumps(obj, indent: int | None = None) -> str:
    """JSON text with sorted keys; identical input always gives identical bytes."""
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=indent)


def config_hash(obj) -> str:
    """Short stable digest of a JSON-serializable config."""
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()[:16]


def _jsonl_lines(path, start: int, end: int | None) -> Iterator[tuple[int, bytes]]:
    """(byte offset, stripped bytes) of every non-blank line that starts in bytes
    ``[start, end)`` of ``path``; lines end at ``\\n``."""
    with open(path, "rb") as f:
        f.seek(start)
        offset = start
        for raw in f:
            if end is not None and offset >= end:
                break
            line = raw.strip()
            if line:
                yield offset, line
            offset += len(raw)


def _line_number(path, offset: int, known: tuple[int, int]) -> int:
    """1-based number of the line of ``path`` that starts at byte ``offset``,
    counted on from ``known``, the (byte offset, number) of a line that starts
    at or before it."""
    at, number = known
    with open(path, "rb") as f:
        f.seek(at)
        return number + f.read(offset - at).count(b"\n")


# What a record's parser may raise for a bad record.
_BAD_RECORD = (KeyError, IndexError, TypeError, ValueError, OverflowError)


def _json_parsed(line: bytes, parse: Callable[[dict], object]) -> tuple[object, str | None]:
    """``(parse(record), None)`` for the record of ``line`` as Python's json
    module reads it, or, when that fails, ``(None, " (sample <id>): <reason>")``
    (the sample part only when the record names one)."""
    record = None
    try:
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as e:  # also bytes that are not UTF-8, or nesting too deep
            raise ValueError(f"invalid JSON ({e})") from None
        if not isinstance(record, dict):
            raise ValueError("record must be a JSON object")
        return parse(record), None
    except _BAD_RECORD as e:
        sid = record.get("sample_id", record.get("id")) if isinstance(record, dict) else None
        who = "" if sid is None else f" (sample {sid if isinstance(sid, str) else _shown(sid)})"
        why = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        return None, f"{who}: {why}"


def _parsed(line: bytes, parse: Callable[[dict], object], loads) -> tuple[object, str | None]:
    """``(parse(record), None)`` for the record of ``line`` as ``loads``
    (orjson's) reads it, or, when that fails, what :func:`_json_parsed` gives.
    The record is dropped on return."""
    try:
        record = loads(line)
        if not isinstance(record, dict):
            raise TypeError  # json's reading words the message
        return parse(record), None
    except _BAD_RECORD:  # orjson.JSONDecodeError is a ValueError
        return _json_parsed(line, parse)


def read_jsonl(path, parse: Callable[[dict], object], start: int = 0, end: int | None = None) -> Iterator:
    """``parse(record)`` for every non-blank line of ``path`` that starts in bytes
    ``[start, end)`` (by default, the whole file), in file order.

    A line that is not a JSON object, or whose record ``parse`` rejects with a
    KeyError, IndexError, TypeError, ValueError or OverflowError, yields
    instead a ValueError reading ``path:line (sample <id>): <reason>``, the
    sample id (or scene id) named when the record has one; reading goes on
    after it. Each line number is counted on from the last one.

    Lines are decoded by orjson. A line that orjson refuses, that is not an
    object, or whose record ``parse`` rejects, is read again by Python's json
    module, and that reading is kept: so a failing line fails with json's
    values and message. orjson reads an integer beyond 64 bits as the
    nearest float, and nesting of any depth.

    The cyclic garbage collector is paused from the decoding of each line
    until ``parse`` has returned and the record is dropped; at each ``yield``
    it is as the caller left it.
    """
    import orjson  # here, not at the top: --version and `import heatpred.cli` skip its import

    numbered = (0, 1)  # (byte offset, number) of the last line numbered
    for offset, line in _jsonl_lines(path, start, end):
        # a decoded heatmap is thousands of [index, probability] lists that
        # hold no cycle and that refcounting frees with the record; the
        # collector would only scan them again and again
        enabled = gc.isenabled()
        gc.disable()
        try:
            value, why = _parsed(line, parse, orjson.loads)
        finally:
            if enabled:
                gc.enable()
        if why is not None:
            numbered = (offset, _line_number(path, offset, numbered))
            value = ValueError(f"{path}:{numbered[1]}{why}")
        yield value


def jsonl_ranges(path, parts: int) -> list[tuple[int, int]]:
    """Split ``path`` at line ends into at most ``parts`` contiguous, non-empty
    byte ranges ``(start, end)`` of about equal size that cover the whole file."""
    size = os.path.getsize(path)
    cuts = [0]
    with open(path, "rb") as f:
        for i in range(1, parts):
            f.seek(max(size * i // parts, cuts[-1]))
            f.readline()
            cuts.append(f.tell())
    cuts.append(size)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


@contextmanager
def staged_files(*paths) -> Iterator[list[TextIO]]:
    """Text files open for writing that take the place of ``paths`` only if
    the block succeeds.

    Each is written under a temporary name beside its path (the path plus
    ``.tmp``) and moved onto the path with ``os.replace`` once the block has
    ended without an exception; otherwise the temporary files are removed
    and ``paths`` are left as they were. So no reader finds a half-written
    file under a final name. Line ends are written as given.
    """
    tmps = [Path(f"{p}.tmp") for p in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(t, "w", newline="")) for t in tmps]
        for t, p in zip(tmps, paths):
            os.replace(t, p)
    except BaseException:
        for t in tmps:
            t.unlink(missing_ok=True)
        raise


# The writers below write through staged_files: a failure part-way leaves
# the path as it was.


def write_jsonl(path, rows: Iterable[dict]) -> int:
    n = 0
    with staged_files(path) as (f,):
        for row in rows:
            f.write(canonical_dumps(row) + "\n")
            n += 1
    return n


def write_csv(path, header: list[str], rows: Iterable, cfg_hash: str) -> None:
    """A CSV table under a config-hash comment line; floats are written by ``repr``."""
    with staged_files(path) as (f,):
        f.write(f"# config_hash={cfg_hash}\n")
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_json(path, obj) -> None:
    write_text(path, canonical_dumps(obj, indent=2) + "\n")


def write_text(path, text: str) -> None:
    with staged_files(path) as (f,):
        f.write(text)


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


# Strict readers of the values of configs, manifests, scenario configs, model
# files and the fields of records. Each returns ``value`` as stored, or
# raises a ValueError that starts with ``where``, such as "config key k".


def _shown(value) -> str:
    """``repr(value)`` for a message, cut after 40 characters with a mark that says how long it was."""
    try:
        text = repr(value)
    except RecursionError:  # nested deeper than repr can go, as orjson reads any depth
        return f"a {type(value).__name__} nested too deeply to show"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def number(value, where: str):
    """A JSON number that converts to a float; neither a bool nor NaN, which
    Python's json module reads but JSON does not have, is one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ValueError(f"{where}: {_shown(value)} is not a valid float")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{where}: {_shown(value)} is too large for a float")
    return value


def finite(value, where: str) -> float:
    """A JSON number as a float that is neither infinite nor NaN, such as a
    ground-truth coordinate; 1e400 and a JSON ``Infinity`` read as infinite."""
    value = float(number(value, where))
    if not math.isfinite(value):
        raise ValueError(f"{where}: {value!r} is not finite")
    return value


def integer(value, where: str, at_least: int | None = None) -> int:
    """A JSON integer, not below ``at_least`` unless that is None; neither a
    bool nor a number written with a fraction or exponent, such as 6.0, is one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: {_shown(value)} is not a valid int")
    if at_least is not None and value < at_least:
        raise ValueError(f"{where}: must be at least {at_least}, got {_shown(value)}")
    return value


def numbers(value, where: str, n: int | None = None, item=number) -> tuple:
    """A JSON list of values read by ``item``, as a tuple; of length ``n`` unless ``n`` is None."""
    if not isinstance(value, list) or n is not None and len(value) != n:
        raise ValueError(f"{where}: {_shown(value)} is not a list" + ("" if n is None else f" of {n} values"))
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def string(value, where: str) -> str:
    """A JSON string, such as the sample id of a heatmap or ground-truth line."""
    if not isinstance(value, str):
        raise ValueError(f"{where}: {_shown(value)} is not a string")
    return value


def boolean(value, where: str) -> bool:
    """A JSON ``true`` or ``false``; neither 0, 1 nor a string such as "no" is one."""
    if not isinstance(value, bool):
        raise ValueError(f"{where}: {_shown(value)} is not a bool")
    return value
