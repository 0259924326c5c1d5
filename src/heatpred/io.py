"""Small JSON/JSONL helpers with deterministic serialization."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Iterator


def canonical_dumps(obj, indent: int | None = None) -> str:
    """JSON text with sorted keys; identical input always gives identical bytes."""
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=indent)


def config_hash(obj) -> str:
    """Short stable digest of a JSON-serializable config."""
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()[:16]


def _jsonl_lines(path, start: int = 0, end: int | None = None) -> Iterator[tuple[int, bytes]]:
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


def line_number(path, offset: int) -> int:
    """1-based number of the line of ``path`` that starts at byte ``offset``."""
    with open(path, "rb") as f:
        return f.read(offset).count(b"\n") + 1


def _loads_line(path, offset: int, line: bytes):
    try:
        return json.loads(line)
    except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError for bytes that are not UTF-8
        raise ValueError(f"{path}:{line_number(path, offset)}: invalid JSON ({e})") from e


def read_jsonl(path) -> Iterator[tuple[int, object]]:
    """(byte offset, record) of every non-blank line; a line that is not JSON
    raises a ValueError naming ``path:line``."""
    for offset, line in _jsonl_lines(path):
        yield offset, _loads_line(path, offset, line)


def read_jsonl_lenient(path, start: int = 0, end: int | None = None) -> Iterator[tuple[int, object]]:
    """Like :func:`read_jsonl` over the lines that start in bytes ``[start, end)``,
    but a line that is not JSON yields the ValueError ``read_jsonl`` would raise
    and reading goes on."""
    for offset, line in _jsonl_lines(path, start, end):
        try:
            value = _loads_line(path, offset, line)
        except ValueError as e:
            value = e
        yield offset, value


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


def write_jsonl(path, rows: Iterable[dict]) -> int:
    n = 0
    with open(path, "w") as f:
        for row in rows:
            f.write(canonical_dumps(row) + "\n")
            n += 1
    return n


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj, indent=2) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
