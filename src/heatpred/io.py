"""Small JSON/JSONL helpers with deterministic serialization."""

from __future__ import annotations

import hashlib
import json
from itertools import islice
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


def _jsonl_lines(path) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped text) of every non-blank line."""
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if line:
                yield line_no, line


def _loads_line(path, line_no: int, line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{line_no}: invalid JSON ({e})") from e


def read_jsonl(path) -> Iterator[dict]:
    for line_no, line in _jsonl_lines(path):
        yield _loads_line(path, line_no, line)


def read_jsonl_lenient(path) -> Iterator[dict | ValueError]:
    """Like :func:`read_jsonl`, but a line that is not JSON yields the
    ValueError ``read_jsonl`` would raise (naming ``path:line``) and reading goes on."""
    for line_no, line in _jsonl_lines(path):
        try:
            value = _loads_line(path, line_no, line)
        except ValueError as e:
            value = e
        yield value


def jsonl_line_number(path, index: int) -> int:
    """Line number of the record that ``read_jsonl(path)`` yields at 0-based ``index``."""
    return next(islice(_jsonl_lines(path), index, None))[0]


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
