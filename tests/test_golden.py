"""Pinned bytes of every command's primary outputs.

Each command runs in-process on small seeded inputs built here, at
``--workers`` 1 and 2, and every file it writes, except ``run_meta.json``
(which holds timestamps), must have the size and sha256 recorded in
``golden.json``; so must its exit code. All paths are relative to the run's
directory, so no output depends on where the test runs.

A change that alters an output on purpose rewrites the table with
``PYTHONPATH=src python tests/test_golden.py``, which prints every run and
file that differs from the table it replaces, and names every changed file
and the reason in CHANGES.md. The pins hold for the Python and numpy
versions recorded in the table, like the ``synth`` pins in test_synth.py.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from heatpred.cli import main
from heatpred.io import write_json, write_jsonl

GOLDEN = Path(__file__).with_name("golden.json")

SETS = {
    tag: {"heatmaps": f"{tag}/heatmaps.jsonl", "ground_truth": f"{tag}/ground_truth.jsonl"}
    for tag in ("synth-1", "synth-2")
}

# (output directory, argv without --out, takes --workers), in run order
RUNS = [
    ("synth-1", ["synth", "--n", "30", "--seed", "1"], True),
    ("synth-2", ["synth", "--n", "30", "--seed", "2"], True),
    ("sample", ["sample", SETS["synth-1"]["heatmaps"]], True),
    ("evaluate-fixed", ["evaluate", *SETS["synth-1"].values(), "--config", "fixed.json"], True),
    ("calibrate", ["calibrate", *SETS["synth-1"].values(), "--config", "calibrate.json"], True),
    ("evaluate-adaptive", ["evaluate", *SETS["synth-2"].values(), "--config", "adaptive.json"], True),
    ("calibrate-mixed", ["calibrate", "--config", "mixed.json", "--seed", "5"], True),
    ("cross-eval", ["cross-eval", "manifest.json", "--svg"], True),
    (
        "uncertainty-error",
        ["analysis", "uncertainty-error", "evaluate-fixed/records.csv", "--config", "bins.json", "--svg"],
        False,
    ),
    ("standardize", ["standardize", "scenes.jsonl"], False),
    ("noise-report", ["analysis", "noise-report", "standardize/standardized.jsonl"], False),
    ("speed-report", ["analysis", "speed-report", "standardize/standardized.jsonl"], False),
]


def _scene(rng: np.random.Generator, i: int, rate_hz: float, past_s: float, future_s: float) -> dict:
    """A noisy, gently turning track sampled at ``rate_hz``."""
    ts = np.arange(-round(past_s * rate_hz), round(future_s * rate_hz) + 1) / rate_hz
    speed, turn = rng.uniform(0.5, 9.0), rng.uniform(-0.2, 0.2)
    heading = turn * ts
    xs = speed * ts * np.cos(heading) + rng.normal(0.0, 0.1, ts.size)
    ys = speed * ts * np.sin(heading) + rng.normal(0.0, 0.1, ts.size)
    rows = np.column_stack([ts, xs, ys])
    return {"id": f"scene-{i}", "dataset": "golden", "past": rows[ts <= 0].tolist(), "future": rows[ts > 0].tolist()}


def write_inputs(root: Path) -> None:
    """The configs, manifest and files the runs read besides synth's sets."""
    write_json(root / "fixed.json", {"radius": {"fixed": 2.0}, "k": 4})
    write_json(root / "calibrate.json", {"bin_width": 100.0, "min_count": 3, "dataset_tag": "synth-1"})
    write_json(root / "adaptive.json", {"radius": {"adaptive": "calibrate/model.json"}})
    write_json(root / "mixed.json", {
        "bin_width": 100.0, "min_count": 3, "dataset_tag": "mixed", "mixed_n": 40,
        "mixed_sources": [SETS["synth-1"], {**SETS["synth-2"], "weight": 2.0}],
    })
    # a test set whose line fails to parse fails its column: exit 2
    (root / "broken.jsonl").write_text('{"sample_id": "synth-000000"}\n')
    write_json(root / "manifest.json", {
        "models": [
            {"train_dataset": "synth-1", "calibration": "calibrate/model.json"},
            {"train_dataset": "mixed", "calibration": "calibrate-mixed/model.json"},
            {"train_dataset": "fixed", "fixed_radius": 1.0},
        ],
        "test_sets": [
            {"dataset": "synth-1", **SETS["synth-1"]},
            {"dataset": "synth-2", **SETS["synth-2"]},
            {"dataset": "broken", "heatmaps": "broken.jsonl", "ground_truth": SETS["synth-2"]["ground_truth"]},
        ],
        "sampling": {"k": 6},
    })
    write_json(root / "bins.json", {"bin_width": 2.0, "min_count": 1})
    rng = np.random.default_rng(17)
    # mixed rates; the last scene is too short to standardize: exit 2
    scenes = [_scene(rng, i, rate, 1.5, 3.5) for i, rate in enumerate((5.0, 10.0, 20.0, 2.0, 10.0, 5.0))]
    scenes.append(_scene(rng, 6, 10.0, 0.5, 3.5))
    write_jsonl(root / "scenes.jsonl", scenes)


def run_all(workers: int) -> dict:
    """Every run of RUNS in the working directory: its exit code, and the
    size and sha256 of each file it wrote but run_meta.json."""
    write_inputs(Path("."))
    table = {}
    for out, argv, takes_workers in RUNS:
        flags = ["--workers", str(workers)] if takes_workers else []
        code = main([*argv, *flags, "--out", out])
        files = {}
        for path in sorted(Path(out).rglob("*")):
            if path.is_file() and path.name != "run_meta.json":
                data = path.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                files[path.relative_to(out).as_posix()] = {"size": len(data), "sha256": digest}
        table[out] = {"exit": code, "files": files}
    return table


@pytest.mark.parametrize("workers", [1, 2])
def test_outputs_match_the_golden_table(tmp_path, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)
    got = run_all(workers)
    golden = json.loads(GOLDEN.read_text())
    pinned = golden["runs"]
    changed = [out for out in pinned.keys() | got.keys() if got.get(out) != pinned.get(out)]
    assert not changed, (
        f"outputs differ from golden.json: {sorted(changed)}; recorded with Python {golden['python']} and numpy "
        f"{golden['numpy']}, running Python {platform.python_version()} and numpy {np.__version__}"
    )


def changes(old: dict, new: dict) -> list[str]:
    """One line per run whose exit code, and per file whose size or sha256,
    differs between tables ``old`` and ``new``; a missing entry reads None."""

    def described(entry):
        return None if entry is None else f"{entry['size']} bytes, sha256 {entry['sha256'][:12]}"

    lines = []
    for out in sorted(old.keys() | new.keys()):
        was, now = old.get(out, {}), new.get(out, {})
        if was.get("exit") != now.get("exit"):
            lines.append(f"{out}: exit {was.get('exit')} -> {now.get('exit')}")
        files_was, files_now = was.get("files", {}), now.get("files", {})
        for name in sorted(files_was.keys() | files_now.keys()):
            if files_was.get(name) != files_now.get(name):
                lines.append(f"{out}/{name}: {described(files_was.get(name))} -> {described(files_now.get(name))}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        runs = run_all(workers=1)
    replaced = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else {}
    recorded = {"python": platform.python_version(), "numpy": np.__version__, "runs": runs}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(runs)} runs)", file=sys.stderr)
    for line in changes(replaced, runs) or ["no run or file changed"]:
        print(f"  {line}", file=sys.stderr)
