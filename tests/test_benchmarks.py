"""The micro-benchmark scripts and the perfbench tracer run to the end, so a
library or CLI name they use that is renamed or removed fails here instead of
breaking them silently."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.parametrize(
    "script, args",
    [
        ("bench_nms.py", ["--repeats", "1"]),
        ("bench_write.py", ["--n", "4", "--repeats", "1"]),
        # fewer heatmaps are too sparse for the script's calibrate config
        ("bench_read.py", ["--n", "40", "--repeats", "1"]),
    ],
)
def test_script_exits_0(script, args):
    r = subprocess.run(
        [sys.executable, str(BENCHMARKS / script), *args],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr


def _traced(trace_dir: Path, *argv: str) -> set[str]:
    """Run one CLI command under the tracer, which binds its wrappers onto
    ``src`` names by attribute; the names of the spans it recorded."""
    trace_dir.mkdir()
    trace = trace_dir / "trace.json"
    r = subprocess.run(
        [sys.executable, str(TRACER), str(trace), *argv],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    return {name for name, *_ in json.loads(trace.read_text())["spans"]}


def test_tracer_spans_the_benchmarked_layers(tmp_path):
    # one worker: spans are kept only in the traced process
    data = tmp_path / "data"
    spans = _traced(tmp_path / "t0", "synth", "--n", "8", "--seed", "1", "--workers", "1", "--out", str(data))
    assert "heatmap.render_mixture" in spans
    config = tmp_path / "calibrate.json"
    config.write_text(json.dumps({"bin_width": 100.0, "min_count": 1}))
    spans = _traced(
        tmp_path / "t1", "calibrate", str(data / "heatmaps.jsonl"), str(data / "ground_truth.jsonl"),
        "--config", str(config), "--workers", "1", "--out", str(tmp_path / "cal"),
    )
    assert "calibration.optimal_radius" in spans
