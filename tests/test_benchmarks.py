"""The micro-benchmark script and the perfbench tracer run to the end, so a
library or CLI name either uses that is renamed or removed fails here instead of
breaking them silently."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def micro_run():
    # fewer heatmaps are too sparse for the read section's calibrate config
    args = ["--repeats", "1", "--scenarios", "4", "--heatmaps", "40"]
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "micro.py"), *args],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )


# One run of micro.py; each case checks the sections that took over the
# script it is named after, from the three micro.py replaced.
@pytest.mark.parametrize(
    "sections",
    [
        pytest.param(["kernel"], id="bench_nms.py-args0"),
        pytest.param(["heatmap"], id="bench_write.py-args1"),
        pytest.param(["pool", "read"], id="bench_read.py-args2"),
    ],
)
def test_script_exits_0(micro_run, sections):
    assert micro_run.returncode == 0, micro_run.stderr
    for section in sections:
        assert f"== {section} " in micro_run.stdout


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
