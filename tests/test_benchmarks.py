"""The micro-benchmark scripts run to the end, so a library or CLI name they
use that is renamed or removed fails here instead of breaking them silently."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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
