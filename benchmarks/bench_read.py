#!/usr/bin/env python3
"""Time the read path of the heatmap commands through the set reader, at 1 and 2 workers.

Writes one synthetic dataset of ``--n`` heatmaps with ``heatpred synth``
(default scenario config, about 170 kB per heatmap line) unless ``--dir``
already holds one, then times ``sets.read_sets`` over it and its ground truth
twice per worker count: with work that does nothing, which leaves the JSON
parse and ``heatmap_from_dict`` with its renormalization, and with ``calibrate``'s
per-heatmap work (spread and radius sweep). Parse time per heatmap is the
first figure, sweep time per heatmap the difference; both are wall time of
the whole read divided by the heatmap count, so they fall with the worker
count when the read scales. Last, whole ``heatpred calibrate`` processes run
at each worker count; their ``model.json``, ``binned_radii.csv`` and their
``run_meta.json`` apart from ``timestamp_utc`` and ``workers`` must not differ.
Each figure is the best of ``--repeats`` runs.

Usage: python benchmarks/bench_read.py [--n N] [--seed S] [--repeats R] [--dir DIR]
"""

import argparse
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

from heatpred import cli, sets
from heatpred.calibration import RadiusSweepConfig
from heatpred.io import read_json, write_json

WORKERS = (1, 2)


def heatpred(argv):
    subprocess.run([sys.executable, "-m", "heatpred", *argv], check=True, stderr=subprocess.DEVNULL)


def parse_only(sid, h, gt):
    return None


def read(paths, work, workers):
    """The rows of the one set in ``paths``; a set that fails raises."""
    return cli._raised(sets.read_sets(paths, work, workers)[0][0])


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--dir", default=None, help="keep the dataset here (default: a temporary directory)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(args.dir or tmp)
        hp, gp = data / "heatmaps.jsonl", data / "ground_truth.jsonl"
        if not hp.exists():
            # in another process, so that this one times the read with a small heap
            heatpred(["synth", "--n", str(args.n), "--seed", str(args.seed), "--out", str(data)])
        paths = [(hp, gp)]
        sweep = partial(cli._sweep, k=6, sweep=RadiusSweepConfig())
        n = len(sets._load_ground_truth(gp))
        print(f"{n} heatmaps, {hp.stat().st_size / 1e6:.1f} MB (best of {args.repeats})")
        print(f"{'workers':>7} {'parse s':>9} {'ms/heatmap':>11} {'sweep s':>9} {'ms/heatmap':>11}")
        for w in WORKERS:
            parse_s = best_of(lambda: read(paths, parse_only, w), args.repeats)
            total_s = best_of(lambda: read(paths, sweep, w), args.repeats)
            sweep_s = total_s - parse_s
            print(f"{w:>7} {parse_s:>9.3f} {parse_s / n * 1e3:>11.2f} {sweep_s:>9.3f} {sweep_s / n * 1e3:>11.2f}")

        config = data / "calibrate.json"
        write_json(config, {"bin_width": 200.0, "min_count": 5})
        walls = {}
        for w in WORKERS:
            argv = ["calibrate", str(hp), str(gp), "--config", str(config),
                    "--workers", str(w), "--out", str(data / f"calibrate-w{w}")]
            walls[w] = best_of(lambda: heatpred(argv), args.repeats)
            print(f"heatpred calibrate --workers {w}: {walls[w]:.3f} s")
        for name, value_of in (
            ("model.json", Path.read_bytes),
            ("binned_radii.csv", Path.read_bytes),
            ("run_meta.json", lambda path: {
                key: value for key, value in read_json(path).items() if key not in ("timestamp_utc", "workers")
            }),
        ):
            first, *rest = (value_of(data / f"calibrate-w{w}" / name) for w in WORKERS)
            if any(value != first for value in rest):
                raise SystemExit(f"{name} differs between worker counts")
        print(f"--workers {WORKERS[-1]} saves {1 - walls[WORKERS[-1]] / walls[WORKERS[0]]:.0%} of the wall time")


if __name__ == "__main__":
    main()
