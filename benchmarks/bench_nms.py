#!/usr/bin/env python3
"""Time the NMS kernel on one extraction and on a 50-radius sweep.

The sweep is what calibration runs per heatmap: one ``kernels.nms_sweep``
call that walks all 50 radii at once over one probability sort and skips
scores, as ``radius_sweep_errors`` does for l >= k. It is timed next to a
single k=6 extraction (``kernels.nms_kernel``, with scores) on two kinds of
heatmap: uniform-random cells of several sizes, and rendered mixtures of the
default ``ScenarioConfig``, the shape ``calibrate`` sees. On the mixtures the
large radii run out of the first sorted prefix, so the sweep sorts and walks
longer prefixes (up to 1,024 candidates) for them; uniform-random cells
rarely do. End-to-end numbers come from ``perfbench/``.

Usage: python benchmarks/bench_nms.py [--repeats N]
"""

import argparse
import time

import numpy as np

from heatpred import kernels
from heatpred.heatmap import GridSpec, Heatmap
from heatpred.synth import ScenarioConfig, sample_scenario


def make_heatmap(rng, n_cells):
    side = 192
    grid = GridSpec(-48.0, -48.0, 0.5, side, side)
    idx = rng.choice(grid.n_cells, size=n_cells, replace=False).astype(np.int64)
    prob = rng.random(n_cells) ** 2 + 1e-9
    return Heatmap(grid, idx, prob)


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(1)
    sweep = tuple(round(0.1 * i, 10) for i in range(1, 51))
    heatmaps = [(f"uniform {n}", make_heatmap(rng, n)) for n in (500, 2_000, 8_000, 20_000)]
    cfg = ScenarioConfig(seed=1)
    heatmaps += [(f"mixture {i}", sample_scenario(cfg, i)[0]) for i in range(4)]

    print(f"{'heatmap':<14} {'cells':>7} {'nms k=6 r=1.5':>14} {'50-radius sweep':>16}")
    for name, h in heatmaps:
        xs, ys = h.cell_centers()
        single = time_call(lambda: kernels.nms_kernel(xs, ys, h.prob, 1.5, 6), args.repeats)
        full = time_call(
            lambda: kernels.nms_sweep(xs, ys, h.prob, sweep, 6, scores=False), args.repeats
        )
        print(f"{name:<14} {len(h):>7} {single * 1e3:>11.3f} ms {full * 1e3:>13.2f} ms")

if __name__ == "__main__":
    main()
