#!/usr/bin/env python3
"""Time the NMS kernel on one extraction and on a 50-radius sweep.

The sweep is what calibration runs per heatmap: one ``kernels.nms_sweep``
call that shares the probability sort across all 50 radii and skips scores,
as ``radius_sweep_errors`` does for l >= k. It is timed next to a single k=6
extraction (``kernels.nms_kernel``, with scores) for each heatmap size.
End-to-end numbers come from ``perfbench/``.

Usage: python benchmarks/bench_nms.py [--repeats N]
"""

import argparse
import time

import numpy as np

from heatpred import kernels
from heatpred.heatmap import GridSpec, Heatmap


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
    sizes = (500, 2_000, 8_000, 20_000)

    print(f"{'cells':>7} {'nms k=6 r=1.5':>14} {'50-radius sweep':>16}")
    for n_cells in sizes:
        h = make_heatmap(rng, n_cells)
        xs, ys = h.cell_centers()
        single = time_call(lambda: kernels.nms_kernel(xs, ys, h.prob, 1.5, 6), args.repeats)
        full = time_call(
            lambda: kernels.nms_sweep(xs, ys, h.prob, sweep, 6, scores=False), args.repeats
        )
        print(f"{n_cells:>7} {single * 1e3:>11.3f} ms {full * 1e3:>13.2f} ms")


if __name__ == "__main__":
    main()
