#!/usr/bin/env python3
"""Micro-benchmarks of the library stages behind the heatpred commands.

Four sections; each figure is the best of ``--repeats`` runs.

pool     ``pool.map_ordered`` at 2 workers: an empty 8-task map, the cost to
         start and stop the workers, paid once per map; and a 16-task map in
         which every fourth task sleeps 20 ms, the makespan of unequal tasks
         (80 ms of sleep, 40 ms when the workers share it evenly).
kernel   One k=6 extraction with scores (``kernels.nms_kernel``) and the
         50-radius sweep calibration runs per heatmap (``kernels.nms_sweep``,
         no scores), on uniform-random heatmaps of several sizes and on the
         first four rendered mixtures, whose large radii need longer prefixes.
heatmap  Summed over ``--scenarios`` scenarios: ``render_mixture``,
         ``uncertainty``, the line encoder ``heatmap_to_json``, its probability
         text ``_prob_text`` and the encoder's time above that text.
read     ``sets.read_sets`` over ``--heatmaps`` heatmaps that ``heatpred
         synth`` writes into ``--dir`` unless it holds them: parsing alone and
         with calibrate's spread and radius sweep, at 1 and 2 workers, as wall
         time per heatmap; then whole ``heatpred calibrate`` runs.

End-to-end numbers come from ``perfbench/``. The tests pin the encoder's
bytes and that no output depends on the worker count.
"""

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from heatpred import kernels
from heatpred.calibration import RadiusSweepConfig, optimal_radius
from heatpred.heatmap import GridSpec, Heatmap, _prob_text, heatmap_to_json, render_mixture, uncertainty
from heatpred.io import write_json
from heatpred.pool import map_ordered
from heatpred.sets import read_sets
from heatpred.synth import ScenarioConfig, draw_mixture, sample_scenario, scenario_id

def best_of(fn, repeats):
    """The least wall time of ``repeats`` calls of ``fn``, and what the last call returned."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def nothing(*_):
    """A pool task, or a read's per-heatmap work, that does nothing."""


def sleep_every_fourth(state, task):
    time.sleep(0.02 if task % 4 == 0 else 0.0)


def pool(args, cfg):
    empty, _ = best_of(lambda: list(map_ordered(nothing, range(8), 2)), args.repeats)
    print(f"empty 8-task map at 2 workers: {empty * 1e3:.1f} ms")
    unequal, _ = best_of(lambda: list(map_ordered(sleep_every_fourth, range(16), 2)), args.repeats)
    print(f"16-task map at 2 workers, every fourth task sleeping 20 ms: {unequal * 1e3:.1f} ms")


def uniform_heatmap(rng, n_cells):
    grid = GridSpec(-48.0, -48.0, 0.5, 192, 192)
    idx = rng.choice(grid.n_cells, size=n_cells, replace=False).astype(np.int64)
    return Heatmap(grid, idx, rng.random(n_cells) ** 2 + 1e-9)


def kernel(args, cfg):
    rng = np.random.default_rng(args.seed)
    radii = RadiusSweepConfig().r_values
    heatmaps = [(f"uniform {n}", uniform_heatmap(rng, n)) for n in (500, 2_000, 8_000, 20_000)]
    heatmaps += [(f"mixture {i}", sample_scenario(cfg, i)[0]) for i in range(4)]
    print(f"{'heatmap':<14} {'cells':>7} {'nms k=6 r=1.5':>14} {'50-radius sweep':>16}")
    for name, h in heatmaps:
        xs, ys = h.cell_centers()
        single, _ = best_of(lambda: kernels.nms_kernel(xs, ys, h.prob, 1.5, 6), args.repeats)
        sweep, _ = best_of(lambda: kernels.nms_sweep(xs, ys, h.prob, radii, 6, scores=False), args.repeats)
        print(f"{name:<14} {len(h):>7} {single * 1e3:>11.3f} ms {sweep * 1e3:>13.2f} ms")


def heatmap(args, cfg):
    totals = dict.fromkeys(("render_mixture", "uncertainty", "heatmap_to_json", "_prob_text"), 0.0)
    cells = 0
    for i in range(args.scenarios):
        mix, _ = draw_mixture(cfg, i)
        t, h = best_of(lambda: render_mixture(mix, cfg.grid, cfg.truncate_sigmas), args.repeats)
        totals["render_mixture"] += t
        totals["uncertainty"] += best_of(lambda: uncertainty(h), args.repeats)[0]
        totals["heatmap_to_json"] += best_of(lambda: heatmap_to_json(h, scenario_id(i)), args.repeats)[0]
        totals["_prob_text"] += best_of(lambda: _prob_text(h.prob), args.repeats)[0]
        cells += len(h)
    totals["heatmap_to_json above _prob_text"] = totals["heatmap_to_json"] - totals["_prob_text"]
    print(f"{args.scenarios} scenarios, {cells} cells (seed {args.seed})")
    print(f"{'stage':<34} {'total s':>9} {'ms/scenario':>12}")
    for name, s in totals.items():
        print(f"{name:<34} {s:>9.3f} {s / args.scenarios * 1e3:>12.2f}")


def spread_and_radius(sid, h, gt):
    """``calibrate``'s per-heatmap work at its default k and sweep."""
    return uncertainty(h).spread, optimal_radius(h, gt)


def heatpred(*argv):
    subprocess.run([sys.executable, "-m", "heatpred", *argv], check=True, stderr=subprocess.DEVNULL)


def read(args, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(args.dir or tmp)
        hp, gp = data / "heatmaps.jsonl", data / "ground_truth.jsonl"
        if not hp.exists():
            # in another process, so that this one times the read with a small heap
            heatpred("synth", "--n", str(args.heatmaps), "--seed", str(args.seed), "--out", str(data))

        def rows(work, workers):
            (result,), _ = read_sets([(hp, gp)], work, workers)
            if isinstance(result, Exception):
                raise result
            return result

        print(f"{'workers':>7} {'parse s':>9} {'ms/heatmap':>11} {'sweep s':>9} {'ms/heatmap':>11}")
        for w in (1, 2):
            parse_s, parsed = best_of(lambda: rows(nothing, w), args.repeats)
            sweep_s = best_of(lambda: rows(spread_and_radius, w), args.repeats)[0] - parse_s
            n = len(parsed)
            print(f"{w:>7} {parse_s:>9.3f} {parse_s / n * 1e3:>11.2f} {sweep_s:>9.3f} {sweep_s / n * 1e3:>11.2f}")
        print(f"over {n} heatmaps, {hp.stat().st_size / 1e6:.1f} MB")

        config = data / "calibrate.json"
        write_json(config, {"bin_width": 200.0, "min_count": 5})
        for w in (1, 2):
            argv = ["calibrate", str(hp), str(gp), "--config", str(config),
                    "--workers", str(w), "--out", str(data / f"calibrate-w{w}")]
            wall, _ = best_of(lambda: heatpred(*argv), args.repeats)
            print(f"heatpred calibrate --workers {w}: {wall:.3f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=3, help="runs per figure, of which the best is printed")
    parser.add_argument("--seed", type=int, default=1, help="seed of the uniform heatmaps, scenarios and dataset")
    parser.add_argument("--scenarios", type=int, default=50, help="scenarios timed in the heatmap section")
    parser.add_argument("--heatmaps", type=int, default=1000, help="heatmaps of the dataset the read section times")
    parser.add_argument("--dir", default=None, help="keep the dataset here (default: a temporary directory)")
    args = parser.parse_args()
    for title, section in (("pool", pool), ("kernel", kernel), ("heatmap", heatmap), ("read", read)):
        print(f"== {title} (best of {args.repeats})")
        section(args, ScenarioConfig(seed=args.seed))


if __name__ == "__main__":
    main()
