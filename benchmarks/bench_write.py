#!/usr/bin/env python3
"""Time the synth write path per scenario: render, then encode one heatmap line.

For each scenario of the default ``ScenarioConfig`` it times
``render_mixture``, the direct line encoder ``heatmap_to_json``, the dict
route ``canonical_dumps(heatmap_to_dict(...))`` it replaced (both give the
same bytes), and the float ``repr`` of the probabilities alone, which every
route pays and so is the encoder's floor. The last line gives the encoder's
time above that floor: the index text, the separators and the joins. Each
figure is the best of ``--repeats`` calls, summed over the scenarios.
End-to-end numbers come from ``perfbench/``.

Usage: python benchmarks/bench_write.py [--n N] [--seed S] [--repeats R]
"""

import argparse
import time

from heatpred.heatmap import heatmap_to_dict, heatmap_to_json, render_mixture
from heatpred.io import canonical_dumps
from heatpred.synth import ScenarioConfig, draw_mixture, scenario_id


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    cfg = ScenarioConfig(seed=args.seed)
    render_s = encode_s = dict_s = floor_s = 0.0
    cells = 0
    for i in range(args.n):
        mix, _ = draw_mixture(cfg, i)
        sid = scenario_id(i)
        t, h = best_of(lambda: render_mixture(mix, cfg.grid, cfg.truncate_sigmas), args.repeats)
        render_s += t
        t, line = best_of(lambda: heatmap_to_json(h, sid), args.repeats)
        encode_s += t
        t, ref = best_of(lambda: canonical_dumps(heatmap_to_dict(h, sid)), args.repeats)
        dict_s += t
        t, _ = best_of(lambda: list(map(repr, h.prob.tolist())), args.repeats)
        floor_s += t
        if line != ref:
            raise SystemExit(f"scenario {i}: encoder bytes differ from the dict route")
        cells += len(h)

    print(f"{args.n} scenarios, {cells} cells (seed {args.seed}, best of {args.repeats})")
    print(f"{'stage':<40} {'total s':>9} {'ms/scenario':>12}")
    for name, s in (
        ("render_mixture", render_s),
        ("heatmap_to_json", encode_s),
        ("canonical_dumps(heatmap_to_dict(...))", dict_s),
        ("float repr floor", floor_s),
        ("heatmap_to_json above the floor", encode_s - floor_s),
    ):
        print(f"{name:<40} {s:>9.3f} {s / args.n * 1e3:>12.2f}")


if __name__ == "__main__":
    main()
