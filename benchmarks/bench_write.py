#!/usr/bin/env python3
"""Time the synth write path per scenario: render, then encode one heatmap line.

For each scenario of the default ``ScenarioConfig`` it times
``render_mixture``, the direct line encoder ``heatmap_to_json``, the dict
route ``canonical_dumps(heatmap_to_dict(...))`` it replaced, the
probability text the encoder writes (``_prob_text``: orjson's digits in
``repr``'s layout) and the float ``repr`` of the probabilities that it
replaced. It exits non-zero if, for any scenario, the encoder's bytes differ
from the dict route's or the probability text from ``repr``'s. The last line
gives the encoder's time above its probability text: the index text, the
separators and the joins. Each figure is the best of ``--repeats`` calls,
summed over the scenarios. End-to-end numbers come from ``perfbench/``.

Usage: python benchmarks/bench_write.py [--n N] [--seed S] [--repeats R]
"""

import argparse
import time

from heatpred.heatmap import _prob_text, heatmap_to_dict, heatmap_to_json, render_mixture
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
    render_s = encode_s = dict_s = prob_s = repr_s = 0.0
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
        t, text = best_of(lambda: _prob_text(h.prob), args.repeats)
        prob_s += t
        t, reprs = best_of(lambda: list(map(repr, h.prob.tolist())), args.repeats)
        repr_s += t
        if line != ref:
            raise SystemExit(f"scenario {i}: encoder bytes differ from the dict route")
        if text != reprs:
            raise SystemExit(f"scenario {i}: probability text differs from repr")
        cells += len(h)

    print(f"{args.n} scenarios, {cells} cells (seed {args.seed}, best of {args.repeats})")
    print(f"{'stage':<40} {'total s':>9} {'ms/scenario':>12}")
    for name, s in (
        ("render_mixture", render_s),
        ("heatmap_to_json", encode_s),
        ("canonical_dumps(heatmap_to_dict(...))", dict_s),
        ("probability text (_prob_text)", prob_s),
        ("float repr of the probabilities", repr_s),
        ("heatmap_to_json above _prob_text", encode_s - prob_s),
    ):
        print(f"{name:<40} {s:>9.3f} {s / args.n * 1e3:>12.2f}")


if __name__ == "__main__":
    main()
