#!/usr/bin/env python3
"""Run one heatpred CLI command in-process, with a span around every layer call.

Usage: python3 perfbench/tracer.py TRACE_JSON CLI_ARG...

The wrappers live here, not in ``src/``: they are bound onto the module
attributes that the callers look up at call time (``heatpred.cli.read_jsonl``,
``heatpred.sampling.nms_sample``, ``heatpred.kernels.nms_kernel``, ...), so
the program runs unchanged apart from the wrapper calls. Spans (name, start,
end, parent) are kept in memory and written once, with the counts, when the
command returns; the trace file is the run's identifier. Pool workers forked
under ``--workers N`` inherit the wrappers; they keep counts but no spans,
and write the counts when they exit.

``layer_metrics`` turns a trace file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util
from pathlib import Path

# Layers whose self time is reported as "<span>.s".
TIMED_SPANS = (
    "io.read_jsonl",
    "io.canonical_dumps",
    "heatmap.heatmap_from_dict",
    "heatmap.uncertainty",
    "heatmap.render_mixture",
    "heatmap.heatmap_to_dict",
    "sampling.nms_sample",
    "kernels.nms_kernel",
    "metrics.make_eval_record",
    "metrics.min_fde",
    "metrics.aggregate",
    "metrics.write_records_csv",
    "calibration.optimal_radius",
    "calibration.calibrate",
    "synth.draw_mixture",
    "synth.generate_dataset",
)

# Metrics that count work: deterministic for fixed inputs, so two traced
# runs of one benchmark invocation must report them identically.
EXACT_METRICS = (
    "io.read_jsonl.records",
    "io.read_mb",
    "io.canonical_dumps.calls",
    "heatmap.cells_parsed",
    "heatmap.uncertainty.calls_per_sample",
    "heatmap.cells_rendered",
    "sampling.nms_sample.calls",
    "kernels.nms_kernel.calls",
    "kernels.peaks",
    "kernels.cell_visits",
    "kernels.computed_mb",
    "calibration.nms_per_heatmap",
    "cli.pool.starts",
)

# Bytes the kernel touches per cell visit: x, y and probability, float64 each.
BYTES_PER_CELL_VISIT = 24


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        if os.getpid() != self.pid:
            self._become_worker()
        i = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(i)
        self.spans[i][1] = time.perf_counter()
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()

    def _become_worker(self) -> None:
        # A forked pool worker starts with a copy of the parent's state.
        self.pid = os.getpid()
        self.spans, self.stack, self.counts = [], [], Counter()
        util.Finalize(None, self._write_worker_counts, exitpriority=100)

    def _write_worker_counts(self) -> None:
        path = self.worker_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(self.counts))

    def wrap(self, name: str, fn, tally=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            self.counts[name + ".calls"] += 1
            if tally is not None:
                tally(self.counts, args, result)
            return result

        return traced

    def wrap_reader(self, fn):
        """Wrap a JSONL reader generator: one span per ``next()``."""

        @functools.wraps(fn)
        def traced(path):
            self.counts["io.read_bytes"] += os.path.getsize(path)
            records = fn(path)
            while True:
                i = self.open("io.read_jsonl")
                try:
                    record = next(records)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.counts["io.read_jsonl.records"] += 1
                yield record

        return traced


def _tally_cells_parsed(counts, args, result):
    counts["heatmap.cells_parsed"] += len(args[0]["cells"])


def _tally_cells_rendered(counts, args, result):
    counts["heatmap.cells_rendered"] += len(result)


def _tally_kernel(counts, args, result):
    peaks = len(result[0])
    counts["kernels.peaks"] += peaks
    counts["kernels.cell_visits"] += (peaks + 1) * len(args[0])


def install(tracer: Tracer) -> None:
    """Bind the wrappers onto the names each caller looks up."""
    from heatpred import calibration, cli, heatmap, io, kernels, metrics, sampling, synth

    targets = [
        # span name, function, tally, modules whose attribute is rebound
        ("io.canonical_dumps", io.canonical_dumps, None, (io, cli, synth)),
        ("heatmap.heatmap_from_dict", heatmap.heatmap_from_dict, _tally_cells_parsed, (cli,)),
        ("heatmap.uncertainty", heatmap.uncertainty, None, (cli, sampling, calibration)),
        ("heatmap.render_mixture", heatmap.render_mixture, _tally_cells_rendered, (synth,)),
        ("heatmap.heatmap_to_dict", heatmap.heatmap_to_dict, None, (synth,)),
        ("sampling.nms_sample", sampling.nms_sample, None, (sampling,)),
        ("kernels.nms_kernel", kernels.nms_kernel, _tally_kernel, (kernels,)),
        ("metrics.make_eval_record", metrics.make_eval_record, None, (cli,)),
        ("metrics.min_fde", metrics.min_fde, None, (metrics,)),
        ("metrics.aggregate", metrics.aggregate, None, (cli,)),
        ("metrics.write_records_csv", metrics.write_records_csv, None, (cli,)),
        ("calibration.optimal_radius", calibration.optimal_radius, None, (cli, calibration)),
        ("calibration.calibrate", calibration.calibrate, None, (cli,)),
        ("synth.draw_mixture", synth.draw_mixture, None, (synth,)),
        ("synth.generate_dataset", synth.generate_dataset, None, (cli,)),
    ]
    for name, fn, tally, modules in targets:
        traced = tracer.wrap(name, fn, tally)
        for module in modules:
            setattr(module, fn.__name__, traced)
    cli.read_jsonl = tracer.wrap_reader(io.read_jsonl)

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.counts["cli.pool.starts"] += 1
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            # The caller drains the iterator at once, so draining it here
            # times the parent's wait without changing what it receives.
            i = tracer.open("cli.pool.map")
            try:
                return iter(list(super().map(*args, **kwargs)))
            finally:
                tracer.close(i)

    cli.ProcessPoolExecutor = CountingPool


def main(argv: list[str]) -> int:
    trace_path = Path(argv[0])
    from heatpred import cli

    tracer = Tracer(trace_path.parent)
    install(tracer)
    i = tracer.open("cli.main")
    try:
        rc = cli.main(argv[1:])
    finally:
        tracer.close(i)
    workers = [json.loads(p.read_text()) for p in sorted(trace_path.parent.glob("worker-*.json"))]
    trace = {
        "rc": rc,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "worker_counts": workers,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    trace_path.write_text(json.dumps(trace))
    return rc


def layer_metrics(trace: dict, traced_wall_s: float, heatmaps: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; self time = span minus its children."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    under_sweep = [False] * len(spans)
    for i, (name, t0, t1, parent) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += t1 - t0
            under_sweep[i] = under_sweep[parent]
        if name == "calibration.optimal_radius":
            under_sweep[i] = True
    self_s: Counter = Counter()
    top_level_s = 0.0
    sweeps_ms = []
    sweep_nms = 0
    for i, (name, t0, t1, parent) in enumerate(spans):
        self_s[name] += t1 - t0 - child_s[i]
        if parent == 0:
            top_level_s += t1 - t0
        if name == "calibration.optimal_radius":
            sweeps_ms.append((t1 - t0) * 1e3)
        elif name == "sampling.nms_sample" and under_sweep[i]:
            sweep_nms += 1
    counts = Counter(trace["counts"])
    for worker in trace["worker_counts"]:
        counts.update(worker)

    m = {name + ".s": self_s[name] for name in TIMED_SPANS}
    deciles = statistics.quantiles(sweeps_ms, n=10) if len(sweeps_ms) > 1 else [0.0] * 9
    m.update({
        "io.read_jsonl.records": counts["io.read_jsonl.records"],
        "io.read_mb": counts["io.read_bytes"] / 1e6,
        "io.canonical_dumps.calls": counts["io.canonical_dumps.calls"],
        "heatmap.cells_parsed": counts["heatmap.cells_parsed"],
        "heatmap.uncertainty.calls_per_sample": counts["heatmap.uncertainty.calls"] / heatmaps,
        "heatmap.cells_rendered": counts["heatmap.cells_rendered"],
        "sampling.nms_sample.calls": counts["sampling.nms_sample.calls"],
        "kernels.nms_kernel.calls": counts["kernels.nms_kernel.calls"],
        "kernels.peaks": counts["kernels.peaks"],
        "kernels.cell_visits": counts["kernels.cell_visits"],
        "kernels.computed_mb": counts["kernels.cell_visits"] * BYTES_PER_CELL_VISIT / 1e6,
        "calibration.optimal_radius.p50_ms": deciles[4],
        "calibration.optimal_radius.p90_ms": deciles[8],
        "calibration.nms_per_heatmap": sweep_nms / len(sweeps_ms) if sweeps_ms else 0.0,
        "cli.self_s": self_s["cli.main"],
        "cli.pool.starts": counts["cli.pool.starts"],
        "cli.pool.map_s": self_s["cli.pool.map"],
        "cli.worker_peak_rss_mb": trace["children_maxrss_kb"] * 1024 / 1e6,
        "trace.coverage": top_level_s / traced_wall_s,
    })
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
