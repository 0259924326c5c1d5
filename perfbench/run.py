#!/usr/bin/env python3
"""End-to-end benchmark of the heatpred CLI, with per-layer numbers from a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are in ``workloads.py`` and the metric names and units in
``BENCHMARK.json``. One invocation builds the workload's inputs from the seed
(untimed), then repeats, for about S seconds and at least five times, one
process at a time: a ``heatpred --version`` start-up, one ``heatpred
<command>`` run, and the fixed task of ``reference.py``. Each start-up and run
is normalised by the reference times on either side of it (``normalise``), and
the medians of the normalised times are reported as ``setup_s`` and
``wall_s``. Each run writes to a fresh output directory that is checked and
then deleted; files a run leaves beside the inputs are deleted too. With
``--trace 1`` two more runs go through ``tracer.py`` for the per-layer split,
and their work counts must agree.

Every line but the last is for people: the environment, then every metric with
its unit. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones). A full report goes to
``.perfbench/reports/``; ``compare.py`` compares two of them.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every command: default OpenBLAS
# threading burns a second core spinning, which inflates CPU time and
# competes with the pool workers of cross-eval.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_RUNS = 5
TRACED_RUNS = 2
# Commands still running this long after the start are killed, so that an
# invocation ends within three minutes even when the program hangs.
KILL_AFTER_S = 150
# Nominal time of the reference task, about its median on the 2-vCPU host the
# benchmark was tuned on. Normalised times are in seconds of a host on which
# the reference task takes this long.
REFERENCE_S = 0.45


def listing(inputs: Path) -> dict[str, object]:
    return {
        str(p.relative_to(inputs)): "dir" if p.is_dir() else (p.stat().st_size, p.stat().st_mtime_ns)
        for p in inputs.rglob("*")
    }


class Harness:
    """Runs the processes of one invocation inside its work directory."""

    def __init__(self, launcher, work: Path, env: dict, workload, inputs: Path, kill_at: float):
        self.launcher, self.work, self.env, self.workload, self.inputs = launcher, work, env, workload, inputs
        self.kill_at = kill_at  # perf_counter time after which commands are killed
        self.snapshot = listing(inputs)

    def process(self, argv: list[str], cwd: Path) -> dict:
        """Run one command to its exit through ``launcher.py``; wall time, exit code and its rusage."""
        request = {"argv": argv, "cwd": str(cwd), "env": self.env,
                   "kill_after": max(self.kill_at - time.perf_counter(), 1.0)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench: launcher.py exited")
        return json.loads(reply)

    def version(self) -> dict:
        return self.process([sys.executable, "-m", "heatpred", "--version"], self.work)

    def reference(self) -> dict:
        return self.process([sys.executable, str(HERE / "reference.py")], self.work)

    def run(self, name: str, traced: bool) -> dict:
        """One checked run in a fresh directory, which is deleted afterwards."""
        run_dir = self.work / name
        run_dir.mkdir()
        out = run_dir / "out"
        argv = [sys.executable, "-m", "heatpred"]
        if traced:
            (run_dir / "trace").mkdir()
            argv = [sys.executable, str(HERE / "tracer.py"), str(run_dir / "trace" / "trace.json")]
        run = self.process(argv + self.workload.argv(out), run_dir)
        problems = []
        if run["rc"] != 0:
            tail = (run_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            problems.append(f"{name}: exit code {run['rc']}: {' | '.join(tail)}")
        else:
            try:
                problems += [f"{name}: {p}" for p in self.workload.check(out)]
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems.append(f"{name}: output check failed: {e!r}")
        primary = [p for p in out.rglob("*") if p.is_file() and p.name != "run_meta.json"]
        run["output_mb"] = sum(p.stat().st_size for p in primary) / 1e6
        run["left_beside_inputs"], changed = self.restore_inputs()
        run["problems"] = problems + [f"{name}: {c}" for c in changed]
        if traced and run["rc"] == 0:
            run["trace"] = json.loads((run_dir / "trace" / "trace.json").read_text())
        shutil.rmtree(run_dir)
        return run

    def restore_inputs(self) -> tuple[list[str], list[str]]:
        """Delete what a run left beside the inputs; report inputs it changed."""
        now = listing(self.inputs)
        left = sorted(set(now) - set(self.snapshot))
        for name in left:
            path = self.inputs / name
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        changed = [f"input changed: {n}" for n in self.snapshot if now.get(n) != self.snapshot[n]]
        return left, changed


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(env: dict) -> dict:
    import numpy as np

    from heatpred import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas_name = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "backend": kernels.BACKEND,
        "commit": git_commit(),
        "thread_env": {k: env.get(k) for k in BLAS_ENV},
        "pythonhashseed": env["PYTHONHASHSEED"],
    }


def normalise(timed: list[dict], refs: list[dict]) -> list[float]:
    """Each time divided by the host speed measured around it.

    ``timed[i]`` ran between ``refs[i]`` and ``refs[i + 1]``. The speed of a
    shared host drifts by up to 2x over seconds to minutes, with whatever its
    neighbours run, and one process of a given size slows about as much as
    another. Dividing by the mean of the two reference times, and scaling by
    ``REFERENCE_S``, keeps the program's own cost and removes most of the
    host's drift.
    """
    return [
        t["wall_s"] * REFERENCE_S * 2 / (before["wall_s"] + after["wall_s"])
        for t, before, after in zip(timed, refs, refs[1:])
    ]


def bench(args, spec: dict, launcher, work: Path, kill_at: float) -> dict:
    (work / "tmp").mkdir(parents=True)
    inputs = work / "inputs"
    inputs.mkdir()
    # Bytecode caches live in the work directory: filled once before timing,
    # deleted with it, and never written into the sources.
    sys.pycache_prefix = str(work / "pycache")
    sys.path.insert(0, str(SRC))
    import heatpred

    if Path(heatpred.__file__).resolve().parent != SRC / "heatpred":
        raise SystemExit(f"perfbench: imported heatpred from {heatpred.__file__}, not {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = {
        **os.environ, **BLAS_ENV,
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": sys.pycache_prefix,
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(work / "tmp"),
    }
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    workload = WORKLOADS[args.workload](inputs, args.seed)
    harness = Harness(launcher, work, env, workload, inputs, kill_at)

    harness.version()  # fills the bytecode cache
    # Start-up, run, reference, in turn: every start-up and run is timed
    # between two reference tasks, and start-ups sample the whole window.
    setup: list[dict] = []
    runs: list[dict] = []
    refs = [harness.reference()]
    start = time.perf_counter()
    deadline = start + args.seconds
    # Go on while one more round, at the mean round time so far, ends in time.
    while len(runs) < MIN_RUNS or time.perf_counter() + (time.perf_counter() - start) / len(runs) <= deadline:
        setup.append(harness.version())
        runs.append(harness.run(f"run{len(runs)}", traced=False))
        refs.append(harness.reference())
    traced = [harness.run(f"traced{i}", traced=True) for i in range(TRACED_RUNS if args.trace else 0)]

    problems = [p for r in runs + traced for p in r["problems"]]
    if any(s["rc"] != 0 for s in setup):
        problems.append("heatpred --version failed")
    if any(r["rc"] != 0 for r in refs):
        problems.append("the reference task failed")
    attempted = workload.samples * len(runs + traced)
    failed = workload.samples * sum(1 for r in runs + traced if r["problems"])

    for timed, norm in ((setup, normalise(setup, refs)), (runs, normalise(runs, refs))):
        for t, n in zip(timed, norm):
            t["norm_wall_s"] = n
    wall = statistics.median(r["norm_wall_s"] for r in runs)
    end_to_end = {
        "wall_s": wall,
        "samples_per_s": workload.samples / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "output_mb": statistics.median(r["output_mb"] for r in runs),
        "setup_s": statistics.median(s["norm_wall_s"] for s in setup),
    }
    per_layer = {}
    if args.trace:
        from tracer import EXACT_METRICS, layer_metrics

        layers = [layer_metrics(r["trace"], r["wall_s"], workload.heatmaps) for r in traced if "trace" in r]
        for name in EXACT_METRICS:
            if len({lr[name] for lr in layers}) > 1:
                problems.append(f"{name} differs between traced runs: {[lr[name] for lr in layers]}")
        for m in spec["per_layer"]:
            values = [lr[m["name"]] for lr in layers if m["name"] in lr]
            per_layer[m["name"]] = statistics.median(values) if values else 0.0
        per_layer["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in runs)
        per_layer["proc.raw_wall_s"] = statistics.median(r["wall_s"] for r in runs)
        per_layer["proc.raw_setup_s"] = statistics.median(s["wall_s"] for s in setup)
        per_layer["proc.reference_s"] = statistics.median(r["wall_s"] for r in refs)
        per_layer["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in runs)
            if traced else 0.0
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(env),
        "samples_per_run": workload.samples,
        "setup_runs": setup,
        "runs": runs,
        "reference_runs": refs,
        "traced_runs": [{k: v for k, v in r.items() if k != "trace"} for r in traced],
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def print_report(report: dict, spec: dict) -> None:
    runs = report["runs"]
    print(f"perfbench {report['workload']} seed={report['seed']}: {len(runs)} runs of "
          f"{report['samples_per_run']} samples, {len(report['traced_runs'])} traced")
    print("env " + json.dumps(report["env"], sort_keys=True))
    rows = [(m, report["end_to_end"][m["name"]]) for m in spec["end_to_end"]]
    rows += [(m, report["per_layer"][m["name"]]) for m in spec["per_layer"] if m["name"] in report["per_layer"]]
    for m, value in rows:
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    for label, timed in (("run", runs), ("start-up", report["setup_runs"]), ("reference", report["reference_runs"])):
        walls = sorted(r["wall_s"] for r in timed)
        print(f"  raw {label} times over {len(walls)} runs: min {walls[0]:.4f} s, "
              f"median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s")
    rate = report["failed"] / report["attempted"]
    print(f"  {'error_rate':<40} {rate:>14.6g} ({report['failed']} of {report['attempted']} samples failed)")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "heatpred" / "cli.py").is_file():
        print(f"perfbench: no heatpred sources at {SRC / 'heatpred'}", file=sys.stderr)
        return 2

    kill_at = time.perf_counter() + KILL_AFTER_S
    work = STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    # Started while this process is still small: see launcher.py.
    launcher = subprocess.Popen(
        [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        report = bench(args, spec, launcher, work, kill_at)
    finally:
        launcher.terminate()  # kills the command in flight, if any
        launcher.wait()
        launcher.stdin.close()
        launcher.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    reports = STATE / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print_report(report, spec)
    print(f"report: {path.relative_to(ROOT)}")
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
