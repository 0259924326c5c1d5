"""The benchmark's workloads: seeded inputs, the CLI arguments of one run, output checks.

Each workload builds its inputs once from the benchmark seed, with the
library of the checkout under test, and is then run as ``heatpred <command>``
processes that see only those files. ``check`` returns the problems found in
one run's output directory. For ``DEFAULT_SEED`` it compares the values that
later changes must keep (aggregate metrics, the fitted model, ground-truth
bytes) with pinned ones; for every seed it checks invariants. Whole
``records.csv`` files are not hashed: a change of the NMS score summation may
reorder endpoints on near-ties, which moves minFDE_l for l < k but not
minFDE_k.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import shutil
from pathlib import Path

from heatpred.calibration import load_preset, model_to_dict
from heatpred.heatmap import GridSpec
from heatpred.io import write_json
from heatpred.synth import ScenarioConfig, generate_dataset

DEFAULT_SEED = 1
K = 6
REL_TOL = 1e-9

_SAMPLE_ID = re.compile(rb'"sample_id":"([^"]*)"')


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _jsonl_ids(path: Path) -> list[str]:
    return [m.decode() for m in _SAMPLE_ID.findall(path.read_bytes())]


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def _pin_problems(got: dict, pinned: dict) -> list[str]:
    return [
        f"{key} = {got[key]!r}, pinned {want!r}"
        for key, want in pinned.items()
        if not math.isclose(got[key], want, rel_tol=REL_TOL)
    ]


def _dataset(cfg: ScenarioConfig, n: int, out: Path) -> tuple[Path, Path, list[str]]:
    paths = generate_dataset(cfg, n, out)
    return paths["heatmaps"], paths["ground_truth"], _jsonl_ids(paths["ground_truth"])


def _sized_dataset(cfg: ScenarioConfig, n0: int, mb: float, out: Path) -> tuple[Path, Path, list[str]]:
    """The seed's first n scenarios, with n/n0 + (their MB of heatmap JSONL)/mb = 2.

    A run costs time per heatmap and per byte of heatmap, and heatmap size
    depends on the drawn spreads. So a fixed count of scenarios was up to
    10 % more or less work from one seed to the next, and so was a fixed
    size; weighing both keeps the work of a run nearly the same whatever the
    seed. Scenario i depends only on the config and i, so the prefix is what
    generating n scenarios would give.
    """
    hm, gt, _ = _dataset(cfg, round(n0 * 1.3), out)
    lines = hm.read_bytes().splitlines(keepends=True)
    total, n = 0, 0
    while n < len(lines) and n / n0 + total / (mb * 1e6) < 2:
        total += len(lines[n])
        n += 1
    hm.write_bytes(b"".join(lines[:n]))
    gt.write_bytes(b"".join(gt.read_bytes().splitlines(keepends=True)[:n]))
    (out / "manifest.json").unlink()  # it describes the untrimmed set
    return hm, gt, _jsonl_ids(gt)


class Synth:
    """Write path: render, convert to dict and serialise; no parsing, no NMS."""

    name = "synth"
    N0, MB = 100, 16.5  # scenarios and MB of heatmap JSONL per run, weighed as in _sized_dataset
    GT_SHA256 = "8408fe06e51e06dfdfd9fa2886620891804c5a1111096d2aefedadbad9f57eb5"

    def __init__(self, inputs: Path, seed: int):
        self.seed = seed
        # The scenario count that writes MB for this seed, found by
        # generating them once with the library; the command sees only it.
        _, _, ids = _sized_dataset(ScenarioConfig(seed=seed), self.N0, self.MB, inputs / "sizing")
        shutil.rmtree(inputs / "sizing")
        self.N = self.heatmaps = self.samples = len(ids)

    def argv(self, out: Path) -> list[str]:
        return ["synth", "--n", str(self.N), "--seed", str(self.seed), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        gt = out / "ground_truth.jsonl"
        hm_ids, gt_ids = _jsonl_ids(out / "heatmaps.jsonl"), _jsonl_ids(gt)
        problems = []
        if len(hm_ids) != self.N or len(set(hm_ids)) != self.N:
            problems.append(f"{len(hm_ids)} heatmaps ({len(set(hm_ids))} distinct ids), expected {self.N}")
        if hm_ids != gt_ids:
            problems.append("heatmap and ground-truth ids differ")
        if self.seed == DEFAULT_SEED:
            digest = hashlib.sha256(gt.read_bytes()).hexdigest()
            if digest != self.GT_SHA256:
                problems.append(f"ground_truth.jsonl sha256 {digest}, pinned {self.GT_SHA256}")
        return problems


class Evaluate:
    """Read path: JSONL parse and heatmap_from_dict, one adaptive-radius NMS per heatmap.

    Run by name only: it is not listed in BENCHMARK.json, because the time
    limit of the benchmark check leaves too short a run for three gated
    workloads to be steady.
    """

    name = "evaluate"
    N0, MB = 200, 33.0  # heatmaps and MB of heatmap JSONL per run, weighed as in _sized_dataset
    PINNED = {"min_fde_6": 3.5570169708721457, "mr_6": 0.553921568627451}

    def __init__(self, inputs: Path, seed: int):
        self.seed = seed
        self.hm, self.gt, ids = _sized_dataset(ScenarioConfig(seed=seed), self.N0, self.MB, inputs / "set")
        self.N = self.heatmaps = self.samples = len(ids)
        self.ids = sorted(ids)
        model, _ = load_preset("argoverse")
        write_json(inputs / "model.json", model_to_dict(model))
        self.config = inputs / "evaluate.json"
        write_json(self.config, {"radius": {"adaptive": "model.json"}})

    def argv(self, out: Path) -> list[str]:
        return ["evaluate", str(self.hm), str(self.gt), "--config", str(self.config), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        agg = json.loads((out / "aggregate.json").read_text())
        rows = _read_csv(out / "records.csv")
        fde, mr = agg["min_fde_l"], agg["mr_l"]
        problems = []
        if agg["count"] != self.N or len(fde) != K or len(mr) != K:
            problems.append(f"aggregate count {agg['count']} over {len(fde)} ranks, expected {self.N} over {K}")
        if [r["sample_id"] for r in rows] != self.ids:
            problems.append("records.csv ids differ from the ground truth ids")
        if not (_nonincreasing(fde) and all(math.isfinite(v) and v >= 0 for v in fde)):
            problems.append(f"minFDE_l not finite and non-increasing: {fde}")
        if not (_nonincreasing(mr) and all(0 <= v <= 1 for v in mr)):
            problems.append(f"MR_l not in [0, 1] and non-increasing: {mr}")
        if any(not _nonincreasing([float(r[f"fde_{l}"]) for l in range(1, K + 1)]) for r in rows):
            problems.append("a record's minFDE_l increases with l")
        if self.seed == DEFAULT_SEED and not problems:
            problems += _pin_problems({"min_fde_6": fde[-1], "mr_6": mr[-1]}, self.PINNED)
        return problems


class Calibrate:
    """Sweep path: 50 NMS calls per heatmap, then the binned line fit."""

    name = "calibrate"
    N0, MB = 80, 13.5  # heatmaps and MB of heatmap JSONL per run, weighed as in _sized_dataset
    # Default-config spreads run from about 1 to 900 m^2. At about 80
    # heatmaps, 200 m^2 bins leave three bins above min_count for nearly every
    # seed, so the fit succeeds and the output size hardly depends on the seed.
    CONFIG = {"bin_width": 200.0, "min_count": 5, "dataset_tag": "bench"}
    PINNED = {"a": -0.0007456436200112423, "b": 2.9721472737492975}

    def __init__(self, inputs: Path, seed: int):
        self.seed = seed
        self.hm, self.gt, ids = _sized_dataset(ScenarioConfig(seed=seed), self.N0, self.MB, inputs / "set")
        self.N = self.heatmaps = self.samples = len(ids)
        self.config = inputs / "calibrate.json"
        write_json(self.config, self.CONFIG)

    def argv(self, out: Path) -> list[str]:
        return ["calibrate", str(self.hm), str(self.gt), "--config", str(self.config), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        model = json.loads((out / "model.json").read_text())
        bins = _read_csv(out / "binned_radii.csv")
        counts = [int(b["count"]) for b in bins]
        problems = []
        if not (math.isfinite(model["a"]) and math.isfinite(model["b"]) and model["b"] > 0):
            problems.append(f"model needs finite a and b > 0: a={model['a']!r} b={model['b']!r}")
        if model["bin_count"] != len(bins) or len(bins) < 2:
            problems.append(f"bin_count {model['bin_count']} with {len(bins)} bins in binned_radii.csv")
        if sum(counts) > self.N or min(counts, default=0) < self.CONFIG["min_count"]:
            problems.append(f"bin counts {counts} do not fit {self.N} samples and min_count")
        if self.seed == DEFAULT_SEED and not problems:
            problems += _pin_problems(model, self.PINNED)
        return problems


# The focused/diffuse pair of the CLI test fixture for cross-eval.
FOCUSED = dict(
    sigma_range=(0.6, 1.4), n_modes_range=(1, 2), mean_region=((0.0, 14.0), (-5.0, 5.0)),
    grid=GridSpec(origin_x=-8.0, origin_y=-12.0, resolution=0.5, width=61, height=49),
)
DIFFUSE = dict(
    sigma_range=(3.5, 6.0), n_modes_range=(1, 2), mean_region=((0.0, 14.0), (-5.0, 5.0)),
    grid=GridSpec(origin_x=-26.0, origin_y=-30.0, resolution=0.5, width=133, height=121),
)


MATRIX_ROW = "train\\test"  # header of the row-label column in the matrix CSVs


class CrossEval:
    """Two models by two test sets through the worker pool.

    Run by name only: it is not listed in BENCHMARK.json, because its wall
    time depends on both cores of a two-core host and spread more between
    seeds than any bound may allow.
    """

    name = "cross-eval"
    N = 100  # per test set
    WORKERS = 2
    # Shipped presets stand in for models fit on training sets, which would
    # add seconds of set-up per run and can fail to fit on small sets.
    MODELS = {"focused": "argoverse", "diffuse": "nuscenes"}
    PINNED = {
        "focused/focused/min_fde": 0.7286292279068357, "focused/diffuse/min_fde": 4.257994135597216,
        "diffuse/focused/min_fde": 0.7127697730241431, "diffuse/diffuse/min_fde": 4.1000219397968864,
        "focused/focused/mr": 0.05, "focused/diffuse/mr": 0.77,
        "diffuse/focused/mr": 0.03, "diffuse/diffuse/mr": 0.74,
    }

    def __init__(self, inputs: Path, seed: int):
        self.seed = seed
        self.heatmaps = 2 * self.N
        self.samples = self.heatmaps * (len(self.MODELS) + 1)  # each model plus the baseline
        test_sets = []
        for offset, (tag, kwargs) in enumerate((("focused", FOCUSED), ("diffuse", DIFFUSE))):
            cfg = ScenarioConfig(seed=2 * seed + offset, **kwargs)
            hm, gt, _ = _dataset(cfg, self.N, inputs / tag)
            test_sets.append({"dataset": tag, "heatmaps": str(hm), "ground_truth": str(gt)})
        models = []
        for tag, preset in self.MODELS.items():
            write_json(inputs / f"model_{tag}.json", model_to_dict(load_preset(preset)[0]))
            models.append({"train_dataset": tag, "calibration": f"model_{tag}.json"})
        self.manifest = inputs / "manifest.json"
        write_json(self.manifest, {
            "models": models, "test_sets": test_sets,
            "sampling": {"k": K}, "baseline_fixed_radius": 1.5,
        })

    def argv(self, out: Path) -> list[str]:
        return ["cross-eval", str(self.manifest), "--workers", str(self.WORKERS), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        result = json.loads((out / "cross_eval.json").read_text())
        tags = list(self.MODELS)
        problems = []
        if result["rows"] != tags or result["cols"] != tags:
            return [f"matrix {result['rows']} x {result['cols']}, expected {tags} x {tags}"]
        got = {}
        for row in tags:
            for col in tags:
                cell = result["cells"][row][col]
                if cell["status"] != "ok" or cell["count"] != self.N:
                    problems.append(f"cell {row}/{col}: {cell}")
                    continue
                if not (math.isfinite(cell["min_fde"]) and cell["min_fde"] >= 0 and 0 <= cell["mr"] <= 1):
                    problems.append(f"cell {row}/{col} out of range: {cell}")
                got[f"{row}/{col}/min_fde"] = cell["min_fde"]
                got[f"{row}/{col}/mr"] = cell["mr"]
        for key, name in (("min_fde", f"minfde{K}.csv"), ("mr", f"mr{K}.csv")):
            for row in _read_csv(out / name):
                for col in tags:
                    cell = f"{row[MATRIX_ROW]}/{col}"
                    if float(row[col]) != got.get(f"{cell}/{key}"):
                        problems.append(f"{name} disagrees with cross_eval.json at {cell}")
        if self.seed == DEFAULT_SEED and not problems:
            problems += _pin_problems(got, self.PINNED)
        return problems


WORKLOADS = {w.name: w for w in (Synth, Evaluate, Calibrate, CrossEval)}
