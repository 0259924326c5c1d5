"""Command-line harness for reproducible sampling, calibration and evaluation runs.

Subcommands: standardize, synth, sample, evaluate, calibrate, cross-eval and
analysis {uncertainty-error, noise-report, speed-report}. Every run embeds a
stable hash of its effective configuration in its primary outputs; wall-clock
metadata goes to a separate run_meta.json, which :func:`main` writes for every
run that made its output directory, so primary outputs are byte-stable across
reruns and worker counts.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

# io.read_jsonl is called through the module, because perfbench/tracer.py
# binds cli.read_jsonl to a wrapper that passes on only a path
from . import __version__, io
from .calibration import (
    CalibrationModel,
    RadiusSweepConfig,
    fit_bins,
    model_from_dict,
    model_to_dict,
    optimal_radius,
    spread_bins,
)
from .heatmap import CLIPPED_WARNING, Heatmap, uncertainty
from .io import (
    config_hash,
    integer,
    number,
    numbers,
    read_json,
    string,
    write_csv,
    write_json,
    write_jsonl,
    write_text,
)
from .metrics import (
    MISS_THRESHOLD_M,
    EvalRecord,
    aggregate,
    bin_by_uncertainty,
    make_eval_record,
    read_records_csv,
    report_to_dict,
    write_records_csv,
)
from .noise import KalmanConfig, sample_noise
from .sampling import (
    AdaptiveRadius,
    FixedRadius,
    SamplingConfig,
    prediction_to_dict,
    sample_with_uncertainty,
)
from .sets import read_sets
from .synth import ScenarioConfig, generate_dataset
from .trajectory import (
    StandardizationConfig,
    average_speed,
    sample_from_dict,
    sample_to_dict,
    standardize_sample,
)
from .binning import BIN_WIDTH, MIN_COUNT, floor_histogram

logger = logging.getLogger("heatpred")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARTIAL = 2

# The primary outputs of each command, as glob patterns in its --out
# directory. When a command fails after making that directory, main removes
# them, so that no earlier run's output is left beside the failed run's
# run_meta.json.
OUTPUTS = {
    "standardize": ("standardized.jsonl",),
    "synth": ("heatmaps.jsonl", "ground_truth.jsonl", "manifest.json"),
    "sample": ("predictions.jsonl",),
    "evaluate": ("records.csv", "aggregate.json"),
    "calibrate": ("model.json", "binned_radii.csv"),
    "cross-eval": (
        "cross_eval.json", "minfde[0-9]*.csv", "mr[0-9]*.csv", "improvement_minfde[0-9]*.csv", "report.md",
        "matrices.svg",
    ),
    "analysis uncertainty-error": ("uncertainty_error.csv", "uncertainty_error.svg"),
    "analysis noise-report": ("noise.csv", "noise_hist.json"),
    "analysis speed-report": ("speed_hist.csv", "speed_hist.json"),
}


# ---------------------------------------------------------------------------
# config plumbing


def _read_object(path: Path) -> dict:
    """A JSON file whose top level must be an object."""
    try:
        obj = read_json(path)
    except ValueError as e:
        raise ValueError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be a JSON object, not {type(obj).__name__}")
    return obj


def _load_config(path: str | None) -> tuple[dict, Path | None]:
    if path is None:
        return {}, None
    p = _existing(Path(path), "argument --config")
    return _read_object(p), p.parent


def _float(value, key: str) -> float:
    """The value of config key ``key``, which must be a JSON number, as a float."""
    return float(number(value, f"config key {key}"))


def _int(value, key: str, at_least: int | None = None) -> int:
    """The value of config key ``key``, which must be a JSON integer (not below ``at_least``)."""
    return integer(value, f"config key {key}", at_least)


def _positive(value, key: str) -> float:
    """The value of config key ``key``, such as a radius or a bin width, which must be a positive finite number."""
    v = _float(value, key)
    if not v > 0:
        raise ValueError(f"config key {key}: must be positive, got {v!r}")
    if not math.isfinite(v):
        raise ValueError(f"config key {key}: must be finite, got {v!r}")
    return v


def _checked(cls, **values):
    """``cls(**values)`` for a config class whose checks raise a ValueError
    that starts with the field it rejects; that error is raised again
    naming the config key."""
    try:
        return cls(**values)
    except ValueError as e:
        raise ValueError(f"config key {e}") from None


def _float_config(cls, cfg: dict):
    """A config class whose fields are all floats, from the values of its fields in the merged config ``cfg``."""
    return _checked(cls, **{f.name: _float(cfg[f.name], f.name) for f in fields(cls)})


def _objects(cfg: dict, key: str) -> list[dict]:
    """The list of JSON objects under config key ``key``; absent or null gives []."""
    entries = [] if cfg.get(key) is None else cfg[key]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"config key {key}: must be a list of objects")
    return entries


def _string(entry: dict, key: str, where: str) -> str:
    """The JSON string, such as a name or a path, under ``key`` of config entry ``where``."""
    if key not in entry:
        raise ValueError(f"config key {where}: missing key {key}")
    return string(entry[key], f"config key {where}.{key}")


def _merge(defaults: dict, overrides: dict) -> dict:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def _resolve_path(base_dir: Path | None, path: str) -> Path:
    p = Path(path)
    if not p.is_absolute() and base_dir is not None:
        p = base_dir / p
    return p


def _existing(path: Path, given_as: str) -> Path:
    """``path``, an input file that must exist; ``given_as`` names the argument or config key that gave it."""
    if not path.exists():
        raise ValueError(f"{given_as}: missing file {path}")
    return path


def _arg_paths(args, *names: str) -> tuple[Path, ...]:
    """The input files of positional arguments ``names``, each of which must exist."""
    return tuple(_existing(Path(getattr(args, name)), f"argument {name}") for name in names)


def _set_paths(base_dir: Path | None, entry: dict, where: str) -> tuple[Path, Path]:
    """The (heatmaps, ground truth) paths of a ``mixed_sources`` or ``test_sets`` entry, which must exist."""
    return tuple(
        _existing(_resolve_path(base_dir, _string(entry, key, where)), f"config key {where}.{key}")
        for key in ("heatmaps", "ground_truth")
    )


SAMPLING_DEFAULTS = {
    "k": SamplingConfig.k,
    "radius": {"fixed": SamplingConfig.radius_mode.r},
    "r_min": SamplingConfig.r_min,
    "r_max": SamplingConfig.r_max,
    "miss_threshold": MISS_THRESHOLD_M,
}


def _read_model(path: Path) -> CalibrationModel:
    """The calibration model stored at ``path``; a bad one raises a ValueError naming the file and key."""
    obj = _read_object(path)  # outside the try: its errors name the file already
    try:
        return model_from_dict(obj)
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e}") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _sampling_config(
    cfg: dict, base_dir: Path | None, model_key: str = "radius.adaptive"
) -> tuple[SamplingConfig, float]:
    """The sampling config and the miss threshold of a merged SAMPLING_DEFAULTS
    config; ``model_key`` names the config key that gave an adaptive radius's model file."""
    radius = cfg["radius"] if isinstance(cfg["radius"], dict) else {}
    if "fixed" in radius:
        mode = FixedRadius(_positive(radius["fixed"], "radius.fixed"))
    elif "adaptive" in radius:
        model_path = _resolve_path(base_dir, string(radius["adaptive"], f"config key {model_key}"))
        mode = AdaptiveRadius(_read_model(_existing(model_path, f"config key {model_key}")))
    else:
        raise ValueError('config key radius: must be an object with "fixed" or "adaptive"')
    sampling = _checked(
        SamplingConfig,
        k=_int(cfg["k"], "k"),
        radius_mode=mode,
        r_min=_float(cfg["r_min"], "r_min"),
        r_max=_float(cfg["r_max"], "r_max"),
    )
    return sampling, _float(cfg["miss_threshold"], "miss_threshold")


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _default_workers() -> int:
    """The CPUs this process may run on, which is the ``--workers`` default."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _raised(result):
    """``result``, unless it is the error that :func:`read_sets` gave for a set or ``io.read_jsonl`` for a line."""
    if isinstance(result, Exception):
        raise result
    return result


# Per-heatmap work of each command, run inside the workers as
# ``work(sid, heatmap, ground truth)`` with its settings bound by partial.


def _predict(sid: str, h: Heatmap, gt: None, cfg: SamplingConfig) -> dict:
    return prediction_to_dict(sample_with_uncertainty(h, cfg), sid)


def _sweep(
    sid: str, h: Heatmap, gt: tuple[float, float], k: int, sweep: RadiusSweepConfig
) -> tuple[float, float]:
    return uncertainty(h).spread, optimal_radius(h, gt, k, sweep)


def _score_rows(
    sid: str, h: Heatmap, gt: tuple[float, float], cfgs: list[SamplingConfig], threshold: float
) -> list[EvalRecord]:
    """One record per sampling config in ``cfgs``, all from one spread."""
    est = uncertainty(h)
    return [make_eval_record(sid, sample_with_uncertainty(h, cfg, est), gt, cfg.k, threshold) for cfg in cfgs]


def _clamped_radii(cfg: SamplingConfig, records: list[EvalRecord]) -> dict | None:
    """How many of the records' adaptive radii the clamp put at ``r_min`` and
    how many at ``r_max``; None for a fixed radius."""
    if not isinstance(cfg.radius_mode, AdaptiveRadius):
        return None
    used = [r.radius_used for r in records]
    return {"r_min": used.count(cfg.r_min), "r_max": used.count(cfg.r_max)}


def _out_dir(args, run: dict, cfg) -> tuple[Path, str]:
    """Make the ``--out`` directory and put the hash of ``cfg`` into the run
    record; from then on :func:`main` writes the record there when the run
    ends. Returns the directory and the hash."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run["config_hash"] = cfg_hash = config_hash(cfg)
    return out, cfg_hash


# ---------------------------------------------------------------------------
# standardize


STANDARDIZE_DEFAULTS = asdict(StandardizationConfig())


def cmd_standardize(args, run: dict) -> int:
    cfg_raw, _ = _load_config(args.config)
    cfg = _merge(STANDARDIZE_DEFAULTS, cfg_raw)
    std = _float_config(StandardizationConfig, cfg)
    _arg_paths(args, "input")
    out, _ = _out_dir(args, run, cfg)
    out_path = out / "standardized.jsonl"
    failed: list[ValueError] = []

    def standardized():
        for s in io.read_jsonl(Path(args.input), lambda d: standardize_sample(sample_from_dict(d), std)):
            if isinstance(s, ValueError):
                logger.warning("skipping %s", s)
                failed.append(s)
            else:
                yield sample_to_dict(s)

    n_ok = write_jsonl(out_path, standardized())
    run.update(n_ok=n_ok, n_failed=len(failed))
    if n_ok == 0:
        raise ValueError("no sample could be standardized")
    logger.info("standardized %d samples (%d failed) -> %s", n_ok, len(failed), out_path)
    return EXIT_PARTIAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# synth


SYNTH_N = 100  # scenarios when neither --n nor config key n gives a count


def cmd_synth(args, run: dict) -> int:
    cfg_raw, _ = _load_config(args.config)
    cfg = _merge({**ScenarioConfig().to_dict(), "n": None}, cfg_raw)
    n_cfg = cfg.pop("n")
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    n = args.n if args.n is not None else (_int(n_cfg, "n", at_least=1) if n_cfg is not None else SYNTH_N)
    if args.seed is not None:
        cfg["seed"] = args.seed
    scen = ScenarioConfig.from_dict(cfg)
    out, _ = _out_dir(args, run, scen.to_dict())
    run["n"] = n
    paths = generate_dataset(scen, n, out, args.workers, run)
    if run["clipped_scenarios"]:
        logger.warning("%s in %d of %d scenarios", CLIPPED_WARNING, run["clipped_scenarios"], n)
    logger.info("wrote %d scenarios to %s", n, paths["heatmaps"].parent)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args, run: dict) -> int:
    cfg_raw, base = _load_config(args.config)
    cfg = _merge(SAMPLING_DEFAULTS, cfg_raw)
    sampling, _ = _sampling_config(cfg, base)
    (heatmaps,) = _arg_paths(args, "heatmaps")
    out, _ = _out_dir(args, run, cfg)
    work = partial(_predict, cfg=sampling)
    results, run["input_mass"] = read_sets([(heatmaps, None)], work, args.workers)
    predictions = _raised(results[0])
    out_path = out / "predictions.jsonl"
    run["n"] = n = write_jsonl(out_path, (d for _, d in predictions))
    logger.info("sampled %d heatmaps -> %s", n, out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args, run: dict) -> int:
    cfg_raw, base = _load_config(args.config)
    cfg = _merge(SAMPLING_DEFAULTS, cfg_raw)
    sampling, threshold = _sampling_config(cfg, base)
    sets = [_arg_paths(args, "heatmaps", "ground_truth")]
    out, cfg_hash = _out_dir(args, run, cfg)
    work = partial(_score_rows, cfgs=[sampling], threshold=threshold)
    results, run["input_mass"] = read_sets(sets, work, args.workers)
    records = [r for _, (r,) in _raised(results[0])]
    rep = aggregate(records)
    write_records_csv(out / "records.csv", records, cfg_hash)
    write_json(out / "aggregate.json", {"config_hash": cfg_hash, **report_to_dict(rep)})
    run.update(n=rep.count, clamped_radii=_clamped_radii(sampling, records))
    logger.info(
        "evaluated %d samples: minFDE_%d=%.4f MR_%d=%.4f",
        rep.count, sampling.k, rep.min_fde_l[-1], sampling.k, rep.mr_l[-1],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate


CALIBRATE_DEFAULTS = {
    "k": SamplingConfig.k,
    "l_for_objective": RadiusSweepConfig.l_for_objective,
    "r_values": None,  # RadiusSweepConfig's grid
    "bin_width": BIN_WIDTH,
    "min_count": MIN_COUNT,
    "dataset_tag": "unknown",
    "mixed_sources": None,
    "mixed_n": None,
}


def _mixed_draws(counts: list[int], weights: list[float], n: int, seed: int) -> list[tuple[int, int]]:
    """The (source, position in its sorted ids) of each of ``n`` samples drawn
    from sources of ``counts`` samples, or of the draws made before every
    source ran out.

    Draw ``i`` picks a source with the configured weights using a substream
    keyed by (seed, i), then takes that source's next undrawn sample, so
    the composition is reproducible regardless of chunking.
    """
    total_w = sum(weights)
    probs = [w / total_w for w in weights]
    cursors = [0] * len(counts)
    out = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        order = list(rng.permutation(len(counts)))
        choice = int(rng.choice(len(counts), p=probs))
        # fall back to any source with samples left, in the drawn order
        cand = next((c for c in [choice] + order if cursors[c] < counts[c]), None)
        if cand is None:
            break
        out.append((cand, cursors[cand]))
        cursors[cand] += 1
    return out


def _source_weight(i: int, src: dict) -> float:
    where = f"mixed_sources[{i}]"
    w = _float(src.get("weight", 1.0), f"{where}.weight")
    if not (math.isfinite(w) and w >= 0):
        raise ValueError(f"config key {where}.weight: must be a finite number >= 0, got {w!r}")
    return w


def cmd_calibrate(args, run: dict) -> int:
    cfg_raw, base = _load_config(args.config)
    cfg = _merge(CALIBRATE_DEFAULTS, cfg_raw)
    k = _int(cfg["k"], "k", at_least=1)
    bin_width = _positive(cfg["bin_width"], "bin_width")
    min_count = _int(cfg["min_count"], "min_count")
    tag = string(cfg["dataset_tag"], "config key dataset_tag")
    sweep = _checked(
        RadiusSweepConfig,
        **({} if cfg["r_values"] is None else {"r_values": numbers(cfg["r_values"], "config key r_values")}),
        l_for_objective=_int(cfg["l_for_objective"], "l_for_objective"),
    )
    sources = _objects(cfg, "mixed_sources")
    if sources:
        n = _int(cfg["mixed_n"], "mixed_n", at_least=1)
        weights = [_source_weight(i, src) for i, src in enumerate(sources)]
        if sum(weights) == 0:
            raise ValueError("config key mixed_sources: weights must not all be 0")
        sets = [_set_paths(base, src, f"mixed_sources[{i}]") for i, src in enumerate(sources)]
    else:
        if not args.heatmaps or not args.ground_truth:
            raise ValueError("calibrate needs HEATMAPS and GROUND_TRUTH (or mixed_sources config)")
        sets = [_arg_paths(args, "heatmaps", "ground_truth")]
    # the seed picks the mixed_sources draws, so it is hashed with them
    out, cfg_hash = _out_dir(args, run, {**cfg, "seed": args.seed or 0} if sources else cfg)
    draws: list[tuple[int, int]] = []

    def drawn_ids(gts: list[dict]) -> list[set[str]]:
        # the draws need only each source's count, which its ground truth
        # gives, so only the heatmaps drawn into the mix are swept
        draws.extend(_mixed_draws([len(g) for g in gts], weights, n, args.seed or 0))
        ids = [sorted(g) for g in gts]
        drawn = [set() for _ in gts]
        for s, c in draws:
            drawn[s].add(ids[s][c])
        return drawn

    work = partial(_sweep, k=k, sweep=sweep)
    results, run["input_mass"] = read_sets(sets, work, args.workers, drawn_ids if sources else None)
    loaded = [_raised(r) for r in results]
    if sources and len(draws) < n:
        raise ValueError(f"mixed sources exhausted after {len(draws)} of {n} draws")
    spread_radius = [loaded[s][c][1] for s, c in draws] if sources else [sr for _, sr in loaded[0]]
    bins = spread_bins(spread_radius, bin_width)
    # optima on the first or last sweep radius suggest the sweep is too narrow
    n_edge = sum(1 for _, r in spread_radius if r in (sweep.r_values[0], sweep.r_values[-1]))
    run.update(
        n=len(spread_radius), sweep_edge_count=n_edge, sweep_edge_share=n_edge / len(spread_radius),
        # spread bins the fit leaves out for holding fewer than min_count pairs
        dropped_bins=[[center, count] for center, _, count in bins if count < min_count],
    )
    model, kept = fit_bins(bins, min_count, tag)
    write_json(out / "model.json", {**model_to_dict(model), "config_hash": cfg_hash})
    write_csv(out / "binned_radii.csv", ["bin_center", "mean_optimal_radius", "count"], kept, cfg_hash)
    logger.info(
        "calibrated %s: r = %.4f * spread + %.4f over %d bins",
        model.source_dataset, model.a, model.b, model.bin_count,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# cross-eval


def _model_radius(i: int, model: dict) -> dict:
    """The ``radius`` config object of manifest model ``i``; calibration wins over fixed_radius."""
    if model.get("calibration") is not None:
        return {"adaptive": _string(model, "calibration", f"models[{i}]")}
    if model.get("fixed_radius") is not None:
        return {"fixed": _positive(model["fixed_radius"], f"models[{i}].fixed_radius")}
    raise ValueError(f"config key models[{i}]: needs calibration or fixed_radius")


def _matrix_markdown(title: str, header: list[str], table: list[list[str]]) -> str:
    """A titled markdown table; a ``|`` in a cell, such as in a dataset tag, is written ``\\|``."""
    head, *body = ["| " + " | ".join(c.replace("|", "\\|") for c in row) + " |" for row in [header, *table]]
    return "\n".join([f"### {title}", "", head, "|" + "---|" * len(header), *body, ""])


def cmd_cross_eval(args, run: dict) -> int:
    manifest_path = _existing(Path(args.manifest), "argument manifest")
    manifest = _read_object(manifest_path)
    base = manifest_path.parent
    models = _objects(manifest, "models")
    test_sets = _objects(manifest, "test_sets")
    if not models or not test_sets:
        raise ValueError("manifest needs non-empty models and test_sets")
    row_tags = [_string(m, "train_dataset", f"models[{i}]") for i, m in enumerate(models)]
    col_tags = [_string(t, "dataset", f"test_sets[{i}]") for i, t in enumerate(test_sets)]
    if len(set(row_tags)) != len(row_tags) or len(set(col_tags)) != len(col_tags):
        raise ValueError("model and test set tags must be unique")

    sampling = manifest.get("sampling", {})
    if not isinstance(sampling, dict):
        raise ValueError("manifest key sampling: must be an object")
    # the radius comes from each model row, so the manifest may not set one
    sampling = _merge({key: v for key, v in SAMPLING_DEFAULTS.items() if key != "radius"}, sampling)
    baseline_r = _positive(manifest.get("baseline_fixed_radius", SamplingConfig.radius_mode.r), "baseline_fixed_radius")
    base_cfg, threshold = _sampling_config({**sampling, "radius": {"fixed": baseline_r}}, base)
    k = base_cfg.k
    row_cfgs = [
        _sampling_config({**sampling, "radius": _model_radius(i, m)}, base, f"models[{i}].calibration")[0]
        for i, m in enumerate(models)
    ]
    set_paths = {
        tag: _set_paths(base, t, f"test_sets[{i}]") for i, (tag, t) in enumerate(zip(col_tags, test_sets))
    }
    out, cfg_hash = _out_dir(args, run, manifest)

    # row None is the fixed-radius baseline, scored with the model rows from
    # one spread per test heatmap, in one pool for the whole matrix
    tags, cfgs = [None, *row_tags], [base_cfg, *row_cfgs]
    cells: dict[str | None, dict[str, dict]] = {r: {} for r in tags}
    clamped: dict[str, dict[str, dict | None]] = {r: {} for r in row_tags}
    work = partial(_score_rows, cfgs=cfgs, threshold=threshold)
    loaded, run["input_mass"] = read_sets([set_paths[col] for col in col_tags], work, args.workers)
    for col, results in zip(col_tags, loaded):
        if isinstance(results, Exception):
            logger.error("test set %s failed to load: %s", col, results)
            for row in tags:
                cells[row][col] = {"status": "failed", "error": str(results)}
            continue
        for row, cfg, records in zip(tags, cfgs, zip(*(r for _, r in results))):
            rep = aggregate(records)
            cell = cells[row][col] = {
                "status": "ok", "min_fde": rep.min_fde_l[-1], "mr": rep.mr_l[-1], "count": rep.count,
            }
            if row is None:
                base_fde = cell["min_fde"]
            else:
                cell["improvement_vs_fixed"] = (base_fde - cell["min_fde"]) / base_fde if base_fde > 0 else None
                clamped[row][col] = _clamped_radii(cfg, records)

    def _fmt(row: str, col: str, key: str):
        cell = cells[row][col]
        if cell["status"] != "ok":
            return "failed"
        return "" if cell[key] is None else repr(cell[key])

    result = {
        "config_hash": cfg_hash,
        "k": k,
        "baseline_fixed_radius": baseline_r,
        "rows": row_tags,
        "cols": col_tags,
        "cells": {row: cells[row] for row in row_tags},
        "baseline": cells[None],
    }
    write_json(out / "cross_eval.json", result)
    header = ["train\\test"] + col_tags
    md = []
    for key, stem, title in (
        ("min_fde", f"minfde{k}", f"minFDE_{k}"),
        ("mr", f"mr{k}", f"MR_{k}"),
        ("improvement_vs_fixed", f"improvement_minfde{k}",
         f"Relative minFDE_{k} improvement vs fixed r={baseline_r}"),
    ):
        table = [[row] + [_fmt(row, col, key) for col in col_tags] for row in row_tags]
        write_csv(out / f"{stem}.csv", header, table, cfg_hash)
        md.append(_matrix_markdown(title, header, table))
    md.append(f"config_hash: {cfg_hash}")
    write_text(out / "report.md", "\n".join(md) + "\n")
    if args.svg:
        write_text(out / "matrices.svg", _svg_matrix(row_tags, col_tags, cells))
    n_cells = len(row_tags) * len(col_tags)
    n_failed = sum(cells[row][col]["status"] == "failed" for row in row_tags for col in col_tags)
    run.update(n_cells=n_cells, n_failed=n_failed, clamped_radii=clamped)
    if n_failed == n_cells:
        raise ValueError("every cell of the matrix failed")
    return EXIT_PARTIAL if n_failed else EXIT_OK


# ---------------------------------------------------------------------------
# analysis


ANALYSIS_UNCERTAINTY_DEFAULTS = {"bin_width": BIN_WIDTH, "min_count": MIN_COUNT}
ANALYSIS_NOISE_DEFAULTS = {**asdict(KalmanConfig()), "bin_width": 0.1}
ANALYSIS_SPEED_DEFAULTS = {"bin_width": 1.0}


def _scene_values(path: Path, fn) -> list[tuple[str, float]]:
    """(sample id, fn(sample)) for every scene line, in file order; the first bad line raises."""

    def row(d: dict) -> tuple[str, float]:
        s = sample_from_dict(d)
        return s.id, fn(s)

    out = [_raised(r) for r in io.read_jsonl(path, row)]
    if not out:
        raise ValueError(f"{path}: no samples")
    return out


def _write_hist_json(path: Path, hist: list[tuple[float, int, float]], cfg: dict, cfg_hash: str) -> None:
    write_json(path, {
        "config_hash": cfg_hash,
        "bin_width": cfg["bin_width"],
        "bins": [{"lower": lo, "count": c, "fraction": fr} for lo, c, fr in hist],
    })


def cmd_analysis(args, run: dict) -> int:
    if args.svg and args.analysis_cmd != "uncertainty-error":
        raise ValueError(f"heatpred analysis {args.analysis_cmd}: unrecognized arguments: --svg")
    cfg_raw, _ = _load_config(args.config)
    if args.analysis_cmd == "uncertainty-error":
        cfg = _merge(ANALYSIS_UNCERTAINTY_DEFAULTS, cfg_raw)
        bin_width, min_count = _positive(cfg["bin_width"], "bin_width"), _int(cfg["min_count"], "min_count")
        _arg_paths(args, "input")
        out, cfg_hash = _out_dir(args, run, cfg)
        bins = bin_by_uncertainty(read_records_csv(args.input), bin_width, min_count)
        write_csv(out / "uncertainty_error.csv", ["bin_lower", "mean_min_fde_1", "count"], bins, cfg_hash)
        if args.svg:
            write_text(out / "uncertainty_error.svg", _svg_line_chart(
                [b[0] for b in bins], [b[1] for b in bins], "uncertainty bin", "mean minFDE_1"
            ))
        run["n_bins"] = len(bins)
    elif args.analysis_cmd == "noise-report":
        cfg = _merge(ANALYSIS_NOISE_DEFAULTS, cfg_raw)
        kcfg = _float_config(KalmanConfig, cfg)
        bin_width = _positive(cfg["bin_width"], "bin_width")
        _arg_paths(args, "input")
        out, cfg_hash = _out_dir(args, run, cfg)
        noises = _scene_values(Path(args.input), lambda s: sample_noise(s, kcfg))
        write_csv(out / "noise.csv", ["sample_id", "noise_m"], noises, cfg_hash)
        hist = floor_histogram([n for _, n in noises], bin_width)
        _write_hist_json(out / "noise_hist.json", hist, cfg, cfg_hash)
        run["n"] = len(noises)
    elif args.analysis_cmd == "speed-report":
        cfg = _merge(ANALYSIS_SPEED_DEFAULTS, cfg_raw)
        bin_width = _positive(cfg["bin_width"], "bin_width")
        _arg_paths(args, "input")
        out, cfg_hash = _out_dir(args, run, cfg)
        speeds = [v for _, v in _scene_values(Path(args.input), average_speed)]
        hist = floor_histogram(speeds, bin_width)
        rows = [(lo, fr, c) for lo, c, fr in hist]
        write_csv(out / "speed_hist.csv", ["bin_lower", "fraction", "count"], rows, cfg_hash)
        _write_hist_json(out / "speed_hist.json", hist, cfg, cfg_hash)
        run["n"] = len(speeds)
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(f"unknown analysis subcommand {args.analysis_cmd}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# svg helpers (deterministic, dependency-free)


def _svg_line_chart(xs, ys, x_label: str, y_label: str, w: int = 480, h: int = 320) -> str:
    if not xs:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    pad = 40
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    pts = " ".join(
        f"{pad + (x - x0) / xspan * (w - 2 * pad):.2f},{h - pad - (y - y0) / yspan * (h - 2 * pad):.2f}"
        for x, y in zip(xs, ys)
    )
    return (
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{w}' height='{h}'>"
        f"<rect width='{w}' height='{h}' fill='white'/>"
        f"<polyline points='{pts}' fill='none' stroke='steelblue' stroke-width='2'/>"
        f"<text x='{w / 2:.0f}' y='{h - 8}' text-anchor='middle' font-size='12'>{x_label}</text>"
        f"<text x='12' y='{h / 2:.0f}' font-size='12' transform='rotate(-90 12 {h / 2:.0f})' "
        f"text-anchor='middle'>{y_label}</text>"
        "</svg>"
    )


def _svg_matrix(rows, cols, cells, cell_px: int = 90) -> str:
    from xml.sax.saxutils import escape  # here, not at the top: it imports urllib.request, slowing every start-up

    pad = 80
    w = pad + cell_px * len(cols) + 10
    h = pad + cell_px * len(rows) + 10
    vals = [
        cells[r][c]["min_fde"]
        for r in rows for c in cols
        if cells[r][c].get("status") == "ok"
    ]
    vmax = max(vals) if vals else 1.0
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{w}' height='{h}'>",
        f"<rect width='{w}' height='{h}' fill='white'/>",
    ]
    for j, c in enumerate(cols):
        parts.append(
            f"<text x='{pad + j * cell_px + cell_px / 2:.0f}' y='{pad - 10}' "
            f"text-anchor='middle' font-size='11'>{escape(c)}</text>"
        )
    for i, r in enumerate(rows):
        parts.append(
            f"<text x='{pad - 8}' y='{pad + i * cell_px + cell_px / 2:.0f}' "
            f"text-anchor='end' font-size='11'>{escape(r)}</text>"
        )
        for j, c in enumerate(cols):
            cell = cells[r][c]
            if cell.get("status") == "ok":
                frac = cell["min_fde"] / vmax if vmax else 0.0
                shade = int(255 - 160 * frac)
                fill = f"rgb({shade},{shade},255)"
                label = f"{cell['min_fde']:.3f}"
            else:
                fill = "rgb(230,200,200)"
                label = "failed"
            x = pad + j * cell_px
            y = pad + i * cell_px
            parts.append(
                f"<rect x='{x}' y='{y}' width='{cell_px - 4}' height='{cell_px - 4}' "
                f"fill='{fill}' stroke='gray'/>"
            )
            parts.append(
                f"<text x='{x + (cell_px - 4) / 2:.0f}' y='{y + cell_px / 2:.0f}' "
                f"text-anchor='middle' font-size='11'>{label}</text>"
            )
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise a ValueError, so that they exit 1 like other failures."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heatpred",
        description="Uncertainty-adaptive endpoint sampling toolkit for prediction heatmaps",
    )
    parser.add_argument("--version", action="version", version=f"heatpred {__version__}")
    # Each command takes --out and, of these, only the flags it reads.
    flags = {name: _Parser(add_help=False) for name in ("config", "seed", "workers")}
    flags["config"].add_argument("--config", default=None, help="JSON config file")
    flags["seed"].add_argument("--seed", type=int, default=None, help="random seed override")
    flags["workers"].add_argument(
        "--workers", type=int, default=_default_workers(),
        help="worker processes (default: the usable CPUs); outputs do not depend on it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *names: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[flags[n] for n in names], help=help)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
        return p

    p = command("standardize", cmd_standardize, "resample scenes to the common rate/horizon", "config")
    p.add_argument("input", help="scene JSONL")

    p = command("synth", cmd_synth, "generate a synthetic heatmap dataset", "config", "seed", "workers")
    p.add_argument(
        "--n", type=int, default=None, help=f"number of scenarios (default: config key n, else {SYNTH_N})",
    )

    p = command("sample", cmd_sample, "extract endpoints from heatmaps", "config", "workers")
    p.add_argument("heatmaps", help="heatmap JSONL")

    p = command("evaluate", cmd_evaluate, "score heatmaps against ground truth", "config", "workers")
    p.add_argument("heatmaps", help="heatmap JSONL")
    p.add_argument("ground_truth", help="ground-truth JSONL")

    p = command("calibrate", cmd_calibrate, "fit the spread-to-radius model", "config", "seed", "workers")
    p.add_argument("heatmaps", nargs="?", default=None, help="heatmap JSONL")
    p.add_argument("ground_truth", nargs="?", default=None, help="ground-truth JSONL")

    # the manifest is the config of cross-eval
    p = command("cross-eval", cmd_cross_eval, "train-by-test evaluation matrix", "workers")
    p.add_argument("manifest", help="run manifest JSON")
    p.add_argument("--svg", action="store_true", help="also emit an SVG matrix chart")

    p = command("analysis", cmd_analysis, "binned analyses and reports", "config")
    p.add_argument(
        "analysis_cmd", choices=["uncertainty-error", "noise-report", "speed-report"],
    )
    p.add_argument("input", help="input file (records CSV or scene JSONL)")
    p.add_argument("--svg", action="store_true", help="also emit an SVG chart (uncertainty-error only)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    # the run record, to which each command adds its own figures
    run: dict = {}
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        run.update(
            command=" ".join(filter(None, (args.command, getattr(args, "analysis_cmd", None)))),
            version=__version__, timestamp_utc=datetime.now(timezone.utc).isoformat(),
        )
        if "workers" in args:
            run["workers"] = args.workers
        try:
            return args.func(args, run)
        except Exception as e:
            run.update(status="failed", error=str(e))
            if "config_hash" in run:
                for pattern in OUTPUTS[run["command"]]:
                    for path in Path(args.out).glob(pattern):
                        path.unlink()
            raise
        finally:
            if "config_hash" in run:  # _out_dir has made the output directory
                write_json(Path(args.out) / "run_meta.json", run)
    except (ValueError, OSError) as e:
        logger.error("%s", e)
        return EXIT_FAILURE
