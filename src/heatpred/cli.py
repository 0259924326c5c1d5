"""Command-line harness for reproducible sampling, calibration and evaluation runs.

Subcommands: standardize, synth, sample, evaluate, calibrate, cross-eval and
analysis {uncertainty-error, noise-report, speed-report}. Every run embeds a
stable hash of its effective configuration in its primary outputs; wall-clock
metadata goes to a separate run_meta.json so primary outputs are byte-stable
across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    RadiusSweepConfig,
    binned_optimal_radii,
    calibrate,
    model_from_dict,
    model_to_dict,
    optimal_radius,
)
from .heatmap import Heatmap, UncertaintyEstimate, heatmap_from_dict, uncertainty
from .io import canonical_dumps, config_hash, jsonl_line_number, read_json, read_jsonl, write_json, write_jsonl
from .metrics import (
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
from .synth import ScenarioConfig, generate_dataset
from .trajectory import (
    StandardizationConfig,
    average_speed,
    sample_from_dict,
    sample_to_dict,
    standardize_sample,
)
from .binning import floor_histogram

logger = logging.getLogger("heatpred")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARTIAL = 2


class CliError(RuntimeError):
    pass


# What parsing one malformed JSONL record can raise.
RECORD_ERRORS = (KeyError, IndexError, TypeError, ValueError)


# ---------------------------------------------------------------------------
# config plumbing


def _read_object(path: Path) -> dict:
    """A JSON file whose top level must be an object."""
    try:
        obj = read_json(path)
    except ValueError as e:
        raise CliError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise CliError(f"{path}: top level must be a JSON object, not {type(obj).__name__}")
    return obj


def _load_config(path: str | None) -> tuple[dict, Path | None]:
    if path is None:
        return {}, None
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}")
    return _read_object(p), p.parent


def _as(kind, value, key: str):
    """``kind(value)``, or a CliError naming the config key the value came from."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise CliError(f"config key {key}: {value!r} is not a valid {kind.__name__}") from None


def _objects(cfg: dict, key: str) -> list[dict]:
    """The list of JSON objects under config key ``key``; absent or null gives []."""
    entries = cfg.get(key) or []
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise CliError(f"config key {key}: must be a list of objects")
    return entries


def _required(entry: dict, key: str, where: str):
    if key not in entry:
        raise CliError(f"config key {where}: missing key {key}")
    return entry[key]


def _merge(defaults: dict, overrides: dict) -> dict:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def _resolve_path(base_dir: Path | None, path: str) -> Path:
    p = Path(path)
    if not p.is_absolute() and base_dir is not None:
        p = base_dir / p
    return p


SAMPLING_DEFAULTS = {
    "k": 6,
    "radius": {"fixed": 1.5},
    "r_min": 0.1,
    "r_max": 10.0,
    "miss_threshold": 2.0,
}


def _sampling_config(cfg: dict, base_dir: Path | None) -> tuple[SamplingConfig, float]:
    """The sampling config and the miss threshold of a merged SAMPLING_DEFAULTS config."""
    radius = cfg["radius"] if isinstance(cfg["radius"], dict) else {}
    if "fixed" in radius:
        mode = FixedRadius(_as(float, radius["fixed"], "radius.fixed"))
    elif "adaptive" in radius:
        model_path = _resolve_path(base_dir, str(radius["adaptive"]))
        if not model_path.exists():
            raise CliError(f"calibration model not found: {model_path}")
        mode = AdaptiveRadius(model_from_dict(read_json(model_path)))
    else:
        raise CliError('config key radius: must be an object with "fixed" or "adaptive"')
    sampling = SamplingConfig(
        k=_as(int, cfg["k"], "k"),
        radius_mode=mode,
        r_min=_as(float, cfg["r_min"], "r_min"),
        r_max=_as(float, cfg["r_max"], "r_max"),
    )
    return sampling, _as(float, cfg["miss_threshold"], "miss_threshold")


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _parallel_map(fn, payloads: list, workers: int) -> list:
    """Order-preserving map; results are identical for any worker count."""
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads, chunksize=chunk))


def _record_error(path: Path, index: int, record, e: Exception) -> CliError:
    """CliError naming ``path:line`` of the index-th record and its sample id (or scene id)."""
    where = f"{path}:{jsonl_line_number(path, index)}"
    if not isinstance(record, dict):
        return CliError(f"{where}: record must be a JSON object")
    sid = record.get("sample_id", record.get("id"))
    who = "" if sid is None else f" (sample {sid})"
    why = f"missing key {e}" if isinstance(e, KeyError) else str(e)
    return CliError(f"{where}{who}: {why}")


def _load_heatmaps(path: Path) -> list[tuple[str, Heatmap]]:
    out = []
    for i, d in enumerate(read_jsonl(path)):
        try:
            out.append(heatmap_from_dict(d))
        except RECORD_ERRORS as e:
            raise _record_error(path, i, d, e) from None
    if not out:
        raise CliError(f"{path}: no heatmaps")
    ids = [sid for sid, _ in out]
    if len(set(ids)) != len(ids):
        raise CliError(f"{path}: duplicate sample ids")
    return out


def _load_ground_truth(path: Path) -> dict[str, tuple[float, float]]:
    gts: dict[str, tuple[float, float]] = {}
    for i, d in enumerate(read_jsonl(path)):
        try:
            sid = str(d["sample_id"])
            gt = (float(d["gt"][0]), float(d["gt"][1]))
        except RECORD_ERRORS as e:
            raise _record_error(path, i, d, e) from None
        if sid in gts:
            raise CliError(f"{path}: duplicate sample id {sid}")
        gts[sid] = gt
    if not gts:
        raise CliError(f"{path}: no ground truth entries")
    return gts


def _load_eval_pairs(
    heatmaps_path: Path, gts_path: Path
) -> list[tuple[str, Heatmap, tuple[float, float]]]:
    """Match heatmaps to ground truth by id; sorted by id for stable output."""
    hms = _load_heatmaps(heatmaps_path)
    gts = _load_ground_truth(gts_path)
    hm_ids = {sid for sid, _ in hms}
    offenders = sorted(hm_ids.symmetric_difference(gts))
    if offenders:
        shown = ", ".join(offenders[:10])
        raise CliError(
            f"sample ids differ between {heatmaps_path} and {gts_path} "
            f"({len(offenders)} offenders; first: {shown})"
        )
    return sorted((sid, h, gts[sid]) for sid, h in hms)


def _eval_one(payload) -> EvalRecord:
    sid, h, gt, est, cfg, threshold = payload
    ps = sample_with_uncertainty(h, cfg, est)
    return make_eval_record(sid, ps, gt, cfg.k, threshold)


def _run_evaluation(
    pairs: list[tuple[str, Heatmap, tuple[float, float]]],
    cfg: SamplingConfig,
    threshold: float,
    workers: int,
    estimates: list[UncertaintyEstimate] | None = None,
) -> list[EvalRecord]:
    """Sample and score every pair; ``estimates`` supplies spreads already taken."""
    if estimates is None:
        estimates = [None] * len(pairs)
    payloads = [(sid, h, gt, est, cfg, threshold) for (sid, h, gt), est in zip(pairs, estimates)]
    return _parallel_map(_eval_one, payloads, workers)


def _calib_one(payload) -> tuple[float, float]:
    h, gt, k, sweep = payload
    return uncertainty(h).spread, optimal_radius(h, gt, k, sweep)


def _write_xy_csv(path: Path, rows: list, header: list[str], cfg_hash: str) -> None:
    """A CSV table under a config-hash comment line; floats are written by ``repr``."""
    with open(path, "w", newline="") as f:
        f.write(f"# config_hash={cfg_hash}\n")
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _write_run_meta(out_dir: Path, command: str, cfg_hash: str, **extra) -> None:
    meta = {
        "command": command,
        "config_hash": cfg_hash,
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    meta.update(extra)
    write_json(out_dir / "run_meta.json", meta)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# standardize


STANDARDIZE_DEFAULTS = {"history_s": 1.0, "horizon_s": 3.0, "rate_hz": 10.0}


def cmd_standardize(args) -> int:
    cfg_raw, _ = _load_config(args.config)
    cfg = _merge(STANDARDIZE_DEFAULTS, cfg_raw)
    std = StandardizationConfig(**{key: _as(float, cfg[key], key) for key in STANDARDIZE_DEFAULTS})
    out = _out_dir(args)
    cfg_hash = config_hash(cfg)
    n_ok = n_failed = 0
    out_path = out / "standardized.jsonl"
    with open(out_path, "w") as f:
        for i, d in enumerate(read_jsonl(args.input)):
            try:
                s = standardize_sample(sample_from_dict(d), std)
            except RECORD_ERRORS as e:
                logger.warning("skipping %s", _record_error(Path(args.input), i, d, e))
                n_failed += 1
                continue
            f.write(canonical_dumps(sample_to_dict(s)) + "\n")
            n_ok += 1
    _write_run_meta(out, "standardize", cfg_hash, n_ok=n_ok, n_failed=n_failed)
    if n_ok == 0:
        logger.error("no sample could be standardized")
        return EXIT_FAILURE
    logger.info("standardized %d samples (%d failed) -> %s", n_ok, n_failed, out_path)
    return EXIT_PARTIAL if n_failed else EXIT_OK


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    cfg_raw, _ = _load_config(args.config)
    n_cfg = cfg_raw.pop("n", None)
    n = args.n if args.n is not None else (_as(int, n_cfg, "n") if n_cfg is not None else 100)
    if args.seed is not None:
        cfg_raw["seed"] = args.seed
    scen = ScenarioConfig.from_dict(cfg_raw)
    out = _out_dir(args)
    paths = generate_dataset(scen, n, out)
    _write_run_meta(out, "synth", config_hash(scen.to_dict()), n=n)
    logger.info("wrote %d scenarios to %s", n, paths["heatmaps"].parent)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    cfg_raw, base = _load_config(args.config)
    cfg = _merge(SAMPLING_DEFAULTS, cfg_raw)
    sampling, _ = _sampling_config(cfg, base)
    out = _out_dir(args)
    cfg_hash = config_hash(cfg)
    hms = sorted(_load_heatmaps(Path(args.heatmaps)))
    out_path = out / "predictions.jsonl"
    n = write_jsonl(
        out_path, (prediction_to_dict(sample_with_uncertainty(h, sampling), sid) for sid, h in hms)
    )
    _write_run_meta(out, "sample", cfg_hash, n=n)
    logger.info("sampled %d heatmaps -> %s", n, out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    cfg_raw, base = _load_config(args.config)
    cfg = _merge(SAMPLING_DEFAULTS, cfg_raw)
    sampling, threshold = _sampling_config(cfg, base)
    out = _out_dir(args)
    cfg_hash = config_hash(cfg)
    pairs = _load_eval_pairs(Path(args.heatmaps), Path(args.ground_truth))
    records = _run_evaluation(pairs, sampling, threshold, args.workers)
    rep = aggregate(records)
    write_records_csv(out / "records.csv", records, header_comment=f"config_hash={cfg_hash}")
    write_json(out / "aggregate.json", {"config_hash": cfg_hash, **report_to_dict(rep)})
    _write_run_meta(out, "evaluate", cfg_hash, n=rep.count)
    logger.info(
        "evaluated %d samples: minFDE_%d=%.4f MR_%d=%.4f",
        rep.count, sampling.k, rep.min_fde_l[-1], sampling.k, rep.mr_l[-1],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate


CALIBRATE_DEFAULTS = {
    "k": 6,
    "l_for_objective": 6,
    "r_values": None,
    "bin_width": 1.0,
    "min_count": 100,
    "dataset_tag": "unknown",
    "mixed_sources": None,
    "mixed_n": None,
}


def _mixed_pairs(sources: list[dict], n: int, seed: int, base: Path | None):
    """Interleave several heatmap sources, drawing each sample's source at random.

    Draw ``i`` picks a source with the configured weights using a substream
    keyed by (seed, i), then consumes that source's next unread sample, so
    the composition is reproducible regardless of chunking.
    """
    loaded = []
    weights = []
    for i, src in enumerate(sources):
        where = f"mixed_sources[{i}]"
        w = _as(float, src.get("weight", 1.0), f"{where}.weight")
        if not (math.isfinite(w) and w >= 0):
            raise CliError(f"config key {where}.weight: must be a finite number >= 0, got {w!r}")
        weights.append(w)
        loaded.append(_load_eval_pairs(
            _resolve_path(base, str(_required(src, "heatmaps", where))),
            _resolve_path(base, str(_required(src, "ground_truth", where))),
        ))
    total_w = sum(weights)
    if total_w == 0:
        raise CliError("config key mixed_sources: weights must not all be 0")
    probs = [w / total_w for w in weights]
    cursors = [0] * len(loaded)
    out = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        order = list(rng.permutation(len(loaded)))
        choice = int(rng.choice(len(loaded), p=probs))
        # fall back to any source with samples left, in the drawn order
        for cand in [choice] + order:
            if cursors[cand] < len(loaded[cand]):
                out.append(loaded[cand][cursors[cand]])
                cursors[cand] += 1
                break
        else:
            raise CliError(f"mixed sources exhausted after {i} of {n} draws")
    return out


def cmd_calibrate(args) -> int:
    cfg_raw, base = _load_config(args.config)
    cfg = _merge(CALIBRATE_DEFAULTS, cfg_raw)
    k = _as(int, cfg["k"], "k")
    bin_width = _as(float, cfg["bin_width"], "bin_width")
    min_count = _as(int, cfg["min_count"], "min_count")
    sweep = RadiusSweepConfig(
        r_values=_as(tuple, cfg["r_values"], "r_values") if cfg["r_values"] else (),
        l_for_objective=_as(int, cfg["l_for_objective"], "l_for_objective"),
    )
    out = _out_dir(args)
    cfg_hash = config_hash(cfg)
    sources = _objects(cfg, "mixed_sources")
    if sources:
        n = _as(int, cfg["mixed_n"] or 0, "mixed_n")
        if n < 1:
            raise CliError("mixed_sources requires a positive mixed_n")
        pairs = _mixed_pairs(sources, n, args.seed or 0, base)
    else:
        if not args.heatmaps or not args.ground_truth:
            raise CliError("calibrate needs HEATMAPS and GROUND_TRUTH (or mixed_sources config)")
        pairs = _load_eval_pairs(Path(args.heatmaps), Path(args.ground_truth))
    payloads = [(h, gt, k, sweep) for _, h, gt in pairs]
    spread_radius = _parallel_map(_calib_one, payloads, args.workers)
    model = calibrate(
        spread_radius, bin_width=bin_width, min_count=min_count, source_dataset=str(cfg["dataset_tag"])
    )
    write_json(out / "model.json", {**model_to_dict(model), "config_hash": cfg_hash})
    bins = binned_optimal_radii(spread_radius, bin_width=bin_width, min_count=min_count)
    _write_xy_csv(out / "binned_radii.csv", bins, ["bin_center", "mean_optimal_radius", "count"], cfg_hash)
    # optima on the first or last sweep radius suggest the sweep is too narrow
    n_edge = sum(1 for _, r in spread_radius if r in (sweep.r_values[0], sweep.r_values[-1]))
    _write_run_meta(
        out, "calibrate", cfg_hash, n=len(pairs),
        sweep_edge_count=n_edge, sweep_edge_share=n_edge / len(pairs),
    )
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
        return {"adaptive": model["calibration"]}
    if model.get("fixed_radius") is not None:
        return {"fixed": _as(float, model["fixed_radius"], f"models[{i}].fixed_radius")}
    raise CliError(f"config key models[{i}]: needs calibration or fixed_radius")


def _matrix_markdown(title: str, header: list[str], table: list[list[str]]) -> str:
    lines = [f"### {title}", "", "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in table]
    lines.append("")
    return "\n".join(lines)


def cmd_cross_eval(args) -> int:
    manifest_path = Path(args.manifest)
    if not manifest_path.exists():
        raise CliError(f"manifest not found: {manifest_path}")
    manifest = _read_object(manifest_path)
    base = manifest_path.parent
    cfg_hash = config_hash(manifest)
    out = _out_dir(args)

    models = _objects(manifest, "models")
    test_sets = _objects(manifest, "test_sets")
    if not models or not test_sets:
        raise CliError("manifest needs non-empty models and test_sets")
    row_tags = [str(_required(m, "train_dataset", f"models[{i}]")) for i, m in enumerate(models)]
    col_tags = [str(_required(t, "dataset", f"test_sets[{i}]")) for i, t in enumerate(test_sets)]
    if len(set(row_tags)) != len(row_tags) or len(set(col_tags)) != len(col_tags):
        raise CliError("model and test set tags must be unique")

    sampling = manifest.get("sampling", {})
    if not isinstance(sampling, dict):
        raise CliError("manifest key sampling: must be an object")
    # the radius comes from each model row, so the manifest may not set one
    sampling = _merge({key: v for key, v in SAMPLING_DEFAULTS.items() if key != "radius"}, sampling)
    baseline_r = _as(float, manifest.get("baseline_fixed_radius", 1.5), "baseline_fixed_radius")
    base_cfg, threshold = _sampling_config({**sampling, "radius": {"fixed": baseline_r}}, base)
    k = base_cfg.k
    configs = {
        tag: _sampling_config({**sampling, "radius": _model_radius(i, m)}, base)[0]
        for i, (tag, m) in enumerate(zip(row_tags, models))
    }
    set_paths = {
        tag: (
            _resolve_path(base, str(_required(t, "heatmaps", f"test_sets[{i}]"))),
            _resolve_path(base, str(_required(t, "ground_truth", f"test_sets[{i}]"))),
        )
        for i, (tag, t) in enumerate(zip(col_tags, test_sets))
    }
    for tag, (hp, gp) in set_paths.items():
        for p in (hp, gp):
            if not p.exists():
                raise CliError(f"test set {tag}: missing file {p}")

    cells: dict[str, dict[str, dict]] = {r: {} for r in row_tags}
    baselines: dict[str, dict] = {}
    n_failed = 0
    for col in col_tags:
        hp, gp = set_paths[col]
        try:
            pairs = _load_eval_pairs(hp, gp)
        except (CliError, ValueError) as e:
            logger.error("test set %s failed to load: %s", col, e)
            for row in row_tags:
                cells[row][col] = {"status": "failed", "error": str(e)}
                n_failed += 1
            baselines[col] = {"status": "failed", "error": str(e)}
            continue
        # one spread per test heatmap, shared by the baseline and every model row
        estimates = [uncertainty(h) for _, h, _ in pairs]
        base_rep = aggregate(_run_evaluation(pairs, base_cfg, threshold, args.workers, estimates))
        baselines[col] = {
            "status": "ok", "min_fde": base_rep.min_fde_l[-1], "mr": base_rep.mr_l[-1],
            "count": base_rep.count,
        }
        for row in row_tags:
            try:
                rep = aggregate(
                    _run_evaluation(pairs, configs[row], threshold, args.workers, estimates)
                )
                base_fde = base_rep.min_fde_l[-1]
                improvement = (
                    (base_fde - rep.min_fde_l[-1]) / base_fde if base_fde > 0 else None
                )
                cells[row][col] = {
                    "status": "ok",
                    "min_fde": rep.min_fde_l[-1],
                    "mr": rep.mr_l[-1],
                    "count": rep.count,
                    "improvement_vs_fixed": improvement,
                }
            except (ValueError, CliError) as e:
                logger.error("cell (%s, %s) failed: %s", row, col, e)
                cells[row][col] = {"status": "failed", "error": str(e)}
                n_failed += 1

    def _fmt(row: str, col: str, key: str):
        cell = cells[row][col]
        if cell["status"] != "ok" or cell.get(key) is None:
            return "failed" if cell["status"] != "ok" else ""
        return repr(cell[key])

    result = {
        "config_hash": cfg_hash,
        "k": k,
        "baseline_fixed_radius": baseline_r,
        "rows": row_tags,
        "cols": col_tags,
        "cells": cells,
        "baseline": baselines,
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
        _write_xy_csv(out / f"{stem}.csv", table, header, cfg_hash)
        md.append(_matrix_markdown(title, header, table))
    md.append(f"config_hash: {cfg_hash}")
    (out / "report.md").write_text("\n".join(md) + "\n")
    if args.svg:
        (out / "matrices.svg").write_text(_svg_matrix(row_tags, col_tags, cells))
    _write_run_meta(out, "cross-eval", cfg_hash, n_cells=len(row_tags) * len(col_tags), n_failed=n_failed)
    if n_failed == len(row_tags) * len(col_tags):
        return EXIT_FAILURE
    return EXIT_PARTIAL if n_failed else EXIT_OK


# ---------------------------------------------------------------------------
# analysis


ANALYSIS_UNCERTAINTY_DEFAULTS = {"bin_width": 1.0, "min_count": 100}
ANALYSIS_NOISE_DEFAULTS = {"process_accel_std": 1.0, "obs_std": 0.5, "bin_width": 0.1}
ANALYSIS_SPEED_DEFAULTS = {"bin_width": 1.0}


def _scene_values(path: Path, fn) -> list[tuple[str, float]]:
    """(sample id, fn(sample)) for every scene line, in file order."""
    out = []
    for i, d in enumerate(read_jsonl(path)):
        try:
            s = sample_from_dict(d)
            out.append((s.id, fn(s)))
        except RECORD_ERRORS as e:
            raise _record_error(path, i, d, e) from None
    if not out:
        raise CliError(f"{path}: no samples")
    return out


def _write_hist_json(path: Path, hist: list[tuple[float, int, float]], cfg: dict, cfg_hash: str) -> None:
    write_json(path, {
        "config_hash": cfg_hash,
        "bin_width": cfg["bin_width"],
        "bins": [{"lower": lo, "count": c, "fraction": fr} for lo, c, fr in hist],
    })


def cmd_analysis(args) -> int:
    cfg_raw, _ = _load_config(args.config)
    out = _out_dir(args)
    if args.analysis_cmd == "uncertainty-error":
        cfg = _merge(ANALYSIS_UNCERTAINTY_DEFAULTS, cfg_raw)
        cfg_hash = config_hash(cfg)
        records = read_records_csv(args.input)
        bins = bin_by_uncertainty(
            records, _as(float, cfg["bin_width"], "bin_width"), _as(int, cfg["min_count"], "min_count")
        )
        _write_xy_csv(out / "uncertainty_error.csv", bins, ["bin_lower", "mean_min_fde_1", "count"], cfg_hash)
        if args.svg:
            (out / "uncertainty_error.svg").write_text(
                _svg_line_chart([b[0] for b in bins], [b[1] for b in bins],
                                "uncertainty bin", "mean minFDE_1")
            )
        _write_run_meta(out, "analysis uncertainty-error", cfg_hash, n_bins=len(bins))
    elif args.analysis_cmd == "noise-report":
        cfg = _merge(ANALYSIS_NOISE_DEFAULTS, cfg_raw)
        cfg_hash = config_hash(cfg)
        kcfg = KalmanConfig(
            process_accel_std=_as(float, cfg["process_accel_std"], "process_accel_std"),
            obs_std=_as(float, cfg["obs_std"], "obs_std"),
        )
        noises = _scene_values(Path(args.input), lambda s: sample_noise(s, kcfg))
        _write_xy_csv(out / "noise.csv", noises, ["sample_id", "noise_m"], cfg_hash)
        hist = floor_histogram([n for _, n in noises], _as(float, cfg["bin_width"], "bin_width"))
        _write_hist_json(out / "noise_hist.json", hist, cfg, cfg_hash)
        _write_run_meta(out, "analysis noise-report", cfg_hash, n=len(noises))
    elif args.analysis_cmd == "speed-report":
        cfg = _merge(ANALYSIS_SPEED_DEFAULTS, cfg_raw)
        cfg_hash = config_hash(cfg)
        speeds = [v for _, v in _scene_values(Path(args.input), average_speed)]
        hist = floor_histogram(speeds, _as(float, cfg["bin_width"], "bin_width"))
        rows = [(lo, fr, c) for lo, c, fr in hist]
        _write_xy_csv(out / "speed_hist.csv", rows, ["bin_lower", "fraction", "count"], cfg_hash)
        _write_hist_json(out / "speed_hist.json", hist, cfg, cfg_hash)
        _write_run_meta(out, "analysis speed-report", cfg_hash, n=len(speeds))
    else:  # pragma: no cover - argparse enforces choices
        raise CliError(f"unknown analysis subcommand {args.analysis_cmd}")
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
            f"text-anchor='middle' font-size='11'>{c}</text>"
        )
    for i, r in enumerate(rows):
        parts.append(
            f"<text x='{pad - 8}' y='{pad + i * cell_px + cell_px / 2:.0f}' "
            f"text-anchor='end' font-size='11'>{r}</text>"
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatpred",
        description="Uncertainty-adaptive endpoint sampling toolkit for prediction heatmaps",
    )
    parser.add_argument("--version", action="version", version=f"heatpred {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="random seed override")
    common.add_argument("--workers", type=int, default=1, help="parallel worker count")
    common.add_argument("--out", required=True, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("standardize", parents=[common], help="resample scenes to the common rate/horizon")
    p.add_argument("input", help="scene JSONL")
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic heatmap dataset")
    p.add_argument("--n", type=int, default=None, help="number of scenarios")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample", parents=[common], help="extract endpoints from heatmaps")
    p.add_argument("heatmaps", help="heatmap JSONL")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", parents=[common], help="score heatmaps against ground truth")
    p.add_argument("heatmaps", help="heatmap JSONL")
    p.add_argument("ground_truth", help="ground-truth JSONL")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("calibrate", parents=[common], help="fit the spread-to-radius model")
    p.add_argument("heatmaps", nargs="?", default=None, help="heatmap JSONL")
    p.add_argument("ground_truth", nargs="?", default=None, help="ground-truth JSONL")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("cross-eval", parents=[common], help="train-by-test evaluation matrix")
    p.add_argument("manifest", help="run manifest JSON")
    p.add_argument("--svg", action="store_true", help="also emit an SVG matrix chart")
    p.set_defaults(func=cmd_cross_eval)

    p = sub.add_parser("analysis", parents=[common], help="binned analyses and reports")
    p.add_argument(
        "analysis_cmd", choices=["uncertainty-error", "noise-report", "speed-report"],
    )
    p.add_argument("input", help="input file (records CSV or scene JSONL)")
    p.add_argument("--svg", action="store_true", help="also emit an SVG chart")
    p.set_defaults(func=cmd_analysis)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise CliError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (CliError, ValueError, OSError) as e:
        logger.error("%s", e)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
