import csv
import importlib
import json
import math
import pickle
import subprocess
import sys
import warnings
from collections import Counter
from xml.etree import ElementTree
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import heatpred.__main__
import heatpred.io
import heatpred.sets
from heatpred import cli
from heatpred.calibration import RadiusSweepConfig
from heatpred.cli import EXIT_FAILURE, EXIT_OK, EXIT_PARTIAL, main
from heatpred.heatmap import CLIPPED_WARNING, GridSpec, Heatmap, heatmap_to_dict, uncertainty
from heatpred.io import read_json, write_json, write_jsonl
from heatpred.metrics import EvalRecord, write_records_csv
from heatpred.synth import ScenarioConfig, generate_dataset, sample_scenario
from heatpred.trajectory import sample_to_dict
from helpers import child_env, planted_calibration_dataset, straight_sample


SYNTH_OUTPUTS = ("heatmaps.jsonl", "ground_truth.jsonl", "manifest.json")
SMALL_SYNTH = {
    "seed": 9, "sigma_range": [0.5, 2.0], "mean_region": [[0, 15], [-6, 6]],
    "grid": {"origin_x": -10, "origin_y": -16, "resolution": 0.5, "width": 70, "height": 64},
}
# one narrow mode per scenario on a 10 m by 10 m grid
NARROW_SYNTH = {
    "n_modes_range": [1, 1], "sigma_range": [0.5, 0.5],
    "grid": {"origin_x": 0, "origin_y": -5, "resolution": 0.5, "width": 21, "height": 21},
}


class WriteFailed(RuntimeError):
    pass


def write_scenes(path, samples):
    write_jsonl(path, [sample_to_dict(s) for s in samples])


def write_pairs(dirpath, pairs, prefix=""):
    """Dump (heatmap, gt) pairs in the exchange formats; returns paths."""
    dirpath.mkdir(parents=True, exist_ok=True)
    hm_path = dirpath / f"{prefix}heatmaps.jsonl"
    gt_path = dirpath / f"{prefix}ground_truth.jsonl"
    write_jsonl(hm_path, [heatmap_to_dict(h, f"c{i:04d}") for i, (h, _) in enumerate(pairs)])
    write_jsonl(
        gt_path,
        [{"sample_id": f"c{i:04d}", "gt": [gt[0], gt[1]]} for i, (_, gt) in enumerate(pairs)],
    )
    return hm_path, gt_path


def point_mass_pairs(n=12):
    g = GridSpec(-6.0, -6.0, 0.5, 25, 25)
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(n):
        idx = int(rng.integers(0, g.n_cells))
        h = Heatmap.from_cells(g, {idx: 1.0})
        xs, ys = h.cell_centers()
        pairs.append((h, (float(xs[0]), float(ys[0]))))
    return pairs


def failed_run_meta(out, caplog) -> dict:
    """The run_meta.json of a run that exited 1: it says so and holds the error it logged last."""
    meta = read_json(out / "run_meta.json")
    assert meta["status"] == "failed"
    assert meta["error"] == [r.getMessage() for r in caplog.records if r.levelname == "ERROR"][-1]
    return meta


def read_csv_rows(path):
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestStandardize:
    def test_mixed_rate_file(self, tmp_path):
        from test_trajectory import make_raw_sample

        scenes = tmp_path / "scenes.jsonl"
        samples = [
            make_raw_sample(5.0, 5.0, 5.0, sample_id="shifts0"),
            make_raw_sample(2.0, 2.0, 6.0, sample_id="nusc0"),
            make_raw_sample(10.0, 2.0, 3.0, sample_id="argo0"),
        ]
        write_scenes(scenes, samples)
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_OK
        lines = (out / "standardized.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        for ln in lines:
            d = json.loads(ln)
            assert len(d["past"]) == 11
            assert len(d["future"]) == 30

    def test_partial_failure_exit_code(self, tmp_path):
        from test_trajectory import make_raw_sample

        scenes = tmp_path / "scenes.jsonl"
        good = make_raw_sample(10.0, 2.0, 3.0, sample_id="ok")
        short = make_raw_sample(10.0, 0.5, 3.0, sample_id="short")
        write_scenes(scenes, [good, short])
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_PARTIAL
        lines = (out / "standardized.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_non_object_line_is_a_failed_record(self, tmp_path, caplog):
        scenes = tmp_path / "scenes.jsonl"
        write_scenes(scenes, [straight_sample(5.0, sample_id="ok")])
        scenes.write_text(scenes.read_text() + "[1, 2]\n")
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_PARTIAL
        assert f"{scenes}:2: record must be a JSON object" in caplog.text
        assert len((out / "standardized.jsonl").read_text().splitlines()) == 1
        assert read_json(out / "run_meta.json")["n_failed"] == 1

    def test_line_that_is_not_json_is_a_failed_record(self, tmp_path, caplog):
        scenes = tmp_path / "scenes.jsonl"
        write_scenes(scenes, [straight_sample(5.0, sample_id=f"ok{i}") for i in range(3)])
        good = scenes.read_text().splitlines()
        scenes.write_text("\n".join(good[:2] + ['{"id": "x", bad'] + good[2:]) + "\n")
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_PARTIAL
        assert f"{scenes}:3: invalid JSON" in caplog.text
        lines = (out / "standardized.jsonl").read_text().splitlines()
        assert [json.loads(ln)["id"] for ln in lines] == ["ok0", "ok1", "ok2"]
        meta = read_json(out / "run_meta.json")
        assert (meta["n_ok"], meta["n_failed"]) == (3, 1)

    def test_failure_part_way_leaves_no_earlier_output(self, tmp_path, monkeypatch):
        scenes = tmp_path / "scenes.jsonl"
        write_scenes(scenes, [straight_sample(5.0, sample_id=f"ok{i}") for i in range(3)])
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_OK
        written = []

        def fail_on_second(sample):
            if written:
                raise WriteFailed("no more rows")
            written.append(sample)
            return sample_to_dict(sample)

        monkeypatch.setattr("heatpred.cli.sample_to_dict", fail_on_second)
        with pytest.raises(WriteFailed):
            main(["standardize", str(scenes), "--out", str(out)])
        assert written
        assert [p.name for p in out.iterdir()] == ["run_meta.json"]

    def test_empty_file_fails(self, tmp_path, caplog):
        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text("")
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_FAILURE
        meta = failed_run_meta(out, caplog)
        assert meta["error"] == "no sample could be standardized"
        assert (meta["n_ok"], meta["n_failed"]) == (0, 0)

    def test_file_of_bad_lines_fails(self, tmp_path, caplog):
        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text("[1, 2]\nnot json\n")
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_FAILURE
        meta = failed_run_meta(out, caplog)
        assert (meta["error"], meta["n_ok"], meta["n_failed"]) == ("no sample could be standardized", 0, 2)

    def test_many_bad_lines_are_numbered_reading_each_byte_once(self, tmp_path, caplog, monkeypatch):
        # bad lines among good and blank ones, each named by its own number
        good = [json.dumps(sample_to_dict(straight_sample(5.0, sample_id=f"ok{i}"))) for i in range(4)]
        lines, bad = [], []
        for i in range(1, 601):
            if i % 150 == 0:
                lines.append(good[i // 150 - 1])
            elif i % 7 == 0:
                lines.append("")
            else:
                lines.append("not json")
                bad.append(i)
        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text("\n".join(lines) + "\n")
        counted = []
        line_number = heatpred.io._line_number
        monkeypatch.setattr(
            heatpred.io, "_line_number",
            lambda path, offset, known: counted.append(offset - known[0]) or line_number(path, offset, known),
        )
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_PARTIAL
        skipped = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert [m.split(": invalid JSON")[0] for m in skipped] == [f"skipping {scenes}:{i}" for i in bad]
        assert len(counted) == len(bad)
        assert sum(counted) < scenes.stat().st_size
        assert read_json(out / "run_meta.json")["n_failed"] == len(bad)

    def test_already_standard_round_trip(self, tmp_path):
        scenes = tmp_path / "scenes.jsonl"
        samples = [straight_sample(v, sample_id=f"s{i}") for i, v in enumerate((0.0, 5.0, 12.0))]
        write_scenes(scenes, samples)
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_OK
        for raw, ln in zip(samples, (out / "standardized.jsonl").read_text().strip().splitlines()):
            d = json.loads(ln)
            got = np.array(d["future"])
            assert np.allclose(got, raw.future.data, atol=1e-9)


class TestSynthCli:
    def test_reruns_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"n": 15, **SMALL_SYNTH})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["synth", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        for name in SYNTH_OUTPUTS:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("n, cfg", [(1, None), (7, None), (15, SMALL_SYNTH)], ids=["n1", "n7", "custom"])
    def test_outputs_do_not_depend_on_workers(self, tmp_path, n, cfg):
        argv = ["synth", "--n", str(n), "--seed", "3"]
        if cfg is not None:
            write_json(tmp_path / "cfg.json", cfg)
            argv += ["--config", str(tmp_path / "cfg.json")]
        seen = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert main(argv + ["--out", str(out), "--workers", str(workers)]) == EXIT_OK
            assert read_json(out / "run_meta.json")["workers"] == workers
            # no range file is left beside the outputs
            assert sorted(p.name for p in out.iterdir()) == sorted([*SYNTH_OUTPUTS, "run_meta.json"])
            seen[workers] = [(out / name).read_bytes() for name in SYNTH_OUTPUTS]
        assert seen[1] == seen[2] == seen[3]

    @pytest.mark.parametrize(
        "cfg, n",
        [
            # one mode, mostly off the grid: scenarios 4, 5 and 7 of the first 8 render nothing
            ({**NARROW_SYNTH, "mean_region": [[0, 30], [-2, 2]], "seed": 9}, 8),
            ({"mean_region": [[500, 600], [500, 600]]}, 8),
            # scenario 29 is the first to render nothing, and ranges after it are still being written
            ({**NARROW_SYNTH, "mean_region": [[0, 14], [-2, 2]], "seed": 9}, 2000),
        ],
        ids=["some-fail", "all-fail", "fail-in-flight"],
    )
    def test_empty_render_names_lowest_failing_scenario(self, tmp_path, caplog, cfg, n):
        scen = ScenarioConfig.from_dict(cfg)
        first = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for i in range(n):
                try:
                    sample_scenario(scen, i)
                except ValueError:
                    first = i
                    break
        assert first is not None
        write_json(tmp_path / "cfg.json", cfg)
        for workers in (1, 2):
            caplog.clear()
            argv = ["synth", "--n", str(n), "--config", str(tmp_path / "cfg.json"), "--workers", str(workers)]
            assert main(argv + ["--out", str(tmp_path / f"w{workers}")]) == EXIT_FAILURE
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert errors == [
                f"synth-{first:06d}: no grid cell lies within the truncation disc of any mode"
            ]
            assert "Traceback" not in caplog.text
            # no JSONL or range file is left behind, and the run record says why
            out = tmp_path / f"w{workers}"
            assert [p.name for p in out.iterdir()] == ["run_meta.json"]
            meta = failed_run_meta(out, caplog)
            assert (meta["command"], meta["n"], meta["workers"]) == ("synth", n, workers)
            assert "clipped_scenarios" not in meta

    def test_clipped_scenarios_counted_once_per_run(self, tmp_path, caplog, capfd):
        # modes near the grid's edge: some truncation discs are cut, none is empty
        cfg = {**NARROW_SYNTH, "mean_region": [[0, 10], [-5, 5]], "seed": 2}
        scen = ScenarioConfig.from_dict(cfg)
        clipped = 0
        for i in range(10):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sample_scenario(scen, i)
            clipped += bool(caught)
        assert 0 < clipped < 10
        write_json(tmp_path / "cfg.json", cfg)
        outputs = {}
        for workers in (1, 2, 3):
            caplog.clear()
            out = tmp_path / f"w{workers}"
            argv = ["synth", "--n", "10", "--config", str(tmp_path / "cfg.json"), "--workers", str(workers)]
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            assert read_json(out / "run_meta.json")["clipped_scenarios"] == clipped
            assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
                f"{CLIPPED_WARNING} in {clipped} of 10 scenarios"
            ]
            assert CLIPPED_WARNING not in capfd.readouterr().err
            outputs[workers] = [(out / name).read_bytes() for name in SYNTH_OUTPUTS]
        assert outputs[1] == outputs[2] == outputs[3]


class TestEvaluate:
    def test_point_mass_is_perfect(self, tmp_path):
        hm, gt = write_pairs(tmp_path, point_mass_pairs())
        out = tmp_path / "out"
        assert main(["evaluate", str(hm), str(gt), "--out", str(out)]) == EXIT_OK
        agg = read_json(out / "aggregate.json")
        assert agg["min_fde_l"] == [0.0] * 6
        assert agg["mr_l"] == [0.0] * 6

    def test_shuffled_inputs_byte_identical(self, tmp_path):
        pairs = point_mass_pairs(10)
        hm1, gt1 = write_pairs(tmp_path / "f", pairs)
        # rewrite in shuffled line order
        rng = np.random.default_rng(0)
        hm_lines = hm1.read_text().strip().splitlines()
        gt_lines = gt1.read_text().strip().splitlines()
        order = rng.permutation(len(hm_lines))
        hm2 = tmp_path / "s" / "heatmaps.jsonl"
        gt2 = tmp_path / "s" / "ground_truth.jsonl"
        hm2.parent.mkdir()
        hm2.write_text("\n".join(hm_lines[i] for i in order) + "\n")
        gt2.write_text("\n".join(gt_lines[i] for i in reversed(order)) + "\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["evaluate", str(hm1), str(gt1), "--out", str(out1)]) == EXIT_OK
        assert main(["evaluate", str(hm2), str(gt2), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()

    def test_id_mismatch_lists_offenders(self, tmp_path, caplog):
        pairs = point_mass_pairs(5)
        hm, gt = write_pairs(tmp_path, pairs)
        rows = [json.loads(ln) for ln in gt.read_text().strip().splitlines()]
        rows[0]["sample_id"] = "zzz-unknown"
        write_jsonl(gt, rows)
        out = tmp_path / "out"
        assert main(["evaluate", str(hm), str(gt), "--out", str(out)]) == EXIT_FAILURE
        assert "zzz-unknown" in caplog.text
        assert "c0000" in caplog.text

    def test_workers_match_serial(self, tmp_path):
        cfg_gen = ScenarioConfig(
            seed=5, sigma_range=(0.5, 3.0), mean_region=((0.0, 18.0), (-7.0, 7.0)),
            grid=GridSpec(origin_x=-13.0, origin_y=-20.0, resolution=0.5, width=89, height=81),
        )
        data = tmp_path / "data"
        paths = generate_dataset(cfg_gen, 30, data)
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        argv = ["evaluate", str(paths["heatmaps"]), str(paths["ground_truth"])]
        assert main(argv + ["--out", str(out1), "--workers", "1"]) == EXIT_OK
        assert main(argv + ["--out", str(out2), "--workers", "4"]) == EXIT_OK
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()

    @pytest.mark.parametrize(
        "model, clamped, radius",
        [
            # falls from 0.05 at spread 0, so below r_min = 0.1 for every spread
            ({"a": -1.0, "b": 0.05}, {"r_min": 10, "r_max": 0}, "0.1"),
            ({"a": 0.0, "b": 50.0}, {"r_min": 0, "r_max": 10}, "10.0"),
            ({"a": 0.0, "b": 1.0}, {"r_min": 0, "r_max": 0}, "1.0"),
        ],
        ids=["below-r-min", "above-r-max", "inside"],
    )
    def test_clamped_radii_in_run_meta(self, tmp_path, model, clamped, radius):
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(10))
        write_json(tmp_path / "model.json", model)
        write_json(tmp_path / "adaptive.json", {"radius": {"adaptive": "model.json"}})
        out = tmp_path / "adaptive"
        argv = ["evaluate", str(hm), str(gt), "--config", str(tmp_path / "adaptive.json"), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert read_json(out / "run_meta.json")["clamped_radii"] == clamped
        assert {r["radius_used"] for r in read_csv_rows(out / "records.csv")} == {radius}
        assert main(["evaluate", str(hm), str(gt), "--out", str(tmp_path / "fixed")]) == EXIT_OK
        assert read_json(tmp_path / "fixed" / "run_meta.json")["clamped_radii"] is None
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {
            "models": [
                {"train_dataset": "fixed", "fixed_radius": 1.0},
                {"train_dataset": "adaptive", "calibration": "model.json"},
            ],
            "test_sets": [{"dataset": "t0", "heatmaps": str(hm), "ground_truth": str(gt)}],
        })
        assert main(["cross-eval", str(manifest), "--out", str(tmp_path / "xe")]) == EXIT_OK
        meta = read_json(tmp_path / "xe" / "run_meta.json")
        assert meta["clamped_radii"] == {"fixed": {"t0": None}, "adaptive": {"t0": clamped}}

    def test_records_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product over its threads above about 10,000
        # cells, which changed the rounding of the spread with the thread count
        data = tmp_path / "data"
        assert main(["synth", "--n", "20", "--seed", "1", "--workers", "1", "--out", str(data)]) == EXIT_OK
        with open(data / "heatmaps.jsonl") as f:
            assert sum(len(json.loads(ln)["cells"]) > 10_000 for ln in f) == 3
        records = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            argv = ["evaluate", str(data / "heatmaps.jsonl"), str(data / "ground_truth.jsonl")]
            subprocess.run(
                [sys.executable, "-m", "heatpred", *argv, "--workers", "1", "--out", str(out)],
                env=child_env(OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True, timeout=300,
            )
            records.append((out / "records.csv").read_bytes())
        assert records[0] == records[1]


class TestConfigAndFlags:
    @pytest.mark.parametrize(
        "text, named",
        [
            ("[1,2]", None), ('"x"', None), ('{"radius": 5}', "radius"), ('{"k": null}', "config key k"),
            ('{"k": true}', "config key k: True is not a valid int"),
            ('{"k": 6.7}', "config key k: 6.7 is not a valid int"),
            ('{"miss_threshold": "2"}', "config key miss_threshold: '2' is not a valid float"),
            ('{"miss_threshold": NaN}', "config key miss_threshold: nan is not a valid float"),
            ('{"k": 0}', "config key k: must be at least 1, got 0"),
            ('{"r_min": 5, "r_max": 1}', "config key r_max: must be at least r_min (5.0), got 1.0"),
            ('{"r_min": 0}', "config key r_min: must be positive, got 0.0"),
            ('{"radius": {"adaptive": 5}}', "config key radius.adaptive: 5 is not a string"),
            ('{"radius": {"fixed": 1e400}}', "config key radius.fixed: must be finite, got inf"),
            ('{"radius": {"fixed": Infinity}}', "config key radius.fixed: must be finite, got inf"),
            ('{"r_min": 1e400, "r_max": 1e400}', "config key r_min: must be finite, got inf"),
        ],
        ids=[
            "array", "string", "radius-number", "k-null", "k-bool", "k-fraction", "miss_threshold-string",
            "miss_threshold-nan", "k-zero", "r_max-below-r_min", "r_min-zero", "adaptive-number",
            "fixed-1e400", "fixed-Infinity", "r_min-infinite",
        ],
    )
    def test_bad_config_fails_naming_file_or_key(self, tmp_path, caplog, text, named):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(3))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = ["evaluate", str(hm), str(gt), "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_FAILURE
        assert (named or str(cfg)) in caplog.text
        # a rejected config leaves no output directory
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, edit, named",
        [
            ("cross-eval", lambda m: m["models"][0].pop("train_dataset"),
             "models[0]: missing key train_dataset"),
            ("cross-eval", lambda m: m.update(models={"a": 1}), "config key models"),
            ("cross-eval", lambda m: m["test_sets"][0].pop("dataset"), "test_sets[0]: missing key dataset"),
            ("cross-eval", lambda m: m["test_sets"][0].pop("heatmaps"), "test_sets[0]: missing key heatmaps"),
            ("cross-eval", lambda m: m["test_sets"][0].pop("ground_truth"),
             "test_sets[0]: missing key ground_truth"),
            ("cross-eval", lambda m: m.update(sampling={"k": None}), "config key k"),
            ("cross-eval", lambda m: m.update(sampling={"radius": {"fixed": 1}}), "unknown config keys: radius"),
            ("cross-eval", lambda m: m["models"][0].update(fixed_radius="x"), "config key models[0].fixed_radius"),
            ("calibrate", lambda c: c["mixed_sources"][0].pop("heatmaps"),
             "mixed_sources[0]: missing key heatmaps"),
            ("calibrate", lambda c: [s.update(weight=0) for s in c["mixed_sources"]],
             "mixed_sources: weights must not all be 0"),
            ("calibrate", lambda c: c["mixed_sources"][1].update(weight=-1), "config key mixed_sources[1].weight"),
            ("calibrate", lambda c: c["mixed_sources"][0].update(weight="x"), "config key mixed_sources[0].weight"),
            ("calibrate", lambda c: c.update(r_values="12"), "config key r_values: '12' is not a list"),
            ("calibrate", lambda c: c.update(mixed_sources=False), "config key mixed_sources: must be a list of objects"),
            ("calibrate", lambda c: c.update(r_values=[0.5, "x"]),
             "config key r_values[1]: 'x' is not a valid float"),
            ("cross-eval", lambda m: m.update(sampling={"k": 0}), "config key k: must be at least 1, got 0"),
            ("sample", lambda c: c.update(k=0), "config key k: must be at least 1, got 0"),
            ("sample", lambda c: c.update(r_min=5, r_max=1),
             "config key r_max: must be at least r_min (5.0), got 1.0"),
            ("calibrate", lambda c: c.update(l_for_objective=0),
             "config key l_for_objective: must be at least 1, got 0"),
            ("calibrate", lambda c: c.update(r_values=[0.5, 0.2]),
             "config key r_values[1]: radii must be strictly ascending, got 0.2 after 0.5"),
            ("calibrate", lambda c: c.update(r_values=[-1, 0.2]), "config key r_values[0]: must be positive, got -1.0"),
            ("calibrate", lambda c: c.update(r_values=[]), "config key r_values: must hold at least one radius"),
            ("calibrate", lambda c: c.update(mixed_n=0), "config key mixed_n: must be at least 1, got 0"),
            ("standardize", lambda c: c.update(rate_hz=0), "config key rate_hz: must be positive and finite, got 0.0"),
            ("standardize", lambda c: c.update(rate_hz=math.inf),
             "config key rate_hz: must be positive and finite, got inf"),
            ("standardize", lambda c: c.update(horizon_s=0.15),
             "config key horizon_s: must be a whole number of steps at rate_hz 10.0, got 0.15"),
            ("noise-report", lambda c: c.update(obs_std=0), "config key obs_std: must be positive and finite, got 0.0"),
            ("noise-report", lambda c: c.update(process_accel_std=math.inf),
             "config key process_accel_std: must be positive and finite, got inf"),
            ("cross-eval", lambda m: m["models"][0].update(train_dataset=7),
             "config key models[0].train_dataset: 7 is not a string"),
            ("cross-eval", lambda m: m["test_sets"][0].update(dataset=None),
             "config key test_sets[0].dataset: None is not a string"),
            ("cross-eval", lambda m: m["models"][0].update(calibration=["m.json"]),
             "config key models[0].calibration: ['m.json'] is not a string"),
            ("cross-eval", lambda m: m["test_sets"][0].update(heatmaps=5),
             "config key test_sets[0].heatmaps: 5 is not a string"),
            ("calibrate", lambda c: c["mixed_sources"][1].update(ground_truth=True),
             "config key mixed_sources[1].ground_truth: True is not a string"),
            ("calibrate", lambda c: c.update(dataset_tag=None), "config key dataset_tag: None is not a string"),
            ("cross-eval", lambda m: m["models"][0].update(fixed_radius=math.inf),
             "config key models[0].fixed_radius: must be finite, got inf"),
            ("cross-eval", lambda m: m.update(baseline_fixed_radius=math.inf),
             "config key baseline_fixed_radius: must be finite, got inf"),
            ("calibrate", lambda c: c.update(bin_width=math.inf), "config key bin_width: must be finite, got inf"),
            ("calibrate", lambda c: c.update(r_values=[0.5, math.inf]),
             "config key r_values[1]: must be finite, got inf"),
            ("noise-report", lambda c: c.update(bin_width=math.inf), "config key bin_width: must be finite, got inf"),
        ],
        ids=[
            "model-no-train_dataset", "models-not-a-list", "test-set-no-dataset", "test-set-no-heatmaps",
            "test-set-no-ground_truth", "sampling-k-null", "sampling-radius", "fixed_radius-string",
            "source-no-heatmaps", "weights-all-zero", "weight-negative", "weight-not-a-number",
            "r_values-string", "r_values-item-string", "mixed_sources-false", "sampling-k-zero", "sample-k-zero",
            "sample-r_max-below-r_min", "l_for_objective-zero", "r_values-descending", "r_values-negative",
            "r_values-empty", "mixed_n-zero", "rate_hz-zero", "rate_hz-infinite", "horizon_s-fractional-steps",
            "obs_std-zero", "process_accel_std-infinite", "train_dataset-number", "dataset-null", "calibration-list",
            "test-set-heatmaps-number", "source-ground_truth-bool", "dataset_tag-null", "fixed_radius-infinite",
            "baseline_fixed_radius-infinite", "bin_width-infinite", "r_values-infinite", "noise-bin_width-infinite",
        ],
    )
    def test_bad_manifest_entry_fails_naming_entry_and_key(self, tmp_path, caplog, command, edit, named):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(3))
        files = {"heatmaps": str(hm), "ground_truth": str(gt)}
        if command == "cross-eval":
            cfg = {
                "models": [{"train_dataset": "m0", "fixed_radius": 1.0}],
                "test_sets": [{"dataset": "t0", **files}],
            }
        elif command == "calibrate":
            cfg = {"min_count": 1, "mixed_n": 4, "mixed_sources": [dict(files), dict(files)]}
        else:
            cfg = {}
        edit(cfg)
        path = tmp_path / "cfg.json"
        write_json(path, cfg)
        argv = {
            "cross-eval": ["cross-eval", str(path)],
            "calibrate": ["calibrate", "--config", str(path)],
            "sample": ["sample", str(hm), "--config", str(path)],
            "standardize": ["standardize", str(hm), "--config", str(path)],
            "noise-report": ["analysis", "noise-report", str(hm), "--config", str(path)],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_FAILURE
        assert named in caplog.text
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sample", "evaluate", "cross-eval"])
    @pytest.mark.parametrize(
        "text, named",
        [
            ("{}", "m.json: missing key 'a'"),
            ("[1,2]", "m.json: top level must be a JSON object"),
            ('{"a": 1, "b": -1}', "m.json: intercept b must be positive"),
            ('{"a": 0.1, "b": Infinity}', "m.json: intercept b must be finite, got inf"),
            ('{"a": "x", "b": 1}', "m.json: key a: 'x' is not a valid float"),
            ('{"a": 0.1, "b": 1, "bin_count": "many"}', "m.json: key bin_count"),
            ('{"a": 0.1, "b": 1, "source_dataset": null}', "m.json: key source_dataset: None is not a string"),
        ],
        ids=["empty", "array", "negative-b", "infinite-b", "a-string", "bin_count-string", "source_dataset-null"],
    )
    def test_bad_adaptive_model_names_file_and_key(self, tmp_path, caplog, command, text, named):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(3))
        (tmp_path / "m.json").write_text(text)
        if command == "cross-eval":
            cfg = {"models": [{"train_dataset": "m0", "calibration": "m.json"}],
                   "test_sets": [{"dataset": "t0", "heatmaps": str(hm), "ground_truth": str(gt)}]}
            argv = ["cross-eval", str(tmp_path / "cfg.json")]
        else:
            cfg = {"radius": {"adaptive": "m.json"}}
            argv = [command, str(hm)] + ([str(gt)] if command == "evaluate" else [])
            argv += ["--config", str(tmp_path / "cfg.json")]
        write_json(tmp_path / "cfg.json", cfg)
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_FAILURE
        assert named in caplog.text

    @pytest.mark.parametrize(
        "cfg, flags, named",
        [
            ({"sigma_rnage": [1.0, 2.0]}, [], "unknown config keys: sigma_rnage"),
            ({"grid": {"origin_x": 0}}, [], "config key grid: missing key 'origin_y'"),
            ({"n_modes_range": 3}, [], "config key n_modes_range"),
            ({"seed": "x"}, [], "config key seed"),
            ({"n": "many"}, [], "config key n"),
            ({"n": 0}, [], "config key n: must be at least 1, got 0"),
            ({}, ["--n", "0"], "--n must be at least 1, got 0"),
            ({"n_modes_range": [2, 1]}, [], "config key n_modes_range: must be a non-empty range"),
        ],
        ids=[
            "unknown-key", "grid-partial", "n_modes_range-number", "seed-string", "n-string", "n-zero", "n-flag-zero",
            "n_modes_range-empty",
        ],
    )
    def test_bad_synth_config_names_key(self, tmp_path, caplog, cfg, flags, named):
        write_json(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["synth", "--config", str(tmp_path / "cfg.json"), *flags, "--out", str(out)]) == EXIT_FAILURE
        assert named in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "uncertainty-error", "noise-report", "speed-report"])
    def test_non_positive_bin_width_named_before_inputs_are_read(self, tmp_path, caplog, command):
        write_json(tmp_path / "cfg.json", {"bin_width": 0.0})
        missing = str(tmp_path / "missing.jsonl")
        argv = [command, missing, missing] if command == "calibrate" else ["analysis", command, missing]
        argv += ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_FAILURE
        assert "config key bin_width: must be positive, got 0.0" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_workers_below_one_rejected(self, tmp_path, caplog):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(3))
        out = tmp_path / "out"
        assert main(["evaluate", str(hm), str(gt), "--out", str(out), "--workers", "-3"]) == EXIT_FAILURE
        assert "--workers" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            ("evaluate", "the following arguments are required: --out, heatmaps, ground_truth"),
            ("sample --out OUT", "the following arguments are required: heatmaps"),
            ("synth", "the following arguments are required: --out"),
            ("evaluate h.jsonl g.jsonl --seed 1 --out OUT", "unrecognized arguments: --seed 1"),
            ("cross-eval c.json --config c.json --out OUT", "unrecognized arguments: --config c.json"),
            ("cross-eval c.json --seed 1 --out OUT", "unrecognized arguments: --seed 1"),
            ("sample h.jsonl --seed 1 --out OUT", "unrecognized arguments: --seed 1"),
            ("standardize s.jsonl --seed 1 --out OUT", "unrecognized arguments: --seed 1"),
            ("standardize s.jsonl --workers 2 --out OUT", "unrecognized arguments: --workers 2"),
            ("synth --workers 0 --out OUT", "--workers must be at least 1, got 0"),
            ("analysis speed-report s.jsonl --seed 1 --out OUT", "unrecognized arguments: --seed 1"),
            ("analysis noise-report s.jsonl --workers 0 --out OUT", "unrecognized arguments: --workers 0"),
            ("evaluate h.jsonl g.jsonl --workers x --out OUT", "argument --workers: invalid int value: 'x'"),
            ("frobnicate --out OUT", "invalid choice: 'frobnicate'"),
        ],
        ids=[
            "evaluate-no-arguments", "sample-no-heatmaps", "synth-no-out", "evaluate-seed", "cross-eval-config",
            "cross-eval-seed", "sample-seed", "standardize-seed", "standardize-workers", "synth-workers-0",
            "analysis-seed", "analysis-workers", "workers-not-a-number", "unknown-command",
        ],
    )
    def test_usage_error_exits_1_naming_the_argument(self, tmp_path, caplog, argv, named):
        out = tmp_path / "out"
        assert main([str(out) if a == "OUT" else a for a in argv.split()]) == EXIT_FAILURE
        assert named in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["evaluate", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith(("usage: heatpred", "heatpred "))


class TestEntryPoint:
    # the process entry, run in a subprocess beside cli.main run as the whole
    # program; each prints the collector's freeze count when the process exits
    ENTRIES = {
        "run": "from heatpred.__main__ import run; run()",
        "main": "from heatpred.cli import main; sys.exit(main())",
    }

    def _exit(self, tmp_path, entry: str, argv: list[str]) -> subprocess.CompletedProcess:
        code = (
            "import atexit, gc, sys; atexit.register(lambda: print('frozen', gc.get_freeze_count())); "
            + self.ENTRIES[entry]
        )
        return subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=tmp_path, env=child_env(),
            capture_output=True, text=True, timeout=120,
        )

    @pytest.mark.parametrize(
        "argv, code",
        [(["--version"], EXIT_OK), (["evaluate", "h.jsonl", "g.jsonl", "--out", "out"], EXIT_FAILURE)],
        ids=["version", "missing-input"],
    )
    def test_heap_is_frozen_before_exit_with_the_same_code_and_output(self, tmp_path, argv, code):
        runs = {}
        for entry in self.ENTRIES:
            proc = self._exit(tmp_path, entry, argv)
            assert proc.returncode == code, proc.stderr
            *out, frozen = proc.stdout.splitlines()
            runs[entry] = (out, proc.stderr, int(frozen.removeprefix("frozen ")))
        assert runs["run"][:2] == runs["main"][:2]
        assert runs["main"][2] == 0 and runs["run"][2] > 0
        assert not (tmp_path / "out").exists()

    def test_script_target_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["heatpred"]
        module, name = target.split(":")
        entry = getattr(importlib.import_module(module), name)
        assert callable(entry)
        assert entry is heatpred.__main__.run


class TestMissingInputFile:
    """A missing input file, or an input path that is not a file, fails with
    exit 1, naming the argument or the config entry and key that gave it,
    before the output directory is made."""

    @staticmethod
    def _bad_paths(tmp_path, name):
        """A missing path ``name`` and a directory, both in ``tmp_path``, each
        with the words its error gives before the path."""
        directory = tmp_path / "a_dir"
        directory.mkdir()
        return [(tmp_path / name, "missing file"), (directory, "not a file:")]

    @pytest.mark.parametrize(
        "command, missing",
        [("sample", "heatmaps"), ("evaluate", "heatmaps"), ("evaluate", "ground_truth"),
         ("calibrate", "heatmaps"), ("calibrate", "ground_truth")],
    )
    def test_positional_path(self, tmp_path, caplog, command, missing):
        paths = dict(zip(("heatmaps", "ground_truth"), write_pairs(tmp_path / "d", point_mass_pairs(4))))
        names = ["heatmaps"] if command == "sample" else ["heatmaps", "ground_truth"]
        out = tmp_path / "out"
        for bad, problem in self._bad_paths(tmp_path, "nope.jsonl"):
            caplog.clear()
            paths[missing] = bad
            assert main([command, *(str(paths[n]) for n in names), "--out", str(out)]) == EXIT_FAILURE
            assert f"argument {missing}: {problem} {bad}" in caplog.text
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["standardize"], ["analysis", "uncertainty-error"], ["analysis", "noise-report"]], ids="-".join
    )
    def test_input_of_standardize_and_analysis(self, tmp_path, caplog, argv):
        out = tmp_path / "out"
        for bad, problem in self._bad_paths(tmp_path, "nope"):
            caplog.clear()
            assert main([*argv, str(bad), "--out", str(out)]) == EXIT_FAILURE
            assert f"argument input: {problem} {bad}" in caplog.text
            assert not out.exists()

    @pytest.mark.parametrize("key", ["heatmaps", "ground_truth"])
    def test_mixed_source(self, tmp_path, caplog, key):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(4))
        cfg, out = tmp_path / "c.json", tmp_path / "out"
        for bad, problem in self._bad_paths(tmp_path, "nope.jsonl"):
            caplog.clear()
            source = {"heatmaps": hm.name, "ground_truth": gt.name, key: bad.name}
            sources = [{"heatmaps": hm.name, "ground_truth": gt.name}, source]
            write_json(cfg, {"min_count": 1, "mixed_n": 4, "mixed_sources": sources})
            assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == EXIT_FAILURE
            assert f"config key mixed_sources[1].{key}: {problem} {bad}" in caplog.text
            assert not out.exists()

    def test_cross_eval_test_set(self, tmp_path, caplog):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(4))
        manifest, out = tmp_path / "manifest.json", tmp_path / "out"
        for bad, problem in self._bad_paths(tmp_path, "nope.jsonl"):
            caplog.clear()
            write_json(manifest, {
                "models": [{"train_dataset": "m0", "fixed_radius": 1.0}],
                "test_sets": [
                    {"dataset": "good", "heatmaps": hm.name, "ground_truth": gt.name},
                    {"dataset": "bad", "heatmaps": hm.name, "ground_truth": bad.name},
                ],
            })
            assert main(["cross-eval", str(manifest), "--out", str(out)]) == EXIT_FAILURE
            assert f"config key test_sets[1].ground_truth: {problem} {bad}" in caplog.text
            assert not out.exists()

    @pytest.mark.parametrize(
        "given_as",
        ["argument --config", "argument manifest", "config key radius.adaptive", "config key models[1].calibration"],
    )
    def test_config_manifest_and_model(self, tmp_path, caplog, given_as):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(4))
        out = tmp_path / "out"
        for bad, problem in self._bad_paths(tmp_path, "nope.json"):
            caplog.clear()
            write_json(tmp_path / "adaptive.json", {"radius": {"adaptive": bad.name}})
            write_json(tmp_path / "manifest.json", {
                "models": [
                    {"train_dataset": "m0", "fixed_radius": 1.0},
                    {"train_dataset": "m1", "calibration": bad.name},
                ],
                "test_sets": [{"dataset": "t0", "heatmaps": hm.name, "ground_truth": gt.name}],
            })
            argv = {
                "argument --config": ["evaluate", str(hm), str(gt), "--config", str(bad)],
                "argument manifest": ["cross-eval", str(bad)],
                "config key radius.adaptive": ["evaluate", str(hm), str(gt), "--config", str(tmp_path / "adaptive.json")],
                "config key models[1].calibration": ["cross-eval", str(tmp_path / "manifest.json")],
            }[given_as]
            assert main([*argv, "--out", str(out)]) == EXIT_FAILURE
            assert f"{given_as}: {problem} {bad}" in caplog.text
            assert not out.exists()

    def test_out_that_is_a_file(self, tmp_path, caplog):
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(4))
        out = tmp_path / "out"
        out.write_text("kept")
        assert main(["evaluate", str(hm), str(gt), "--out", str(out)]) == EXIT_FAILURE
        assert f"argument --out: cannot make directory {out}" in caplog.text
        assert out.read_text() == "kept"


class TestRunMeta:
    # The keys of a successful run's run_meta.json besides those of every run
    KEYS = {
        "standardize": {"n_ok", "n_failed"},
        "synth": {"n", "clipped_scenarios", "workers"},
        "sample": {"n", "input_mass", "workers"},
        "evaluate": {"n", "clamped_radii", "input_mass", "workers"},
        "calibrate": {"n", "sweep_edge_count", "sweep_edge_share", "dropped_bins", "input_mass", "workers"},
        "cross-eval": {"n_cells", "n_failed", "clamped_radii", "input_mass", "workers"},
        "analysis uncertainty-error": {"n_bins"},
        "analysis noise-report": {"n"},
        "analysis speed-report": {"n"},
    }

    @pytest.mark.parametrize("command", list(KEYS))
    def test_keys_of_a_successful_run(self, tmp_path, command):
        hm, gt = write_pairs(tmp_path / "d", planted_calibration_dataset(20))
        scenes = tmp_path / "scenes.jsonl"
        write_scenes(scenes, [straight_sample(5.0, sample_id=f"s{i}") for i in range(3)])
        records = tmp_path / "records.csv"
        write_records_csv(records, [EvalRecord(f"r{i}", 0.3 * i, 1.0, [0.5] * 6, [False] * 6) for i in range(5)], "0")
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"bin_width": 10.0, "min_count": 1})
        argv = {
            "standardize": ["standardize", str(scenes)],
            "synth": ["synth", "--n", "2", "--workers", "1"],
            "sample": ["sample", str(hm), "--workers", "1"],
            "evaluate": ["evaluate", str(hm), str(gt), "--workers", "1"],
            "calibrate": ["calibrate", str(hm), str(gt), "--config", str(cfg), "--workers", "1"],
            "cross-eval": _argv("cross-eval", hm, gt, tmp_path) + ["--workers", "1"],
            "analysis uncertainty-error": ["analysis", "uncertainty-error", str(records), "--config", str(cfg)],
            "analysis noise-report": ["analysis", "noise-report", str(scenes)],
            "analysis speed-report": ["analysis", "speed-report", str(scenes)],
        }[command]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        meta = read_json(out / "run_meta.json")
        assert set(meta) == {"command", "config_hash", "version", "timestamp_utc"} | self.KEYS[command]
        assert meta["command"] == command


class TestCalibrateCli:
    def test_planted_recovery_and_round_trip(self, tmp_path):
        pairs = planted_calibration_dataset(160)
        hm, gt = write_pairs(tmp_path / "data", pairs)
        cfg = tmp_path / "cal.json"
        write_json(cfg, {"bin_width": 5.0, "min_count": 3, "dataset_tag": "plant"})
        out = tmp_path / "out"
        assert main(["calibrate", str(hm), str(gt), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        model = read_json(out / "model.json")
        assert model["a"] == pytest.approx(0.02, rel=0.05)
        assert model["b"] == pytest.approx(0.9, rel=0.05)
        assert model["source_dataset"] == "plant"
        # bin table is plot-ready with counts
        rows = read_csv_rows(out / "binned_radii.csv")
        assert sum(int(r["count"]) for r in rows) == len(pairs)
        # applying the written model through evaluate reproduces its radii
        eval_cfg = tmp_path / "eval.json"
        write_json(eval_cfg, {"radius": {"adaptive": str(out / "model.json")}})
        out_eval = tmp_path / "eval_out"
        assert main(["evaluate", str(hm), str(gt), "--config", str(eval_cfg), "--out", str(out_eval)]) == EXIT_OK
        recs = read_csv_rows(out_eval / "records.csv")
        for r in recs:
            expect = min(max(model["a"] * float(r["uncertainty"]) + model["b"], 0.1), 10.0)
            assert float(r["radius_used"]) == pytest.approx(expect, abs=1e-12)

    def test_constant_spread_reports_insufficient_bins(self, tmp_path, caplog):
        pairs = point_mass_pairs(8)
        hm, gt = write_pairs(tmp_path / "data", pairs)
        for min_count, reason in (
            (1, "need at least 2 populated spread bins to fit, got 1"),
            (9, "no spread bin holds at least 9 records"),
        ):
            caplog.clear()
            out = tmp_path / f"out{min_count}"
            # an earlier run's fit in the output folder does not outlive this run
            out.mkdir()
            write_json(out / "model.json", {"a": 1.0, "b": 0.0})
            (out / "binned_radii.csv").write_text("bin_center,mean_optimal_radius,count\n")
            cfg = tmp_path / "cal.json"
            write_json(cfg, {"min_count": min_count})
            argv = ["calibrate", str(hm), str(gt), "--config", str(cfg), "--out", str(out), "--workers", "1"]
            assert main(argv) == EXIT_FAILURE
            # every spread is 0, so all 8 pairs fall in the bin centred at 0.5
            assert f"{reason}; the fullest spread bin, centred at 0.5, holds 8 of 8 pairs" in caplog.text
            assert sorted(p.name for p in out.iterdir()) == ["run_meta.json"]
            meta = failed_run_meta(out, caplog)
            assert meta["error"].startswith(reason)
            assert meta["n"] == 8
            assert meta["dropped_bins"] == ([] if min_count == 1 else [[0.5, 8]])
            assert meta["sweep_edge_count"] == meta["sweep_edge_share"] * 8
            assert meta["workers"] == 1
            assert meta["input_mass"][str(hm)]["n_above_tol"] == 0

    def test_mixed_sources_composition(self, tmp_path):
        # sources with distinct spreads: the mix interleaves deterministically
        cfg_a = ScenarioConfig(
            seed=1, sigma_range=(0.6, 1.0), n_modes_range=(1, 1),
            mean_region=((0.0, 10.0), (-4.0, 4.0)),
            grid=GridSpec(origin_x=-6.0, origin_y=-10.0, resolution=0.5, width=45, height=41),
        )
        cfg_b = ScenarioConfig(
            seed=2, sigma_range=(3.0, 5.0), n_modes_range=(1, 1),
            mean_region=((0.0, 10.0), (-4.0, 4.0)),
            grid=GridSpec(origin_x=-22.0, origin_y=-26.0, resolution=0.5, width=109, height=105),
        )
        pa = generate_dataset(cfg_a, 60, tmp_path / "a")
        pb = generate_dataset(cfg_b, 60, tmp_path / "b")
        cal_cfg = tmp_path / "cal.json"
        write_json(cal_cfg, {
            "bin_width": 2.0, "min_count": 1, "dataset_tag": "mixed",
            "mixed_n": 80,
            "mixed_sources": [
                {"heatmaps": str(pa["heatmaps"]), "ground_truth": str(pa["ground_truth"]), "weight": 0.5},
                {"heatmaps": str(pb["heatmaps"]), "ground_truth": str(pb["ground_truth"]), "weight": 0.5},
            ],
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["calibrate", "--config", str(cal_cfg), "--seed", "7", "--out", str(out1)]) == EXIT_OK
        assert main(["calibrate", "--config", str(cal_cfg), "--seed", "7", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        model = read_json(out1 / "model.json")
        assert model["bin_count"] >= 2

    def test_seed_is_hashed_for_mixed_sources_only(self, tmp_path):
        # the seed picks the mixed_sources draws, and nothing of a single-source run
        hm, gt = write_pairs(tmp_path / "data", planted_calibration_dataset(20))
        single, mixed = tmp_path / "single.json", tmp_path / "mixed.json"
        write_json(single, {"bin_width": 10.0, "min_count": 1})
        source = {"heatmaps": str(hm), "ground_truth": str(gt)}
        write_json(mixed, {"bin_width": 10.0, "min_count": 1, "mixed_n": 30, "mixed_sources": [source, source]})
        hashes = {}
        for name, inputs in (("single", [str(hm), str(gt), "--config", str(single)]), ("mixed", ["--config", str(mixed)])):
            for seed in ([], ["--seed", "0"], ["--seed", "5"], ["--seed", "6"]):
                out = tmp_path / "-".join([name, *seed])
                assert main(["calibrate", *inputs, *seed, "--out", str(out)]) == EXIT_OK
                assert read_json(out / "model.json")["config_hash"] == read_json(out / "run_meta.json")["config_hash"]
                hashes[name, tuple(seed)] = read_json(out / "model.json")["config_hash"]
        assert len({h for (name, _), h in hashes.items() if name == "single"}) == 1
        # no --seed draws as seed 0
        assert hashes["mixed", ()] == hashes["mixed", ("--seed", "0")]
        assert len({hashes["mixed", ("--seed", s)] for s in ("0", "5", "6")}) == 3

    def test_mixed_sources_sweep_only_the_drawn_heatmaps(self, tmp_path, monkeypatch, caplog):
        grid = GridSpec(origin_x=-10.0, origin_y=-10.0, resolution=0.5, width=41, height=41)
        region = ((-4.0, 4.0), (-4.0, 4.0))
        sources = [
            generate_dataset(ScenarioConfig(seed=seed, mean_region=region, grid=grid), 30, tmp_path / f"s{seed}")
            for seed in (1, 2)
        ]
        swept = Counter()
        sweep = cli._sweep

        def spy(sid, h, gt, **kw):
            swept[sid, gt] += 1
            return sweep(sid, h, gt, **kw)

        monkeypatch.setattr(cli, "_sweep", spy)
        cfg = tmp_path / "mixed.json"
        entries = [{"heatmaps": str(p["heatmaps"]), "ground_truth": str(p["ground_truth"])} for p in sources]
        write_json(cfg, {"bin_width": 0.5, "min_count": 1, "mixed_n": 20, "mixed_sources": entries})
        argv = ["calibrate", "--config", str(cfg), "--seed", "3", "--workers", "1"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
        gts = [heatpred.sets._load_ground_truth(p["ground_truth"]) for p in sources]
        ids = [sorted(g) for g in gts]
        draws = cli._mixed_draws([30, 30], [1.0, 1.0], 20, 3)
        assert len(draws) == 20 and {s for s, _ in draws} == {0, 1}
        assert swept == Counter((ids[s][c], gts[s][ids[s][c]]) for s, c in draws)
        # every heatmap is still read: input_mass covers both files
        assert len(read_json(tmp_path / "out" / "run_meta.json")["input_mass"]) == 2

        write_json(cfg, {"bin_width": 0.5, "min_count": 1, "mixed_n": 61, "mixed_sources": entries})
        assert main(argv + ["--out", str(tmp_path / "exhausted")]) == EXIT_FAILURE
        error = failed_run_meta(tmp_path / "exhausted", caplog)["error"]
        assert error == "mixed sources exhausted after 60 of 61 draws"


    def test_sweep_edge_share_in_run_meta(self, tmp_path):
        # planted optimal radii lie in 1.2..3.9; a sweep ending at 1.0 leaves
        # every sample tied across the sweep, so each optimum is its first value
        pairs = planted_calibration_dataset(20)
        hm, gt = write_pairs(tmp_path / "data", pairs)
        for name, r_values, share in (
            ("narrow", [round(0.1 * i, 10) for i in range(1, 11)], 1.0),
            ("default", None, 0.0),
        ):
            cfg = tmp_path / f"{name}.json"
            write_json(cfg, {"bin_width": 10.0, "min_count": 1, "r_values": r_values})
            out = tmp_path / name
            assert main(["calibrate", str(hm), str(gt), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            meta = read_json(out / "run_meta.json")
            assert meta["sweep_edge_share"] == share
            assert meta["sweep_edge_count"] == share * len(pairs)

    def test_dropped_bins_in_run_meta(self, tmp_path):
        pairs = planted_calibration_dataset(20)
        hm, gt = write_pairs(tmp_path / "data", pairs)
        write_json(tmp_path / "cal.json", {"bin_width": 10.0, "min_count": 2})
        out = tmp_path / "out"
        argv = ["calibrate", str(hm), str(gt), "--config", str(tmp_path / "cal.json"), "--out", str(out)]
        assert main(argv) == EXIT_OK
        counts = Counter(math.floor(uncertainty(h).spread / 10.0) * 10.0 + 5.0 for h, _ in pairs)
        dropped = read_json(out / "run_meta.json")["dropped_bins"]
        assert dropped == [[center, c] for center, c in sorted(counts.items()) if c < 2]
        assert dropped
        kept = read_csv_rows(out / "binned_radii.csv")
        assert sum(c for _, c in dropped) + sum(int(r["count"]) for r in kept) == len(pairs)
        assert read_json(out / "run_meta.json")["n"] == len(pairs)


# A rejected value is echoed up to its 40th character.
_LONG_ID = repr(["c0001"] * 20)[:40] + "... (180 characters)"


class TestMalformedRecord:
    @pytest.mark.parametrize("command", ["sample", "evaluate", "calibrate", "cross-eval"])
    def test_error_names_file_line_and_sample(self, tmp_path, caplog, command):
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(2))
        rows = [json.loads(ln) for ln in hm.read_text().splitlines()]
        rows[1]["cells"].append([0 if rows[1]["cells"][0][0] else 1, -0.5])
        write_jsonl(hm, rows)
        out = tmp_path / "out"
        if command == "sample":
            argv = ["sample", str(hm)]
        elif command == "cross-eval":
            manifest = tmp_path / "manifest.json"
            write_json(manifest, {
                "models": [{"train_dataset": "m0", "fixed_radius": 1.0}],
                "test_sets": [{"dataset": "t0", "heatmaps": str(hm), "ground_truth": str(gt)}],
            })
            argv = ["cross-eval", str(manifest)]
        else:
            argv = [command, str(hm), str(gt)]
        assert main(argv + ["--out", str(out)]) == EXIT_FAILURE
        message = f"{hm}:2 (sample c0001): probabilities must be non-negative"
        assert message in caplog.text
        assert "Traceback" not in caplog.text
        meta = failed_run_meta(out, caplog)
        if command == "cross-eval":
            # the one cell failed, and so the run
            assert meta["error"] == "every cell of the matrix failed"
            assert meta["n_failed"] == meta["n_cells"] == 1
        else:
            assert meta["error"] == message
        assert meta["input_mass"] == {}

    @pytest.mark.parametrize(
        "kind, edit, named",
        [
            ("heatmaps", lambda d: d["grid"].update(width=10**30), "Python int too large to convert to C long"),
            ("heatmaps", lambda d: d.update(cells=[[10**30, 1.0]]),
             "cells[0] index: 1000000000000000000000000000000 does not fit in 64 bits"),
            ("heatmaps", lambda d: d.update(cells=[[10**400, 1.0]]),
             "cells[0] index: 1" + "0" * 39 + "... (401 characters) does not fit in 64 bits"),
            ("heatmaps", lambda d: d.update(cells=[[0, 10**400]]),
             "cells[0] probability: 1" + "0" * 39 + "... (401 characters) is too large for a float"),
            ("heatmaps", lambda d: d.update(cells=[[0, 1e308], [1, 1e308]]),
             "cannot normalize a heatmap whose mass is not finite (its cells sum to inf)"),
            ("ground_truth", lambda d: d.update(gt=[10**400, 0.0]),
             "gt[0]: 1" + "0" * 39 + "... (401 characters) is too large for a float"),
        ],
        ids=["grid-width", "cell-index", "cell-index-400-digits", "cell-probability", "cell-mass", "ground-truth"],
    )
    def test_number_too_large_is_a_bad_line(self, tmp_path, caplog, kind, edit, named):
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(2))
        path = hm if kind == "heatmaps" else gt
        rows = [json.loads(ln) for ln in path.read_text().splitlines()]
        edit(rows[1])
        write_jsonl(path, rows)
        # a numpy overflow warning would escape as an exception, in a worker too
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["evaluate", str(hm), str(gt), "--out", str(tmp_path / "o")]) == EXIT_FAILURE
        assert f"{path}:2 (sample c0001): {named}" in caplog.text

    @pytest.mark.parametrize(
        "kind, path, text, named",
        [
            ("ground_truth", ("gt", 0), "1e400", "gt[0]: inf is not finite"),
            ("ground_truth", ("gt", 0), "Infinity", "gt[0]: inf is not finite"),
            ("ground_truth", ("gt", 1), "-1e400", "gt[1]: -inf is not finite"),
            ("heatmaps", ("grid", "resolution"), "1e400", "resolution: inf is not finite"),
            ("heatmaps", ("grid", "resolution"), "Infinity", "resolution: inf is not finite"),
            ("heatmaps", ("grid", "origin_x"), "1e400", "origin_x: inf is not finite"),
            ("heatmaps", ("grid", "origin_x"), "Infinity", "origin_x: inf is not finite"),
            ("heatmaps", ("grid", "origin_y"), "-Infinity", "origin_y: -inf is not finite"),
        ],
        ids=["gt-1e400", "gt-Infinity", "gt-y-minus-1e400", "resolution-1e400", "resolution-Infinity",
             "origin_x-1e400", "origin_x-Infinity", "origin_y-minus-Infinity"],
    )
    def test_non_finite_number_is_a_bad_line(self, tmp_path, caplog, kind, path, text, named):
        # orjson refuses each of these lines, and Python's json reads the
        # number as infinite; the run fails instead of writing Infinity
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(2))
        file = hm if kind == "heatmaps" else gt
        rows = [json.loads(ln) for ln in file.read_text().splitlines()]
        holder = rows[1]
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = 123.456789
        write_jsonl(file, rows)
        file.write_text(file.read_text().replace("123.456789", text))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["evaluate", str(hm), str(gt), "--out", str(tmp_path / "o")]) == EXIT_FAILURE
        assert f"{file}:2 (sample c0001): {named}" in caplog.text
        assert not (tmp_path / "o" / "aggregate.json").exists()

    @pytest.mark.parametrize(
        "cell, named",
        [
            ([1.5, 0.5], "cells[1] index: 1.5 is not a valid int"),
            (["5", 0.5], "cells[1] index: '5' is not a valid int"),
            ([True, 0.5], "cells[1] index: True is not a valid int"),
            ([1, 0.5, 9], "cells[1]: not an [index, probability] pair"),
            ([1], "cells[1]: not an [index, probability] pair"),
            ([1, "0.2"], "cells[1] probability: '0.2' is not a valid float"),
            ([1, True], "cells[1] probability: True is not a valid float"),
            ([1, None], "cells[1] probability: None is not a valid float"),
        ],
        ids=["fraction-index", "string-index", "true-index", "three-values", "one-value",
             "string-probability", "true-probability", "null-probability"],
    )
    def test_bad_cell_is_named(self, tmp_path, caplog, cell, named):
        # the bad cell follows a good one, so a true is read among numbers
        hm, gt = write_pairs(tmp_path / "bad", point_mass_pairs(2))
        rows = [json.loads(ln) for ln in hm.read_text().splitlines()]
        rows[1]["cells"] = [[2, 0.5], cell]
        write_jsonl(hm, rows)
        message = f"{hm}:2 (sample c0001): {named}"
        for command in ("sample", "evaluate", "calibrate"):
            caplog.clear()
            argv = _argv(command, hm, gt, tmp_path) + ["--workers", "1", "--out", str(tmp_path / command)]
            assert main(argv) == EXIT_FAILURE
            assert message in caplog.text
            assert "Traceback" not in caplog.text
        # cross-eval fails only the test set that holds the bad cell
        good_hm, good_gt = write_pairs(tmp_path / "good", point_mass_pairs(3))
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {
            "models": [{"train_dataset": "m0", "fixed_radius": 1.0}],
            "test_sets": [
                {"dataset": "good", "heatmaps": str(good_hm), "ground_truth": str(good_gt)},
                {"dataset": "bad", "heatmaps": str(hm), "ground_truth": str(gt)},
            ],
        })
        out = tmp_path / "xe"
        assert main(["cross-eval", str(manifest), "--workers", "1", "--out", str(out)]) == EXIT_PARTIAL
        cells = read_json(out / "cross_eval.json")["cells"]["m0"]
        assert cells["good"]["status"] == "ok"
        assert cells["bad"] == {"status": "failed", "error": message}

    @pytest.mark.parametrize(
        "command, kind, edit, named",
        [
            pytest.param(command, kind, edit, named, id=f"{command}-{name}")
            for name, kind, edit, named in [
                ("int-id", "heatmaps", {"sample_id": 5}, ":2 (sample 5): sample_id: 5 is not a string"),
                ("null-id", "heatmaps", {"sample_id": None}, ":2: sample_id: None is not a string"),
                ("gt-int-id", "ground_truth", {"sample_id": 5}, ":2 (sample 5): sample_id: 5 is not a string"),
                ("gt-list-id", "ground_truth", {"sample_id": ["c0001"] * 20},
                 f":2 (sample {_LONG_ID}): sample_id: {_LONG_ID} is not a string"),
                ("gt-string", "ground_truth", {"gt": ["1.5", 0.0]},
                 ":2 (sample c0001): gt[0]: '1.5' is not a valid float"),
                ("gt-true", "ground_truth", {"gt": [1.5, True]}, ":2 (sample c0001): gt[1]: True is not a valid float"),
                ("gt-three", "ground_truth", {"gt": [1.5, 0.0, 9]},
                 ":2 (sample c0001): gt: [1.5, 0.0, 9] is not a list of 2 values"),
            ]
            for command in ("sample", "evaluate", "calibrate", "cross-eval")
            if not (command == "sample" and kind == "ground_truth")
        ],
    )
    def test_sample_id_and_ground_truth_are_strict(self, tmp_path, caplog, command, kind, edit, named):
        # an id is a JSON string and a ground truth two JSON numbers, as a cell is strict
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(2))
        path = hm if kind == "heatmaps" else gt
        rows = [json.loads(ln) for ln in path.read_text().splitlines()]
        rows[1].update(edit)
        write_jsonl(path, rows)
        argv = _argv(command, hm, gt, tmp_path) + ["--workers", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_FAILURE
        assert f"{path}{named}" in caplog.text
        assert "Traceback" not in caplog.text

    def test_non_object_ground_truth_line(self, tmp_path, caplog):
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(2))
        gt.write_text(gt.read_text() + "\n[1, 2]\n")
        assert main(["evaluate", str(hm), str(gt), "--out", str(tmp_path / "o")]) == EXIT_FAILURE
        assert f"{gt}:4: record must be a JSON object" in caplog.text


# Arbitrary JSON values, and bytes that are mostly not JSON, as one non-blank line.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=10), inner, max_size=3),
    max_leaves=8,
)
_LINES = st.one_of(
    _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.binary(min_size=1, max_size=24).filter(lambda b: b.strip() and b"\n" not in b),
)
# The keys a line needs before it can be a valid record of each kind.
_RECORD_KEYS = {"heatmaps": {"sample_id", "grid", "cells"}, "ground_truth": {"sample_id", "gt"},
                "scenes": {"id", "dataset", "past", "future"}}


class TestLoaderFuzz:
    """One fuzzed line as line 2 of a file: the command exits as README documents,
    names ``path:2`` and raises nothing."""

    @pytest.mark.parametrize(
        "command, kind",
        [
            ("sample", "heatmaps"), ("evaluate", "heatmaps"), ("evaluate", "ground_truth"),
            ("calibrate", "heatmaps"), ("calibrate", "ground_truth"),
            ("noise-report", "scenes"), ("standardize", "scenes"),
        ],
    )
    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=_LINES)
    def test_fuzzed_line_names_path_and_line(self, tmp_path, caplog, command, kind, line):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        assume(not (isinstance(record, dict) and _RECORD_KEYS[kind] <= record.keys()))
        caplog.clear()
        if kind == "scenes":
            path = tmp_path / "scenes.jsonl"
            write_scenes(path, [straight_sample(1.0, sample_id=f"s{i}") for i in range(2)])
            argv = ["standardize", str(path)] if command == "standardize" else ["analysis", command, str(path)]
        else:
            hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(2))
            path = hm if kind == "heatmaps" else gt
            argv = ["sample", str(hm)] if command == "sample" else [command, str(hm), str(gt)]
            argv += ["--workers", "1"]
            if command == "calibrate":
                write_json(tmp_path / "cal.json", {"min_count": 1})
                argv += ["--config", str(tmp_path / "cal.json")]
        first, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(first + b"\n" + line + b"\n" + rest)
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == (EXIT_PARTIAL if command == "standardize" else EXIT_FAILURE)
        assert f"{path}:2" in caplog.text
        assert "Traceback" not in caplog.text


def _argv(command, hm, gt, tmp_path):
    """CLI arguments of ``command`` on one heatmap file and its ground truth, without --out."""
    if command == "sample":
        return ["sample", str(hm)]
    if command == "cross-eval":
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {
            "models": [{"train_dataset": "m0", "fixed_radius": 1.0}],
            "test_sets": [{"dataset": "t0", "heatmaps": str(hm), "ground_truth": str(gt)}],
        })
        return ["cross-eval", str(manifest)]
    return [command, str(hm), str(gt)]


@pytest.mark.parametrize("command", ["sample", "evaluate", "calibrate", "cross-eval"])
def test_failed_run_leaves_no_earlier_output(tmp_path, caplog, command):
    hm, gt = write_pairs(tmp_path / "d", planted_calibration_dataset(20))
    cfg = tmp_path / "cal.json"
    write_json(cfg, {"bin_width": 10.0, "min_count": 1})
    argv = _argv(command, hm, gt, tmp_path) + (["--config", str(cfg)] if command == "calibrate" else [])
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert len(list(out.iterdir())) > 1
    # the same run again, on a heatmap file of one line cut short
    hm.write_text(hm.read_text()[:100] + "\n")
    assert main(argv + ["--out", str(out)]) == EXIT_FAILURE
    assert [p.name for p in out.iterdir()] == ["run_meta.json"]
    assert failed_run_meta(out, caplog)
    assert f"{hm}:1: invalid JSON" in caplog.text


class TestWorkerCounts:
    @staticmethod
    def _source(tmp_path, name, seed, sigma_range, n):
        cfg = ScenarioConfig(
            seed=seed, sigma_range=sigma_range, mean_region=((0.0, 12.0), (-5.0, 5.0)),
            grid=GridSpec(origin_x=-20.0, origin_y=-24.0, resolution=0.5, width=101, height=97),
        )
        return generate_dataset(cfg, n, tmp_path / name)

    @pytest.mark.parametrize("command", ["sample", "calibrate", "calibrate-mixed"])
    def test_outputs_and_input_mass_do_not_depend_on_workers(self, tmp_path, command):
        a = self._source(tmp_path, "a", 3, (0.5, 1.5), 17)
        b = self._source(tmp_path, "b", 4, (2.0, 4.0), 11)
        cfg = tmp_path / "cal.json"
        if command == "sample":
            argv, primary = ["sample", str(a["heatmaps"])], ["predictions.jsonl"]
        else:
            cal = {"bin_width": 2.0, "min_count": 1}
            if command == "calibrate-mixed":
                cal.update(mixed_n=20, mixed_sources=[
                    {"heatmaps": str(p["heatmaps"]), "ground_truth": str(p["ground_truth"])} for p in (a, b)
                ])
                argv = ["calibrate", "--config", str(cfg), "--seed", "3"]
            else:
                argv = ["calibrate", str(a["heatmaps"]), str(a["ground_truth"]), "--config", str(cfg)]
            write_json(cfg, cal)
            primary = ["model.json", "binned_radii.csv"]
        seen = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert main(argv + ["--out", str(out), "--workers", str(workers)]) == EXIT_OK
            meta = read_json(out / "run_meta.json")
            assert meta.pop("workers") == workers
            del meta["timestamp_utc"]
            seen[workers] = ([(out / name).read_bytes() for name in primary], meta)
        assert seen[1] == seen[2] == seen[3]

    @pytest.mark.parametrize("command", ["sample", "evaluate", "calibrate", "cross-eval"])
    def test_malformed_line_across_ranges(self, tmp_path, caplog, command):
        # ten heatmaps, a blank fourth line, no newline at the end, and the
        # ninth heatmap (line 10) malformed: two workers split this file
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(10))
        lines = hm.read_text().splitlines()
        bad = json.loads(lines[8])
        bad["cells"].append([0 if bad["cells"][0][0] else 1, -0.5])
        lines[8] = json.dumps(bad)
        hm.write_text("\n".join(lines[:3] + [""] + lines[3:]))
        messages = set()
        for workers in (1, 2):
            caplog.clear()
            argv = _argv(command, hm, gt, tmp_path) + ["--out", str(tmp_path / f"w{workers}")]
            assert main(argv + ["--workers", str(workers)]) == EXIT_FAILURE
            assert "Traceback" not in caplog.text
            messages |= {r.getMessage() for r in caplog.records if str(hm) in r.getMessage()}
        assert len(messages) == 1
        assert f"{hm}:10 (sample c0008): probabilities must be non-negative" in messages.pop()

    @pytest.mark.parametrize("command", ["sample", "evaluate", "calibrate", "cross-eval"])
    def test_many_bad_lines_stop_at_the_first(self, tmp_path, caplog, monkeypatch, command):
        # every line after the first fails: a range stops at its first
        # failing line, so its line number is looked up once, not per line
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(1))
        hm.write_text(hm.read_text() + "not json\n" * 500)
        looked_up = []
        line_number = heatpred.io._line_number
        monkeypatch.setattr(heatpred.io, "_line_number", lambda *a: looked_up.append(a) or line_number(*a))
        for workers in (1, 2):
            caplog.clear()
            argv = _argv(command, hm, gt, tmp_path) + ["--out", str(tmp_path / f"w{workers}")]
            assert main(argv + ["--workers", str(workers)]) == EXIT_FAILURE
            assert f"{hm}:2: invalid JSON" in caplog.text
            assert f"{hm}:3:" not in caplog.text
            assert "Traceback" not in caplog.text
        # only the one-worker run reads in this process
        assert len(looked_up) == 1

    @pytest.mark.parametrize("command", ["evaluate", "calibrate", "cross-eval"])
    def test_bad_ground_truth_line(self, tmp_path, caplog, command):
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(10))
        lines = gt.read_text().splitlines()
        lines[8] = '{"sample_id": "c0008", "gt": [1.0]}'
        gt.write_text("\n".join(lines) + "\n")
        for workers in (1, 2):
            caplog.clear()
            argv = _argv(command, hm, gt, tmp_path) + ["--out", str(tmp_path / f"w{workers}")]
            assert main(argv + ["--workers", str(workers)]) == EXIT_FAILURE
            assert f"{gt}:9 (sample c0008): gt: [1.0] is not a list of 2 values" in caplog.text
            assert "Traceback" not in caplog.text

    def test_read_tasks_do_not_grow_with_the_ground_truth(self, tmp_path, monkeypatch):
        # the ground truth and the work reach the workers once, not in every task
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(10))
        big = tmp_path / "big.jsonl"
        write_jsonl(big, ({"sample_id": f"s{i:05d}", "gt": [0.0, 0.0]} for i in range(10_000)))

        class Taken(Exception):
            pass

        taken = []

        def take(fn, tasks, *rest):
            taken.append(tasks)
            raise Taken

        monkeypatch.setattr(heatpred.sets, "map_ordered", take)
        work = partial(cli._sweep, k=6, sweep=RadiusSweepConfig())
        for ground_truth in (gt, big):
            with pytest.raises(Taken):
                heatpred.sets.read_sets([(hm, ground_truth)], work, 2)
        small, large = ([len(pickle.dumps(task)) for task in tasks] for tasks in taken)
        assert len(small) > 1
        assert small == large
        assert all(isinstance(value, int) for tasks in taken for task in tasks for value in task)


class TestInputMassDiagnostics:
    @pytest.mark.parametrize("command", ["sample", "evaluate", "calibrate", "cross-eval"])
    def test_planted_mass_two_is_reported(self, tmp_path, command):
        pairs = planted_calibration_dataset(20) if command == "calibrate" else point_mass_pairs(4)
        hm, gt = write_pairs(tmp_path / "d", pairs)
        rows = [json.loads(ln) for ln in hm.read_text().splitlines()]
        rows[1]["cells"] = [[i, 2.0 * p] for i, p in rows[1]["cells"]]
        write_jsonl(hm, rows)
        if command == "sample":
            argv = ["sample", str(hm)]
        elif command == "cross-eval":
            manifest = tmp_path / "manifest.json"
            write_json(manifest, {
                "models": [{"train_dataset": "m0", "fixed_radius": 1.0}],
                "test_sets": [{"dataset": "t0", "heatmaps": str(hm), "ground_truth": str(gt)}],
            })
            argv = ["cross-eval", str(manifest)]
        elif command == "calibrate":
            cfg = tmp_path / "cal.json"
            write_json(cfg, {"bin_width": 10.0, "min_count": 1})
            argv = ["calibrate", str(hm), str(gt), "--config", str(cfg)]
        else:
            argv = [command, str(hm), str(gt)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        mass = read_json(out / "run_meta.json")["input_mass"][str(hm)]
        assert mass["n_above_tol"] == 1
        assert mass["max_abs_mass_error"] == pytest.approx(1.0, abs=1e-9)

    def test_primary_outputs_unchanged_by_renormalization(self, tmp_path):
        pairs = point_mass_pairs(4)
        hm, gt = write_pairs(tmp_path / "a", pairs)
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        assert main(["evaluate", str(hm), str(gt), "--out", str(out_a)]) == EXIT_OK
        assert read_json(out_a / "run_meta.json")["input_mass"][str(hm)] == {
            "max_abs_mass_error": 0.0, "n_above_tol": 0,
        }
        rows = [json.loads(ln) for ln in hm.read_text().splitlines()]
        rows[1]["cells"] = [[i, 2.0 * p] for i, p in rows[1]["cells"]]
        write_jsonl(hm, rows)
        assert main(["evaluate", str(hm), str(gt), "--out", str(out_b)]) == EXIT_OK
        for name in ("records.csv", "aggregate.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# (id suffix, edit of a scene line, reason named): each field is read
# strictly, so none of these stands for another value
BAD_SCENE_LINES = [
    ("", lambda d: d.pop("past"), "missing key 'past'"),
    ("-id-number", lambda d: d.update(id=5), "id: 5 is not a string"),
    ("-dataset-bool", lambda d: d.update(dataset=True), "dataset: True is not a string"),
    ("-past-time-string", lambda d: d["past"][0].__setitem__(0, "-0.2"), "past[0][0]: '-0.2' is not a valid float"),
    ("-past-x-bool", lambda d: d["past"][1].__setitem__(1, True), "past[1][1]: True is not a valid float"),
    ("-future-point-of-two", lambda d: d["future"].__setitem__(0, [0.1, 0.0]),
     "future[0]: [0.1, 0.0] is not a list of 3 values"),
    ("-neighbor-point-of-four", lambda d: d.update(neighbors=[[[0.0, 1.0, 2.0, 3.0]]]),
     "neighbors[0][0]: [0.0, 1.0, 2.0, 3.0] is not a list of 3 values"),
    ("-target-string", lambda d: d.update(is_predefined_target="no"), "is_predefined_target: 'no' is not a bool"),
    ("-past-backwards", lambda d: d["past"].reverse(), "past: timestamps must be strictly increasing"),
    ("-future-empty", lambda d: d.update(future=[]), "future: trajectory must contain at least one point"),
    ("-neighbor-infinite-point", lambda d: d.update(neighbors=[[[0.0, math.inf, 1.0]]]),
     "neighbors[0]: trajectory values must be finite"),
]


class TestAnalysis:
    def test_uncertainty_error_table(self, tmp_path):
        recs = []
        for i in range(30):
            u = 0.3 * i
            recs.append(EvalRecord(f"r{i:02d}", u, 1.0, [u / 2] * 6, [False] * 6))
        path = tmp_path / "records.csv"
        write_records_csv(path, recs, "deadbeef")
        out = tmp_path / "out"
        cfg = tmp_path / "a.json"
        write_json(cfg, {"min_count": 1})
        assert main(["analysis", "uncertainty-error", str(path), "--config", str(cfg),
                     "--out", str(out), "--svg"]) == EXIT_OK
        rows = read_csv_rows(out / "uncertainty_error.csv")
        assert len(rows) == 9  # U spans [0, 8.7] in unit bins
        assert (out / "uncertainty_error.svg").exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("a,b\n1,2\n", "missing column sample_id"),
            ("sample_id,uncertainty,radius_used,fde_2,miss_2\nr0,1.0,1.0,0.5,0\n", "missing column fde_1"),
            ("sample_id,uncertainty,radius_used,fde_1\nr0,1.0,1.0,0.5\n", "missing column miss_1"),
            ("sample_id,uncertainty,radius_used,fde_1,miss_1\nr0,x,1.0,0.5,0\n", "(sample r0)"),
            ("sample_id,uncertainty,radius_used,fde_1,miss_1\nr0,1.0\n", "(sample r0)"),
            ("sample_id,uncertainty,radius_used,fde_1,miss_1\nr0,inf,1.0,0.5,0\n",
             "(sample r0): uncertainty: inf is not finite"),
            ("sample_id,uncertainty,radius_used,fde_1,miss_1\nr0,1.0,1.0,nan,0\n",
             "(sample r0): fde_1: nan is not a valid float"),
            ("sample_id,uncertainty,radius_used,fde_1,miss_1\nr0,1.0,-inf,0.5,0\n",
             "(sample r0): radius_used: -inf is not finite"),
        ],
        ids=["no-columns", "no-fde_1", "no-miss_1", "bad-float", "short-row", "uncertainty-inf", "fde_1-nan",
             "radius_used-minus-inf"],
    )
    def test_uncertainty_error_bad_records_names_file(self, tmp_path, caplog, text, named):
        path = tmp_path / "records.csv"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["analysis", "uncertainty-error", str(path), "--out", str(out)]) == EXIT_FAILURE
        assert f"{path}" in caplog.text
        assert named in caplog.text
        meta = failed_run_meta(out, caplog)
        assert meta["command"] == "analysis uncertainty-error"
        assert str(path) in meta["error"] and named in meta["error"]

    def test_speed_report_stationary(self, tmp_path):
        scenes = tmp_path / "scenes.jsonl"
        write_scenes(scenes, [straight_sample(0.0, sample_id=f"s{i}") for i in range(4)])
        out = tmp_path / "out"
        assert main(["analysis", "speed-report", str(scenes), "--out", str(out)]) == EXIT_OK
        rows = read_csv_rows(out / "speed_hist.csv")
        assert len(rows) == 1
        assert float(rows[0]["bin_lower"]) == 0.0
        assert float(rows[0]["fraction"]) == 1.0

    @pytest.mark.parametrize(
        "report, edit, named",
        [
            pytest.param(report, edit, named, id=report + suffix)
            for report in ("speed-report", "noise-report", "standardize")
            for suffix, edit, named in BAD_SCENE_LINES
            if report != "standardize" or suffix  # TestStandardize already covers skipping a bad line
        ],
    )
    def test_scene_without_past_names_line_and_sample(self, tmp_path, caplog, report, edit, named):
        # speed-report and noise-report stop at a bad scene line; standardize
        # skips it and exits 2, as other lines succeed
        scenes = tmp_path / "scenes.jsonl"
        rows = [sample_to_dict(straight_sample(1.0, sample_id=f"s{i}")) for i in range(2)]
        edit(rows[1])
        write_jsonl(scenes, rows)
        argv = ["standardize"] if report == "standardize" else ["analysis", report]
        code = main(argv + [str(scenes), "--out", str(tmp_path / "out")])
        assert code == (EXIT_PARTIAL if report == "standardize" else EXIT_FAILURE)
        assert f"{scenes}:2 (sample {rows[1]['id']}): {named}" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("report", ["noise-report", "speed-report"])
    def test_svg_refused_by_reports_that_draw_none(self, tmp_path, caplog, report):
        scenes = tmp_path / "scenes.jsonl"
        write_scenes(scenes, [straight_sample(1.0, sample_id=f"s{i}") for i in range(4)])
        out = tmp_path / "out"
        assert main(["analysis", report, str(scenes), "--out", str(out)]) == EXIT_OK
        assert main(["analysis", report, str(scenes), "--svg", "--out", str(tmp_path / "svg")]) == EXIT_FAILURE
        assert f"analysis {report}: unrecognized arguments: --svg" in caplog.text
        assert not (tmp_path / "svg").exists()

    def test_noise_report_noiseless(self, tmp_path):
        scenes = tmp_path / "scenes.jsonl"
        write_scenes(scenes, [straight_sample(6.0, sample_id=f"s{i}") for i in range(4)])
        out = tmp_path / "out"
        assert main(["analysis", "noise-report", str(scenes), "--out", str(out)]) == EXIT_OK
        hist = read_json(out / "noise_hist.json")
        assert hist["bins"][0]["lower"] == 0.0
        assert hist["bins"][0]["fraction"] == 1.0
        rows = read_csv_rows(out / "noise.csv")
        assert all(float(r["noise_m"]) < 1e-6 for r in rows)


def build_cross_eval_fixture(tmp_path, n=120):
    """Two distinct synthetic sets plus calibrations fit on matching data."""
    focused = ScenarioConfig(
        seed=11, sigma_range=(0.6, 1.4), n_modes_range=(1, 2),
        mean_region=((0.0, 14.0), (-5.0, 5.0)),
        grid=GridSpec(origin_x=-8.0, origin_y=-12.0, resolution=0.5, width=61, height=49),
    )
    diffuse = ScenarioConfig(
        seed=12, sigma_range=(3.5, 6.0), n_modes_range=(1, 2),
        mean_region=((0.0, 14.0), (-5.0, 5.0)),
        grid=GridSpec(origin_x=-26.0, origin_y=-30.0, resolution=0.5, width=133, height=121),
    )
    sets = {}
    for tag, cfg in (("focused", focused), ("diffuse", diffuse)):
        train = generate_dataset(cfg, n, tmp_path / tag / "train")
        test_cfg = ScenarioConfig.from_dict({**cfg.to_dict(), "seed": cfg.seed + 100})
        test = generate_dataset(test_cfg, n, tmp_path / tag / "test")
        cal_cfg = tmp_path / f"cal_{tag}.json"
        write_json(cal_cfg, {"bin_width": 1.0, "min_count": 5, "dataset_tag": tag})
        cal_out = tmp_path / f"cal_out_{tag}"
        code = main(["calibrate", str(train["heatmaps"]), str(train["ground_truth"]),
                     "--config", str(cal_cfg), "--out", str(cal_out)])
        assert code == EXIT_OK
        sets[tag] = {"test": test, "model": cal_out / "model.json"}
    manifest = {
        "models": [
            {"train_dataset": tag, "calibration": str(sets[tag]["model"])} for tag in sets
        ],
        "test_sets": [
            {"dataset": tag, "heatmaps": str(sets[tag]["test"]["heatmaps"]),
             "ground_truth": str(sets[tag]["test"]["ground_truth"])} for tag in sets
        ],
        "sampling": {"k": 6},
        "baseline_fixed_radius": 1.5,
    }
    path = tmp_path / "manifest.json"
    write_json(path, manifest)
    return path


class TestCrossEval:
    def test_one_by_one_matches_evaluate(self, tmp_path):
        pairs = point_mass_pairs(10)
        hm, gt = write_pairs(tmp_path / "d", pairs)
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {
            "models": [{"train_dataset": "m0", "fixed_radius": 1.5}],
            "test_sets": [{"dataset": "t0", "heatmaps": str(hm), "ground_truth": str(gt)}],
        })
        out = tmp_path / "xe"
        assert main(["cross-eval", str(manifest), "--out", str(out)]) == EXIT_OK
        xe = read_json(out / "cross_eval.json")
        cell = xe["cells"]["m0"]["t0"]
        out_ev = tmp_path / "ev"
        assert main(["evaluate", str(hm), str(gt), "--out", str(out_ev)]) == EXIT_OK
        agg = read_json(out_ev / "aggregate.json")
        assert cell["min_fde"] == agg["min_fde_l"][-1]
        assert cell["mr"] == agg["mr_l"][-1]
        assert cell["count"] == agg["count"]

    def test_two_by_two_diagonal_advantage(self, tmp_path):
        manifest = build_cross_eval_fixture(tmp_path)
        out = tmp_path / "xe"
        assert main(["cross-eval", str(manifest), "--out", str(out), "--svg"]) == EXIT_OK
        xe = read_json(out / "cross_eval.json")
        cells = xe["cells"]
        for col in xe["cols"]:
            diag = cells[col][col]["min_fde"]
            for row in xe["rows"]:
                assert diag <= cells[row][col]["min_fde"] + 1e-12
        # calibrated adaptive sampling strictly beats the fixed r=1.5 baseline
        # on the data it was calibrated for
        for tag in xe["rows"]:
            assert cells[tag][tag]["improvement_vs_fixed"] > 0.0
        assert (out / "minfde6.csv").exists()
        assert (out / "mr6.csv").exists()
        assert (out / "improvement_minfde6.csv").exists()
        assert (out / "report.md").exists()
        assert (out / "matrices.svg").exists()

    def test_tags_are_escaped_in_svg_and_report(self, tmp_path):
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(4))
        rows, cols = ["m&0", "m|1"], ["<t0>", "t|1"]
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {
            "models": [{"train_dataset": tag, "fixed_radius": 1.0} for tag in rows],
            "test_sets": [{"dataset": tag, "heatmaps": str(hm), "ground_truth": str(gt)} for tag in cols],
        })
        out = tmp_path / "xe"
        assert main(["cross-eval", str(manifest), "--out", str(out), "--svg"]) == EXIT_OK
        svg = ElementTree.parse(out / "matrices.svg").getroot()
        assert set(rows + cols) <= {t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")}
        table = [ln for ln in (out / "report.md").read_text().splitlines() if ln.startswith("|")]
        assert "| train\\test | <t0> | t\\|1 |" in table
        # every table line has one column per test set besides the row tags
        assert all(ln.count("|") - ln.count("\\|") == len(cols) + 2 for ln in table)

    def test_spread_taken_once_per_test_heatmap(self, tmp_path, monkeypatch):
        from heatpred import cli, sampling

        calls = []

        def counting(h):
            calls.append(h)
            return uncertainty(h)

        monkeypatch.setattr(cli, "uncertainty", counting)
        monkeypatch.setattr(sampling, "uncertainty", counting)
        pairs = point_mass_pairs(8)
        hm, gt = write_pairs(tmp_path / "d", pairs)
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {
            "models": [
                {"train_dataset": "m0", "fixed_radius": 1.0},
                {"train_dataset": "m1", "calibration": str(tmp_path / "model.json")},
            ],
            "test_sets": [{"dataset": "t0", "heatmaps": str(hm), "ground_truth": str(gt)}],
        })
        write_json(tmp_path / "model.json", {"a": 0.02, "b": 0.9})
        # calls are counted in this process, so no worker processes
        argv = ["cross-eval", str(manifest), "--out", str(tmp_path / "xe"), "--workers", "1"]
        assert main(argv) == EXIT_OK
        assert len(calls) == len(pairs)

    def test_missing_file_fails_cell_not_run(self, tmp_path):
        pairs = point_mass_pairs(6)
        hm, gt = write_pairs(tmp_path / "d", pairs)
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {
            "models": [{"train_dataset": "m0", "fixed_radius": 1.0}],
            "test_sets": [
                {"dataset": "good", "heatmaps": str(hm), "ground_truth": str(gt)},
                {"dataset": "bad", "heatmaps": str(tmp_path / "nope.jsonl"), "ground_truth": str(gt)},
            ],
        })
        out = tmp_path / "xe"
        assert main(["cross-eval", str(manifest), "--out", str(out)]) == EXIT_FAILURE
        # checked with the manifest, before the output directory is made
        assert not out.exists()

    def test_partial_failure_marks_cell_and_continues(self, tmp_path):
        pairs = point_mass_pairs(6)
        # spread-out heatmaps, on which the fixed radius changes minFDE
        good = generate_dataset(ScenarioConfig.from_dict(SMALL_SYNTH), 12, tmp_path / "good")
        hm, gt = good["heatmaps"], good["ground_truth"]
        # second set exists but its ids do not match its ground truth
        hm_bad, _ = write_pairs(tmp_path / "bad", pairs, prefix="x_")
        rows = [json.loads(ln) for ln in hm_bad.read_text().strip().splitlines()]
        for i, row in enumerate(rows):
            row["sample_id"] = f"other-{i}"
        write_jsonl(hm_bad, rows)
        gt_bad = tmp_path / "bad" / "x_ground_truth.jsonl"
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {
            "models": [{"train_dataset": "m0", "fixed_radius": 1.0}],
            "test_sets": [
                {"dataset": "good", "heatmaps": str(hm), "ground_truth": str(gt)},
                {"dataset": "bad", "heatmaps": str(hm_bad), "ground_truth": str(gt_bad)},
            ],
        })
        out = tmp_path / "xe"
        assert main(["cross-eval", str(manifest), "--out", str(out)]) == EXIT_PARTIAL
        xe = read_json(out / "cross_eval.json")
        assert xe["cells"]["m0"]["good"]["status"] == "ok"
        assert xe["cells"]["m0"]["bad"]["status"] == "failed"
        assert "failed" in (out / "minfde6.csv").read_text()
        # the fixed-radius baseline fails with the set and otherwise scores as evaluate does
        assert xe["baseline"]["bad"] == {"status": "failed", "error": xe["cells"]["m0"]["bad"]["error"]}
        write_json(tmp_path / "fixed.json", {"radius": {"fixed": 1.5}})
        argv = ["evaluate", str(hm), str(gt), "--config", str(tmp_path / "fixed.json"), "--out", str(tmp_path / "ev")]
        assert main(argv) == EXIT_OK
        agg = read_json(tmp_path / "ev" / "aggregate.json")
        base = {"status": "ok", "min_fde": agg["min_fde_l"][-1], "mr": agg["mr_l"][-1], "count": agg["count"]}
        assert xe["baseline"]["good"] == base
        cell = xe["cells"]["m0"]["good"]
        assert base["min_fde"] != cell["min_fde"]
        assert cell["improvement_vs_fixed"] == (base["min_fde"] - cell["min_fde"]) / base["min_fde"]
        meta = read_json(out / "run_meta.json")
        assert (meta["n_failed"], meta["n_cells"]) == (1, 2)
