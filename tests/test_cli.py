import csv
import json

import numpy as np
import pytest

from heatpred.cli import EXIT_FAILURE, EXIT_OK, EXIT_PARTIAL, main
from heatpred.heatmap import GridSpec, Heatmap, heatmap_to_dict, normalize, uncertainty
from heatpred.io import read_json, write_json, write_jsonl
from heatpred.metrics import EvalRecord, write_records_csv
from heatpred.synth import ScenarioConfig, generate_dataset
from heatpred.trajectory import sample_to_dict
from helpers import planted_calibration_dataset, straight_sample


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
        h = normalize(Heatmap.from_cells(g, {idx: 1.0}))
        xs, ys = h.cell_centers()
        pairs.append((h, (float(xs[0]), float(ys[0]))))
    return pairs


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

    def test_empty_file_fails(self, tmp_path):
        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text("")
        out = tmp_path / "out"
        assert main(["standardize", str(scenes), "--out", str(out)]) == EXIT_FAILURE

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
        write_json(cfg, {"n": 15, "seed": 9, "sigma_range": [0.5, 2.0],
                         "mean_region": [[0, 15], [-6, 6]],
                         "grid": {"origin_x": -10, "origin_y": -16, "resolution": 0.5,
                                  "width": 70, "height": 64}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["synth", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        for name in ("heatmaps.jsonl", "ground_truth.jsonl", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


class TestConfigAndFlags:
    @pytest.mark.parametrize(
        "text, named",
        [("[1,2]", None), ('"x"', None), ('{"radius": 5}', "radius"), ('{"k": null}', "config key k")],
        ids=["array", "string", "radius-number", "k-null"],
    )
    def test_bad_config_fails_naming_file_or_key(self, tmp_path, caplog, text, named):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(3))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = ["evaluate", str(hm), str(gt), "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_FAILURE
        assert (named or str(cfg)) in caplog.text

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
        ],
        ids=[
            "model-no-train_dataset", "models-not-a-list", "test-set-no-dataset", "test-set-no-heatmaps",
            "test-set-no-ground_truth", "sampling-k-null", "sampling-radius", "fixed_radius-string",
            "source-no-heatmaps", "weights-all-zero", "weight-negative", "weight-not-a-number",
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
        else:
            cfg = {"min_count": 1, "mixed_n": 4, "mixed_sources": [dict(files), dict(files)]}
        edit(cfg)
        path = tmp_path / "cfg.json"
        write_json(path, cfg)
        argv = ["cross-eval", str(path)] if command == "cross-eval" else ["calibrate", "--config", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_FAILURE
        assert named in caplog.text
        assert "Traceback" not in caplog.text

    def test_workers_below_one_rejected(self, tmp_path, caplog):
        hm, gt = write_pairs(tmp_path, point_mass_pairs(3))
        out = tmp_path / "out"
        assert main(["evaluate", str(hm), str(gt), "--out", str(out), "--workers", "-3"]) == EXIT_FAILURE
        assert "--workers" in caplog.text
        assert not out.exists()


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
        out = tmp_path / "out"
        cfg = tmp_path / "cal.json"
        write_json(cfg, {"min_count": 1})
        code = main(["calibrate", str(hm), str(gt), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_FAILURE
        assert "bins" in caplog.text

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
        assert f"{hm}:2 (sample c0001): probabilities must be non-negative" in caplog.text
        assert "Traceback" not in caplog.text

    def test_non_object_ground_truth_line(self, tmp_path, caplog):
        hm, gt = write_pairs(tmp_path / "d", point_mass_pairs(2))
        gt.write_text(gt.read_text() + "\n[1, 2]\n")
        assert main(["evaluate", str(hm), str(gt), "--out", str(tmp_path / "o")]) == EXIT_FAILURE
        assert f"{gt}:4: record must be a JSON object" in caplog.text


class TestAnalysis:
    def test_uncertainty_error_table(self, tmp_path):
        recs = []
        for i in range(30):
            u = 0.3 * i
            recs.append(EvalRecord(f"r{i:02d}", u, 1.0, [u / 2] * 6, [False] * 6))
        path = tmp_path / "records.csv"
        write_records_csv(path, recs)
        out = tmp_path / "out"
        cfg = tmp_path / "a.json"
        write_json(cfg, {"min_count": 1})
        assert main(["analysis", "uncertainty-error", str(path), "--config", str(cfg),
                     "--out", str(out), "--svg"]) == EXIT_OK
        rows = read_csv_rows(out / "uncertainty_error.csv")
        assert len(rows) == 9  # U spans [0, 8.7] in unit bins
        assert (out / "uncertainty_error.svg").exists()

    def test_speed_report_stationary(self, tmp_path):
        scenes = tmp_path / "scenes.jsonl"
        write_scenes(scenes, [straight_sample(0.0, sample_id=f"s{i}") for i in range(4)])
        out = tmp_path / "out"
        assert main(["analysis", "speed-report", str(scenes), "--out", str(out)]) == EXIT_OK
        rows = read_csv_rows(out / "speed_hist.csv")
        assert len(rows) == 1
        assert float(rows[0]["bin_lower"]) == 0.0
        assert float(rows[0]["fraction"]) == 1.0

    @pytest.mark.parametrize("report", ["speed-report", "noise-report"])
    def test_scene_without_past_names_line_and_sample(self, tmp_path, caplog, report):
        scenes = tmp_path / "scenes.jsonl"
        rows = [sample_to_dict(straight_sample(1.0, sample_id=f"s{i}")) for i in range(2)]
        del rows[1]["past"]
        write_jsonl(scenes, rows)
        assert main(["analysis", report, str(scenes), "--out", str(tmp_path / "out")]) == EXIT_FAILURE
        assert f"{scenes}:2 (sample s1): missing key 'past'" in caplog.text
        assert "Traceback" not in caplog.text

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
        assert main(["cross-eval", str(manifest), "--out", str(tmp_path / "xe")]) == EXIT_OK
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

    def test_partial_failure_marks_cell_and_continues(self, tmp_path):
        pairs = point_mass_pairs(6)
        hm, gt = write_pairs(tmp_path / "good", pairs)
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
