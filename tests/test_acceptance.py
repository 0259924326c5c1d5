"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities and runtime.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from heatpred.binning import floor_bin_means
from heatpred.calibration import (
    RadiusSweepConfig,
    calibrate,
    learned_uncertainty_loss,
    load_preset,
    optimal_radius,
    radius_sweep_errors,
)
from heatpred.cli import EXIT_OK, main
from heatpred.heatmap import (
    GaussianMode,
    GridSpec,
    Heatmap,
    MixtureSpec,
    render_mixture,
    uncertainty,
)
from heatpred.io import read_json, write_json
from heatpred.kernels import BACKEND
from heatpred.metrics import aggregate, is_miss, make_eval_record, min_fde
from heatpred.noise import perception_noise
from heatpred.sampling import (
    Endpoint,
    PredictionSet,
    SamplingConfig,
    adaptive_radius,
    nms_sample,
    sample_with_uncertainty,
)
from heatpred.synth import ScenarioConfig, sample_scenario
from heatpred.trajectory import Trajectory
from helpers import (
    dense_from_heatmap,
    dense_nms_oracle,
    planted_calibration_dataset,
    random_heatmap,
)
from test_cli import write_pairs


@contextmanager
def criterion(number, name, budget_s=None):
    start = time.perf_counter()
    info = {}
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} ({name}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    detail = " ".join(f"{k}={v}" for k, v in info.items())
    print(f"ACCEPTANCE {number} ({name}): PASS [{detail}] {elapsed:.1f}s")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def test_criterion_1_spread_estimator():
    with criterion(1, "spread estimator on rendered Gaussians", budget_s=10) as info:
        worst = 0.0
        for sigma in (1.0, 2.0, 4.0):
            res = 0.25
            half = math.ceil(6.0 * sigma / res)
            n = 2 * half + 1
            grid = GridSpec(-half * res, -half * res, res, n, n)
            mix = MixtureSpec((GaussianMode(1.0, 0.0, 0.0, sigma),))
            h = render_mixture(mix, grid, 6.0)
            u = uncertainty(h).spread
            rel = abs(u - 2 * sigma**2) / (2 * sigma**2)
            worst = max(worst, rel)
            assert rel < 0.03, f"sigma={sigma}: spread {u} vs {2 * sigma**2}"

            # translation invariance: exact-float shift of the grid origin
            g2 = GridSpec(grid.origin_x + 64.0, grid.origin_y - 32.0, res, n, n)
            h2 = Heatmap(g2, h.idx, h.prob)
            assert abs(uncertainty(h2).spread - u) < 1e-9

            # rotation invariance: spread recomputed on rotated coordinates
            est = uncertainty(h)
            xs, ys = h.cell_centers()
            for ang in (0.35, 1.1):
                ca, sa = math.cos(ang), math.sin(ang)
                rx = est.mean[0] + ca * (xs - est.mean[0]) - sa * (ys - est.mean[1])
                ry = est.mean[1] + sa * (xs - est.mean[0]) + ca * (ys - est.mean[1])
                ex, ey = float(np.dot(h.prob, rx)), float(np.dot(h.prob, ry))
                u_rot = float(np.dot(h.prob, (rx - ex) ** 2) + np.dot(h.prob, (ry - ey) ** 2))
                assert abs(u_rot - u) < 1e-9
        info["max_rel_err"] = f"{worst:.4f}"
        info["backend"] = BACKEND


def test_criterion_2_nms_contract():
    with criterion(2, "NMS vs dense brute-force oracle", budget_s=60) as info:
        rng = np.random.default_rng(77001)
        n_maps = 1000
        radii = (0.5, 1.5, 3.0)
        k = 6
        for trial in range(n_maps):
            grid = GridSpec(-8.0, -8.0, 0.5, 48, 48)
            h = random_heatmap(rng, grid, int(rng.integers(10, 500)))
            dense = dense_from_heatmap(h)
            for r in radii:
                ps = nms_sample(h, k, r)
                pts = [(e.x, e.y) for e in ps.endpoints]
                scores = [e.score for e in ps.endpoints]
                for i in range(len(pts)):
                    for j in range(i + 1, len(pts)):
                        assert math.dist(pts[i], pts[j]) >= r
                assert scores == sorted(scores, reverse=True)
                expected = dense_nms_oracle(grid, dense, r, k)
                got = [(e.x, e.y, e.score) for e in ps.endpoints]
                assert got == expected, f"trial {trial} r={r}"
        info["n_maps"] = n_maps
        info["radii"] = "/".join(map(str, radii))
        info["backend"] = BACKEND


def test_criterion_3_uncertainty_error_correlation():
    with criterion(3, "binned error grows with spread", budget_s=300) as info:
        cfg = ScenarioConfig(seed=303, n_modes_range=(1, 1))
        scfg = SamplingConfig()
        n = 20_000
        pairs = []
        for i in range(n):
            h, gt, _ = sample_scenario(cfg, i)
            ps = sample_with_uncertainty(h, scfg)
            rec = make_eval_record(f"s{i}", ps, gt, 6)
            pairs.append((rec.uncertainty, rec.fde_per_l[0]))
        bins = floor_bin_means(pairs, 1.0, min_count=100)
        assert len(bins) >= 10, "too few well-populated spread bins"
        rho = float(spearmanr([b[0] for b in bins], [b[1] for b in bins]).statistic)
        assert rho > 0.9, f"spearman rho {rho}"
        info["n"] = n
        info["bins"] = len(bins)
        info["spearman"] = f"{rho:.4f}"


def test_criterion_4_adaptive_radius_beats_best_fixed():
    with criterion(4, "calibrated adaptive beats best fixed radius", budget_s=600) as info:
        sweep = RadiusSweepConfig()
        cfg_cal = ScenarioConfig(seed=101)
        cfg_eval = ScenarioConfig(seed=202)
        n_cal = n_eval = 1200

        spread_radius = []
        for i in range(n_cal):
            h, gt, _ = sample_scenario(cfg_cal, i)
            spread_radius.append((uncertainty(h).spread, optimal_radius(h, gt, 6, sweep)))
        model = calibrate(spread_radius, bin_width=1.0, min_count=10, source_dataset="synth-default")

        errs = np.zeros((n_eval, len(sweep.r_values)))
        adaptive_errs = []
        bins_seen = set()
        for i in range(n_eval):
            h, gt, _ = sample_scenario(cfg_eval, i)
            u = uncertainty(h).spread
            bins_seen.add(int(u))
            errs[i] = radius_sweep_errors(h, gt, 6, sweep)
            r = adaptive_radius(u, model)
            adaptive_errs.append(min_fde(nms_sample(h, 6, r), gt, 6))
        assert len(bins_seen) >= 20, "spread must span at least 20 integer bins"
        fixed_means = errs.mean(axis=0)
        best_fixed = float(fixed_means.min())
        best_r = sweep.r_values[int(np.argmin(fixed_means))]
        adaptive_mean = float(np.mean(adaptive_errs))
        improvement = (best_fixed - adaptive_mean) / best_fixed
        assert adaptive_mean < best_fixed
        assert improvement >= 0.01, f"improvement {improvement:.4f}"
        info["best_fixed"] = f"{best_fixed:.4f}@r={best_r}"
        info["adaptive"] = f"{adaptive_mean:.4f}"
        info["improvement"] = f"{improvement * 100:.1f}%"
        info["bins"] = len(bins_seen)


def test_criterion_5_calibration_recovery_and_presets(tmp_path):
    with criterion(5, "plant recovery and shipped presets") as info:
        pairs = planted_calibration_dataset(400)
        hm, gt = write_pairs(tmp_path / "plant", pairs)
        cfg = tmp_path / "cal.json"
        write_json(cfg, {"bin_width": 5.0, "min_count": 3, "dataset_tag": "plant"})
        out = tmp_path / "out"
        assert main(["calibrate", str(hm), str(gt), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        model = read_json(out / "model.json")
        assert model["a"] == pytest.approx(0.02, rel=0.05)
        assert model["b"] == pytest.approx(0.9, rel=0.05)

        expected_presets = {
            "argoverse": (0.020, 0.78, 1.5),
            "interaction": (0.026, 0.96, 0.6),
            "nuscenes": (0.014, 1.32, 1.1),
            "shifts": (0.022, 0.91, 1.5),
        }
        for name, (a, b, fixed) in expected_presets.items():
            preset, fixed_r = load_preset(name)
            assert (preset.a, preset.b, fixed_r) == (a, b, fixed), name
        argo, _ = load_preset("argoverse")
        assert adaptive_radius(0.0, argo) == 0.78
        info["a"] = f"{model['a']:.4f}"
        info["b"] = f"{model['b']:.4f}"


def test_criterion_6_metrics_match_brute_force():
    with criterion(6, "metrics vs brute-force recomputation") as info:
        rng = np.random.default_rng(5150)
        n = 10_000
        k = 6
        records = []
        brute_fde6 = []
        brute_miss6 = []
        for i in range(n):
            m = int(rng.integers(1, k + 1))
            pts = rng.uniform(-12, 12, (m, 2))
            scores = np.sort(rng.random(m))[::-1]
            ps = PredictionSet(
                endpoints=[Endpoint(float(x), float(y), float(s)) for (x, y), s in zip(pts, scores)],
                radius_used=1.0,
            )
            gt = (float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)))
            rec = make_eval_record(f"r{i}", ps, gt, k)
            records.append(rec)
            # independent recomputation with plain python loops
            dists = [math.dist((e.x, e.y), gt) for e in ps.endpoints]
            for l in range(1, k + 1):
                ref = min(dists[: min(l, m)])
                assert rec.fde_per_l[l - 1] == pytest.approx(ref, abs=1e-12)
                assert rec.miss_per_l[l - 1] == (ref > 2.0)
            brute_fde6.append(min(dists))
            brute_miss6.append(min(dists) > 2.0)
        rep = aggregate(records)
        assert rep.min_fde_l[-1] == pytest.approx(statistics.fmean(brute_fde6), abs=1e-12)
        assert rep.mr_l[-1] == sum(brute_miss6) / n

        # boundary: exactly 2 m is a hit
        boundary = PredictionSet(endpoints=[Endpoint(2.0, 0.0, 1.0)], radius_used=1.0)
        assert min_fde(boundary, (0.0, 0.0), 1) == 2.0
        assert is_miss(boundary, (0.0, 0.0), 1) is False
        info["n"] = n
        info["mr6"] = f"{rep.mr_l[-1]:.4f}"


def test_criterion_7_log_variance_loss():
    with criterion(7, "log-variance loss gradient and minimizer") as info:
        rng = np.random.default_rng(424242)
        eps = 1e-6
        worst = 0.0
        for _ in range(100):
            s = float(rng.uniform(-3, 3))
            e = float(rng.uniform(0, 5))
            _, grad = learned_uncertainty_loss(s, e)
            lp, _ = learned_uncertainty_loss(s + eps, e)
            lm, _ = learned_uncertainty_loss(s - eps, e)
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(grad - fd))
            assert abs(grad - fd) < 1e-6
        for e in (0.5, 1.0, 2.0):
            s_star = math.log(e)
            loss_star, grad_star = learned_uncertainty_loss(s_star, e)
            assert abs(grad_star) < 1e-12
            for ds in (-1e-3, 1e-3, -0.5, 0.5):
                loss, _ = learned_uncertainty_loss(s_star + ds, e)
                assert loss > loss_star
        info["max_grad_err"] = f"{worst:.2e}"


def test_criterion_8_kalman_noise_ordering():
    with criterion(8, "perception noise ordering", budget_s=120) as info:
        rng = np.random.default_rng(888)
        ts = np.arange(41) * 0.1

        def cv(noise_std):
            xy = np.column_stack([7.0 * ts + 1.0, -2.0 * ts + 3.0])
            if noise_std > 0:
                xy = xy + rng.normal(0, noise_std, xy.shape)
            return Trajectory(np.column_stack([ts, xy]))

        assert perception_noise(cv(0.0)) < 1e-6
        means = []
        for std in (0.1, 0.3, 0.5):
            vals = [perception_noise(cv(std)) for _ in range(1000)]
            means.append(float(np.mean(vals)))
        assert means[0] <= means[1] <= means[2], means
        info["means"] = "/".join(f"{m:.3f}" for m in means)


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "cross-eval byte determinism", budget_s=300) as info:
        from test_cli import build_cross_eval_fixture

        manifest = build_cross_eval_fixture(tmp_path, n=120)
        outputs = {}
        for label, workers in (("rerun_a", 1), ("rerun_b", 1), ("workers4", 4)):
            out = tmp_path / label
            assert main(["cross-eval", str(manifest), "--out", str(out), "--workers", str(workers)]) == EXIT_OK
            outputs[label] = {
                name: (out / name).read_bytes()
                for name in ("cross_eval.json", "minfde6.csv", "mr6.csv",
                             "improvement_minfde6.csv", "report.md")
            }
        assert outputs["rerun_a"] == outputs["rerun_b"], "rerun must be byte-identical"
        assert outputs["rerun_a"] == outputs["workers4"], "worker count must not matter"
        info["files"] = len(outputs["rerun_a"])
        info["workers"] = "1/4"
