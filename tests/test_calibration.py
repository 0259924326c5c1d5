import math

import numpy as np
import pytest

from heatpred.calibration import (
    CalibrationModel,
    DegenerateFitError,
    InsufficientBinsError,
    RadiusSweepConfig,
    calibrate,
    fit_bins,
    learned_uncertainty_loss,
    load_preset,
    model_from_dict,
    model_to_dict,
    optimal_radius,
    radius_sweep_errors,
    spread_bins,
)
from heatpred.heatmap import (
    GaussianMode,
    GridSpec,
    Heatmap,
    MixtureSpec,
    render_mixture,
    uncertainty,
)
from heatpred.metrics import min_fde
from heatpred.sampling import nms_sample
from helpers import SWEEP_CASES, planted_calibration_dataset, random_heatmap, sweep_case


class TestOptimalRadius:
    def test_point_mass_at_gt_returns_smallest(self):
        g = GridSpec(0.0, 0.0, 0.5, 8, 8)
        h = Heatmap.from_cells(g, {27: 1.0})
        xs, ys = h.cell_centers()
        gt = (float(xs[0]), float(ys[0]))
        sweep = RadiusSweepConfig()
        assert optimal_radius(h, gt, 6, sweep) == sweep.r_values[0]

    def test_two_equal_modes_recovers_secondary(self):
        grid = GridSpec(-8.0, -8.0, 0.25, 81, 65)
        mix = MixtureSpec(
            (GaussianMode(0.5, 0.0, 0.0, 0.4), GaussianMode(0.5, 4.0, 0.0, 0.4))
        )
        h = render_mixture(mix, grid, 4.0)
        sweep = RadiusSweepConfig()
        r = optimal_radius(h, (4.0, 0.0), 2, sweep)
        errs = radius_sweep_errors(h, (4.0, 0.0), 2, sweep)
        assert errs[list(sweep.r_values).index(r)] == pytest.approx(0.0, abs=1e-9)
        assert r == sweep.r_values[0]  # ties break toward the smallest radius

    def test_definitional_argmin_property(self, rng):
        sweep = RadiusSweepConfig()
        for _ in range(10):
            h = random_heatmap(rng, GridSpec(-6, -6, 0.5, 24, 24), 120)
            gt = tuple(rng.uniform(-5, 5, 2))
            r = optimal_radius(h, gt, 6, sweep)
            errs = radius_sweep_errors(h, gt, 6, sweep)
            r_err = errs[list(sweep.r_values).index(r)]
            assert np.all(r_err <= errs + 1e-15)
            assert r in sweep.r_values

    def test_sweep_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            RadiusSweepConfig(r_values=(1.0, 0.5))
        with pytest.raises(ValueError, match="positive"):
            RadiusSweepConfig(r_values=(-1.0, 0.5))


class TestSweepMatchesPerRadiusSampling:
    """``radius_sweep_errors`` equals one ``nms_sample`` + ``min_fde`` per radius, bit for bit."""

    @pytest.mark.parametrize("l", [6, 3, 1])
    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_bit_equal_to_per_radius_loop(self, rng, case, l):
        h, k = sweep_case(case, rng)
        # radii below the 0.5 grid resolution, then up past the prefix-doubling range
        radii = (0.05, 0.2, 0.45) + RadiusSweepConfig().r_values[4:]
        sweep = RadiusSweepConfig(r_values=radii, l_for_objective=l)
        for gt in [(0.3, -1.7), tuple(rng.uniform(-8, 8, 2))]:
            expected = [min_fde(nms_sample(h, k, r), gt, l) for r in sweep.r_values]
            got = radius_sweep_errors(h, gt, k, sweep)
            assert got.tolist() == expected

    def test_random_heatmaps_default_sweep(self, rng):
        sweep = RadiusSweepConfig()
        for _ in range(8):
            h = random_heatmap(rng, GridSpec(-6, -6, 0.5, 24, 24), int(rng.integers(3, 400)))
            gt = tuple(rng.uniform(-5, 5, 2))
            expected = [min_fde(nms_sample(h, 6, r), gt, 6) for r in sweep.r_values]
            assert radius_sweep_errors(h, gt, 6, sweep).tolist() == expected


class TestBinnedOptimalRadii:
    def test_single_record(self):
        assert spread_bins([(0.2, 1.0)], bin_width=1.0) == [(0.5, 1.0, 1)]

    def test_two_in_same_bin(self):
        out = spread_bins([(0.1, 1.0), (0.9, 3.0), (1.5, 2.0)], bin_width=1.0)
        assert out == [(0.5, 2.0, 2), (1.5, 2.0, 1)]
        # the fit keeps only the bins that hold min_count pairs, and returns them
        with pytest.raises(InsufficientBinsError):
            fit_bins(out, min_count=2)
        model, kept = fit_bins(out, min_count=1)
        assert kept == out and model.bin_count == 2

    def test_planted_line_within_discretization(self, rng):
        # r values exactly on a line: bin means stay within slope*width/2 of it
        a, b, w = 0.02, 0.8, 1.0
        us = rng.uniform(0, 50, 5000)
        records = [(u, a * u + b) for u in us]
        bins = spread_bins(records, w)
        # every bin is kept, also those below min_count, and no pair is lost
        counts = sorted(count for _, _, count in bins)
        assert sum(counts) == len(records)
        min_count = counts[len(counts) // 2]
        _, kept = fit_bins(bins, min_count)
        assert counts[0] < min_count and kept == [b for b in bins if b[2] >= min_count]
        for center, mean_r, _ in bins:
            assert abs(mean_r - (a * center + b)) <= a * w / 2 + 1e-12

    def test_empty_after_filter_error(self):
        bins = spread_bins([(0.5, 1.0), (3.2, 1.0), (3.7, 2.0)], bin_width=1.0)
        with pytest.raises(InsufficientBinsError) as e:
            fit_bins(bins, min_count=3)
        assert str(e.value) == (
            "no spread bin holds at least 3 records; "
            "the fullest spread bin, centred at 3.5, holds 2 of 3 pairs"
        )
        with pytest.raises(InsufficientBinsError, match="calibration dataset is empty"):
            fit_bins(spread_bins([], bin_width=1.0))


class TestOlsFit:
    def test_exact_line(self):
        from heatpred.calibration import ols_fit

        pts = [(x, 0.02 * x + 0.78) for x in (0.0, 1.0, 5.0, 12.0)]
        a, b = ols_fit(pts)
        assert a == pytest.approx(0.02, abs=1e-9)
        assert b == pytest.approx(0.78, abs=1e-9)

    def test_two_points(self):
        from heatpred.calibration import ols_fit

        a, b = ols_fit([(0.0, 1.0), (10.0, 2.0)])
        assert a == pytest.approx(0.1, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_recovery_within_3_se(self, rng):
        from heatpred.calibration import ols_fit

        n = 10_000
        a_true, b_true, noise = 0.5, 2.0, 0.3
        xs = rng.uniform(0, 10, n)
        ys = a_true * xs + b_true + rng.normal(0, noise, n)
        a, b = ols_fit(list(zip(xs, ys)))
        # standard errors from the classical formulas
        sxx = float(np.sum((xs - xs.mean()) ** 2))
        se_a = noise / math.sqrt(sxx)
        se_b = noise * math.sqrt(1 / n + xs.mean() ** 2 / sxx)
        assert abs(a - a_true) < 3 * se_a
        assert abs(b - b_true) < 3 * se_b

    def test_weighted_residual_orthogonality(self, rng):
        from heatpred.calibration import ols_fit

        xs = rng.uniform(0, 5, 60)
        ys = rng.uniform(0, 5, 60)
        ws = rng.uniform(0.5, 4.0, 60)
        a, b = ols_fit(list(zip(xs, ys)), list(ws))
        res = ys - (a * xs + b)
        assert abs(float(np.sum(ws * res))) < 1e-9 * float(np.sum(ws * np.abs(ys)) + 1)
        assert abs(float(np.sum(ws * res * xs))) < 1e-9 * float(np.sum(ws * np.abs(xs * ys)) + 1)

    def test_degenerate_x_error(self):
        from heatpred.calibration import ols_fit

        with pytest.raises(DegenerateFitError):
            ols_fit([(1.0, 2.0), (1.0, 3.0)])


def spread_radius(data):
    """(spread, sweep-optimal radius) of every (heatmap, gt) pair, k=6 and the default sweep."""
    return [(uncertainty(h).spread, optimal_radius(h, gt)) for h, gt in data]


class TestCalibrate:
    def test_planted_affine_recovery(self):
        data = planted_calibration_dataset(240)
        model = calibrate(spread_radius(data), bin_width=5.0, min_count=3, source_dataset="plant")
        assert model.a == pytest.approx(0.02, rel=0.05)
        assert model.b == pytest.approx(0.9, rel=0.05)
        assert model.bin_count >= 2
        assert model.residual_rms < 0.1

    def test_constant_spread_insufficient_bins(self):
        g = GridSpec(0.0, 0.0, 0.5, 8, 8)
        h = Heatmap.from_cells(g, {27: 1.0})
        data = [(h, (0.0, 0.0))] * 30
        # the library fit names the fullest bin, as the command does
        with pytest.raises(InsufficientBinsError) as e:
            calibrate(spread_radius(data), bin_width=1.0, min_count=1)
        assert str(e.value) == (
            "need at least 2 populated spread bins to fit, got 1; "
            "the fullest spread bin, centred at 0.5, holds 30 of 30 pairs"
        )

    def test_deterministic_under_input_order(self):
        data = planted_calibration_dataset(60, u_lo=20.0, u_hi=120.0)
        pairs = spread_radius(data)
        m1 = calibrate(pairs, bin_width=10.0, min_count=1)
        m2 = calibrate(list(reversed(pairs)), bin_width=10.0, min_count=1)
        assert m1.a == m2.a and m1.b == m2.b


class TestLearnedUncertaintyLoss:
    def test_zero_error_at_zero_logvar(self):
        loss, grad = learned_uncertainty_loss(0.0, 0.0)
        assert loss == 0.0
        assert grad == 1.0

    def test_unit_error_minimized_at_zero(self):
        loss0, grad0 = learned_uncertainty_loss(0.0, 1.0)
        assert loss0 == pytest.approx(1.0, abs=1e-12)
        assert grad0 == pytest.approx(0.0, abs=1e-12)
        for s in (-0.5, 0.5):
            loss, _ = learned_uncertainty_loss(s, 1.0)
            assert loss > loss0

    def test_gradient_matches_finite_differences(self, rng):
        eps = 1e-6
        for _ in range(100):
            s = float(rng.uniform(-3, 3))
            e = float(rng.uniform(0, 5))
            _, grad = learned_uncertainty_loss(s, e)
            lp, _ = learned_uncertainty_loss(s + eps, e)
            lm, _ = learned_uncertainty_loss(s - eps, e)
            assert grad == pytest.approx((lp - lm) / (2 * eps), abs=1e-6)

    def test_convex_in_log_variance(self):
        for e in (0.5, 1.0, 4.0):
            grid = np.linspace(-4, 4, 81)
            losses = [learned_uncertainty_loss(float(s), e)[0] for s in grid]
            second = np.diff(losses, 2)
            assert np.all(second >= -1e-12)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            learned_uncertainty_loss(0.0, -1.0)


class TestPresetsAndSerialization:
    def test_preset_values(self):
        expect = {
            "argoverse": (0.020, 0.78, 1.5),
            "interaction": (0.026, 0.96, 0.6),
            "nuscenes": (0.014, 1.32, 1.1),
            "shifts": (0.022, 0.91, 1.5),
        }
        for name, (a, b, fixed) in expect.items():
            model, fixed_r = load_preset(name)
            assert model.a == a
            assert model.b == b
            assert fixed_r == fixed
            assert model.source_dataset == name

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            load_preset("waymo")

    def test_model_round_trip(self):
        m = CalibrationModel(a=0.015, b=1.1, source_dataset="x", bin_count=12, residual_rms=0.05)
        assert model_from_dict(model_to_dict(m)) == m

    def test_rejects_non_positive_intercept(self):
        with pytest.raises(ValueError):
            CalibrationModel(a=0.01, b=0.0)
