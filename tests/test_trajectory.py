import math

import numpy as np
import pytest

from heatpred.binning import floor_histogram
from heatpred.trajectory import (
    CoverageError,
    DegenerateTrajectoryError,
    Sample,
    StandardizationConfig,
    Trajectory,
    average_speed,
    resample_trajectory,
    sample_from_dict,
    sample_to_dict,
    standardize_sample,
)
from helpers import straight_sample


def make_raw_sample(rate_hz, history_s, horizon_s, velocity=(2.0, 0.0), sample_id="raw"):
    n_past = int(round(history_s * rate_hz)) + 1
    n_fut = int(round(horizon_s * rate_hz))
    tp = np.linspace(-history_s, 0.0, n_past)
    tf = (np.arange(n_fut) + 1) / rate_hz
    vx, vy = velocity

    def track(ts):
        return np.column_stack([ts, vx * ts, vy * ts])

    return Sample(
        id=sample_id,
        dataset="synthetic",
        past=Trajectory(track(tp)),
        future=Trajectory(track(tf)),
    )


class TestTrajectoryType:
    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([[0.0, 0, 0], [0.0, 1, 1]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([[0.0, np.nan, 0], [1.0, 1, 1]]))

    def test_data_is_read_only(self):
        traj = Trajectory(np.array([[0.0, 0, 0], [1.0, 1, 1]]))
        with pytest.raises(ValueError):
            traj.data[0, 1] = 5.0


class TestResample:
    def test_low_rate_history_window(self):
        # 2 Hz track over [-2, 0] resampled at 10 Hz over [-1, 0]
        ts = np.arange(-2.0, 0.001, 0.5)
        traj = Trajectory(np.column_stack([ts, 3.0 * ts, np.zeros_like(ts)]))
        out = resample_trajectory(traj, 10.0, -1.0, 0.0)
        assert len(out) == 11
        assert out.ts[0] == -1.0
        assert out.ts[-1] == 0.0

    def test_identity_at_same_rate(self):
        ts = np.arange(0.0, 1.01, 0.1)
        traj = Trajectory(np.column_stack([ts, np.sin(ts), np.cos(ts)]))
        out = resample_trajectory(traj, 10.0, 0.0, 1.0)
        assert np.allclose(out.data, traj.data, atol=1e-9)

    def test_linear_motion_interpolated_exactly(self):
        ts = np.arange(0.0, 3.01, 1.0)
        traj = Trajectory(np.column_stack([ts, 2.0 * ts, np.zeros_like(ts)]))
        out = resample_trajectory(traj, 10.0, 0.05, 2.95)
        i = int(round((0.35 - 0.05) / 0.1))
        assert out.ts[i] == pytest.approx(0.35, abs=1e-12)
        assert out.data[i, 1] == pytest.approx(0.7, abs=1e-9)

    def test_grid_is_arithmetic(self):
        ts = np.array([-3.0, 0.5])
        traj = Trajectory(np.column_stack([ts, ts, ts]))
        out = resample_trajectory(traj, 10.0, -1.0, 0.0)
        expected = -1.0 + np.arange(11) / 10.0
        assert np.array_equal(out.ts, expected)

    def test_output_on_input_segments(self, rng):
        ts = np.sort(rng.uniform(-5, 5, 17))
        ts += np.arange(17) * 1e-3  # ensure strictly increasing
        traj = Trajectory(np.column_stack([ts, rng.normal(size=17), rng.normal(size=17)]))
        out = resample_trajectory(traj, 7.0, ts[0], ts[0] + 1.0)
        # each output point must be a convex combination of its bracketing inputs
        for t, x, y in out.data:
            j = np.searchsorted(ts, t, side="right") - 1
            j = min(max(j, 0), len(ts) - 2)
            t0, x0, y0 = traj.data[j]
            t1, x1, y1 = traj.data[j + 1]
            lam = (t - t0) / (t1 - t0)
            assert -1e-12 <= lam <= 1 + 1e-12
            assert x == pytest.approx(x0 + lam * (x1 - x0), abs=1e-9)
            assert y == pytest.approx(y0 + lam * (y1 - y0), abs=1e-9)

    def test_coverage_error(self):
        traj = Trajectory(np.array([[-0.5, 0, 0], [0.0, 1, 1]]))
        with pytest.raises(CoverageError):
            resample_trajectory(traj, 10.0, -1.0, 0.0)

    def test_degenerate_error(self):
        traj = Trajectory(np.array([[0.0, 0, 0]]))
        with pytest.raises(DegenerateTrajectoryError):
            resample_trajectory(traj, 10.0, 0.0, 0.0)


class TestStandardize:
    def test_shifts_style_sample(self):
        # 5 Hz source with 5 s history and 5 s horizon
        s = make_raw_sample(rate_hz=5.0, history_s=5.0, horizon_s=5.0)
        out = standardize_sample(s, StandardizationConfig())
        assert len(out.past) == 11
        assert len(out.future) == 30
        assert out.past.ts[-1] == pytest.approx(0.0, abs=1e-6)
        assert out.future.ts[-1] == pytest.approx(3.0, abs=1e-6)

    def test_nuscenes_style_low_rate_future(self):
        # 2 Hz: first raw future point at t=0.5, bracketing relies on the t=0 anchor
        s = make_raw_sample(rate_hz=2.0, history_s=2.0, horizon_s=6.0)
        out = standardize_sample(s, StandardizationConfig())
        assert len(out.past) == 11
        assert len(out.future) == 30
        assert np.allclose(out.future.data[:, 1], 2.0 * out.future.ts, atol=1e-9)

    def test_idempotent(self):
        s = make_raw_sample(rate_hz=5.0, history_s=5.0, horizon_s=5.0)
        once = standardize_sample(s)
        twice = standardize_sample(once)
        assert np.allclose(once.past.data, twice.past.data, atol=1e-9)
        assert np.allclose(once.future.data, twice.future.data, atol=1e-9)

    def test_short_history_names_past(self):
        s = make_raw_sample(rate_hz=10.0, history_s=0.5, horizon_s=3.0)
        with pytest.raises(CoverageError, match="past"):
            standardize_sample(s)

    def test_short_future_names_future(self):
        s = make_raw_sample(rate_hz=10.0, history_s=1.0, horizon_s=2.0)
        with pytest.raises(CoverageError, match="future"):
            standardize_sample(s)

    def test_neighbors_resampled_or_dropped(self):
        s = make_raw_sample(rate_hz=10.0, history_s=2.0, horizon_s=4.0)
        full = np.column_stack([np.linspace(-2, 4, 40), np.zeros(40), np.ones(40)])
        short = np.column_stack([np.linspace(0.5, 1.0, 6), np.zeros(6), np.ones(6)])
        s.neighbors = [Trajectory(full), Trajectory(short)]
        out = standardize_sample(s)
        assert len(out.neighbors) == 1
        assert len(out.neighbors[0]) == 41  # [-1, 3] at 10 Hz


def speed_fractions(samples, bin_width):
    """{bin lower: fraction} of the samples' displacement speeds."""
    return {lo: fr for lo, _, fr in floor_histogram([average_speed(s) for s in samples], bin_width)}


class TestSpeed:
    def test_stationary(self):
        assert average_speed(straight_sample(0.0)) == 0.0

    def test_straight_30m_over_3s(self):
        assert average_speed(straight_sample(10.0)) == pytest.approx(10.0, abs=1e-9)

    def test_closed_loop_counts_as_stationary(self):
        # circle through start: displacement-based speed is 0 even while moving
        rate = 10.0
        tp = -1.0 + np.arange(11) / rate
        tf = (np.arange(30) + 1) / rate
        omega = 2.0 * math.pi / 3.0

        def track(ts):
            ang = omega * ts
            return np.column_stack([ts, np.cos(ang) - 1.0, np.sin(ang)])

        s = Sample(id="loop", dataset="synthetic", past=Trajectory(track(tp)), future=Trajectory(track(tf)))
        assert average_speed(s) == pytest.approx(0.0, abs=1e-9)

    def test_histogram_all_stationary(self):
        hist = speed_fractions([straight_sample(0.0, sample_id=f"s{i}") for i in range(5)], 1.0)
        assert hist == {0.0: 1.0}

    def test_histogram_counting(self):
        samples = [straight_sample(v, sample_id=f"s{i}") for i, v in enumerate([0.1, 0.2, 1.1])]
        hist = speed_fractions(samples, 1.0)
        assert hist[0.0] == pytest.approx(2 / 3)
        assert hist[1.0] == pytest.approx(1 / 3)

    def test_histogram_fractions_sum_to_one(self, rng):
        samples = [straight_sample(v, sample_id=f"s{i}") for i, v in enumerate(rng.uniform(0, 20, 200))]
        hist = speed_fractions(samples, 1.5)
        assert math.fsum(hist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_histogram_uniform_speeds(self, rng):
        # law of large numbers: uniform speeds on [0, 10) fill bins evenly
        speeds = rng.uniform(0.0, 10.0, 100_000)
        samples = [straight_sample(v, sample_id=f"s{i}") for i, v in enumerate(speeds)]
        hist = speed_fractions(samples, 1.0)
        assert set(hist) == {float(b) for b in range(10)}
        for frac in hist.values():
            assert frac == pytest.approx(0.1, abs=0.01)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            speed_fractions([], 1.0)


class TestSceneRoundTrip:
    def test_round_trip(self):
        s = straight_sample(4.0, sample_id="rt", heading=0.4)
        s.neighbors = [s.past]
        d = sample_to_dict(s)
        back = sample_from_dict(d)
        assert back.id == s.id and back.dataset == s.dataset
        assert np.allclose(back.past.data, s.past.data)
        assert np.allclose(back.future.data, s.future.data)
        assert len(back.neighbors) == 1
        assert back.is_predefined_target == s.is_predefined_target
