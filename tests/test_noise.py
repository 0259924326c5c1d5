import math

import numpy as np
import pytest

from heatpred.binning import floor_histogram
from heatpred.noise import (
    KalmanConfig,
    NonUniformSamplingError,
    _covariance_step,
    _cv_model,
    kalman_filter_cv,
    perception_noise,
    sample_noise,
)
from heatpred.trajectory import Sample, Trajectory
from helpers import straight_sample


def cv_track(n=41, dt=0.1, v=(8.0, -2.0), start=(3.0, 4.0), t0=0.0):
    ts = t0 + np.arange(n) * dt
    xs = start[0] + v[0] * (ts - t0)
    ys = start[1] + v[1] * (ts - t0)
    return Trajectory(np.column_stack([ts, xs, ys]))


def noisy_sample(rng, noise_std, sample_id="n0"):
    rate = 10.0
    tp = -1.0 + np.arange(11) / rate
    tf = (np.arange(30) + 1) / rate

    def track(ts):
        xy = np.column_stack([6.0 * ts, 1.5 * ts])
        xy += rng.normal(0, noise_std, xy.shape)
        return np.column_stack([ts, xy])

    return Sample(id=sample_id, dataset="synthetic", past=Trajectory(track(tp)), future=Trajectory(track(tf)))


class TestKalmanFilter:
    def test_noiseless_cv_is_fixed_point(self):
        traj = cv_track()
        out = kalman_filter_cv(traj)
        assert np.max(np.abs(out.xy - traj.xy)) < 1e-6

    def test_stationary_is_fixed_point(self):
        traj = cv_track(v=(0.0, 0.0))
        out = kalman_filter_cv(traj)
        assert np.max(np.abs(out.xy - traj.xy)) < 1e-12

    def test_frozen_hand_recursion(self):
        # values computed with an independent scalar 2x2 predict/update
        # recursion over the same published filter contract
        traj = Trajectory(
            np.array([[0.0, 0.0, 0.0], [0.1, 1.0, 0.0], [0.2, 2.5, 0.0], [0.3, 3.0, 0.0]])
        )
        out = kalman_filter_cv(traj)
        expected_x = [0.0, 1.0, 2.3666811092743094, 3.193160284324809]
        for got, want in zip(out.xy[:, 0], expected_x):
            assert got == pytest.approx(want, abs=1e-9)
        assert np.all(out.xy[:, 1] == 0.0)

    def test_non_uniform_rejected(self):
        traj = Trajectory(np.array([[0.0, 0, 0], [0.1, 1, 0], [0.25, 2, 0]]))
        with pytest.raises(NonUniformSamplingError):
            kalman_filter_cv(traj)

    def test_needs_three_points(self):
        traj = Trajectory(np.array([[0.0, 0, 0], [0.1, 1, 0]]))
        with pytest.raises(ValueError, match="three"):
            kalman_filter_cv(traj)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        base = cv_track()
        noisy = Trajectory(base.data + np.column_stack([np.zeros(len(base)), rng.normal(0, 0.3, (len(base), 2))]))
        shifted = Trajectory(noisy.data + np.array([0.0, 120.0, -45.0]))
        a = kalman_filter_cv(noisy)
        b = kalman_filter_cv(shifted)
        assert np.max(np.abs((b.xy - a.xy) - np.array([120.0, -45.0]))) < 1e-9

    def test_covariance_stays_positive_definite(self):
        # the covariance does not depend on the observations, so the filter's
        # own start at dt 0.1 and obs_std 0.5 is stepped without a track
        model = _cv_model(0.1, KalmanConfig())
        p = np.diag([0.25, 0.25, 50.0, 50.0])
        for _ in range(60):
            _, p = _covariance_step(p, model)
            assert np.max(np.abs(p - p.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(p)) > 0


class TestPerceptionNoise:
    def test_noiseless_cv_near_zero(self):
        assert perception_noise(cv_track()) < 1e-6

    def test_single_spike_detected(self):
        traj = cv_track()
        data = traj.data.copy()
        data[20, 1] += 1.0
        spiked = Trajectory(data)
        noise = perception_noise(spiked)
        assert 0.2 < noise <= 1.0

    def test_monotone_in_injected_noise(self):
        rng = np.random.default_rng(77)
        means = []
        for std in (0.1, 0.3, 0.5):
            vals = []
            for _ in range(200):
                traj = cv_track()
                noisy = Trajectory(
                    np.column_stack([traj.ts, traj.xy + rng.normal(0, std, traj.xy.shape)])
                )
                vals.append(perception_noise(noisy))
            means.append(float(np.mean(vals)))
        assert means[0] <= means[1] <= means[2]


def noise_fractions(samples, cfg=KalmanConfig(), bin_width=0.1):
    """{bin lower: fraction} of the samples' perception noise."""
    return {lo: fr for lo, _, fr in floor_histogram([sample_noise(s, cfg) for s in samples], bin_width)}


class TestNoiseHistogram:
    def test_noiseless_set_in_bin_zero(self):
        samples = [straight_sample(v, sample_id=f"s{i}") for i, v in enumerate((0.0, 3.0, 9.0))]
        hist = noise_fractions(samples, bin_width=0.1)
        assert hist == {0.0: 1.0}

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(123)
        samples = [noisy_sample(rng, 0.3, f"m{i}") for i in range(40)]
        cfg = KalmanConfig()
        hist = noise_fractions(samples, cfg, bin_width=0.1)
        # independent recount
        noises = []
        for s in samples:
            track = Trajectory(np.vstack([s.past.data, s.future.data]))
            noises.append(perception_noise(track, cfg))
        for lower, frac in hist.items():
            count = sum(1 for n in noises if lower <= n < lower + 0.1)
            assert frac == count / len(samples)
        assert math.fsum(hist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_stochastic_dominance_of_noisier_sets(self):
        rng = np.random.default_rng(321)
        lo = [noisy_sample(rng, 0.1, f"a{i}") for i in range(300)]
        hi = [noisy_sample(rng, 0.5, f"b{i}") for i in range(300)]
        h_lo = noise_fractions(lo, bin_width=0.05)
        h_hi = noise_fractions(hi, bin_width=0.05)
        edges = sorted(set(h_lo) | set(h_hi))

        def cdf(hist):
            acc, out = 0.0, {}
            for e in edges:
                acc += hist.get(e, 0.0)
                out[e] = acc
            return out

        c_lo, c_hi = cdf(h_lo), cdf(h_hi)
        # low-noise CDF dominates (sits above) the high-noise CDF
        assert all(c_lo[e] >= c_hi[e] - 1e-9 for e in edges)
        assert any(c_lo[e] > c_hi[e] + 0.2 for e in edges)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            noise_fractions([], bin_width=0.1)
