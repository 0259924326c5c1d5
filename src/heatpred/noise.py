"""Perception-noise estimation via constant-velocity Kalman filtering.

A track recorded by a perception stack carries detection and tracking
noise. Filtering it with a constant-velocity model and measuring the
largest raw-vs-filtered displacement gives a per-track noise score that
can be compared across data sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import Sample, Trajectory

__all__ = [
    "KalmanConfig",
    "NonUniformSamplingError",
    "kalman_filter_cv",
    "perception_noise",
    "sample_noise",
]


class NonUniformSamplingError(ValueError):
    """Filter requires uniformly sampled timestamps."""


@dataclass(frozen=True)
class KalmanConfig:
    """Constant-velocity filter parameters.

    ``process_accel_std`` is the white-acceleration driving noise (m/s^2),
    ``obs_std`` the position observation noise (m). ``dt`` is derived from
    the trajectory timestamps when left unset.
    """

    process_accel_std: float = 1.0
    obs_std: float = 0.5
    dt: float | None = None

    def __post_init__(self):
        if self.process_accel_std <= 0 or self.obs_std <= 0:
            raise ValueError("noise parameters must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")


def _filter_states(positions: np.ndarray, dt: float, cfg: KalmanConfig):
    """Forward filter; returns filtered positions and per-step covariances.

    State [x, y, vx, vy], constant-velocity transition, position-only
    observation, white-acceleration process noise. Initialized with the
    first position and the first-difference velocity.
    """
    q = cfg.process_accel_std**2
    r = cfg.obs_std**2
    f_mat = np.array(
        [[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.float64
    )
    q_mat = q * np.array(
        [
            [dt**4 / 4, 0, dt**3 / 2, 0],
            [0, dt**4 / 4, 0, dt**3 / 2],
            [dt**3 / 2, 0, dt**2, 0],
            [0, dt**3 / 2, 0, dt**2],
        ],
        dtype=np.float64,
    )
    h_mat = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float64)
    r_mat = r * np.eye(2)
    eye4 = np.eye(4)

    v0 = (positions[1] - positions[0]) / dt
    x = np.array([positions[0, 0], positions[0, 1], v0[0], v0[1]], dtype=np.float64)
    # position certainty from a single observation, velocity from a difference
    p = np.diag([r, r, 2 * r / dt**2, 2 * r / dt**2])

    filtered = np.empty_like(positions)
    filtered[0] = positions[0]
    covs = [p.copy()]
    for i in range(1, positions.shape[0]):
        x = f_mat @ x
        p = f_mat @ p @ f_mat.T + q_mat
        innov = positions[i] - h_mat @ x
        s_mat = h_mat @ p @ h_mat.T + r_mat
        k_gain = p @ h_mat.T @ np.linalg.inv(s_mat)
        x = x + k_gain @ innov
        # Joseph form keeps the covariance symmetric positive definite
        ikh = eye4 - k_gain @ h_mat
        p = ikh @ p @ ikh.T + k_gain @ r_mat @ k_gain.T
        filtered[i] = x[:2]
        covs.append(p.copy())
    return filtered, covs


def _uniform_dt(traj: Trajectory, cfg: KalmanConfig) -> float:
    ts = traj.ts
    dt = cfg.dt if cfg.dt is not None else float(ts[-1] - ts[0]) / (len(ts) - 1)
    diffs = np.diff(ts)
    if np.any(np.abs(diffs - dt) > 1e-6):
        raise NonUniformSamplingError(
            f"timestamps are not uniform at dt={dt:.6f} s (max deviation "
            f"{float(np.max(np.abs(diffs - dt))):.2e} s)"
        )
    return dt


def kalman_filter_cv(traj: Trajectory, cfg: KalmanConfig = KalmanConfig()) -> Trajectory:
    """Filter a uniformly sampled track; returns positions at the same times."""
    if len(traj) < 3:
        raise ValueError("filtering needs at least three points")
    dt = _uniform_dt(traj, cfg)
    filtered, _ = _filter_states(traj.xy.copy(), dt, cfg)
    return Trajectory(np.column_stack([traj.ts, filtered]))


def perception_noise(traj: Trajectory, cfg: KalmanConfig = KalmanConfig()) -> float:
    """Largest displacement between the raw track and its filtered version."""
    filtered = kalman_filter_cv(traj, cfg)
    deltas = traj.xy - filtered.xy
    return float(np.max(np.hypot(deltas[:, 0], deltas[:, 1])))


def sample_noise(s: Sample, cfg: KalmanConfig = KalmanConfig()) -> float:
    """Perception noise of a sample's past and future taken as one track."""
    return perception_noise(Trajectory(np.vstack([s.past.data, s.future.data])), cfg)
