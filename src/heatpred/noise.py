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


class NonUniformSamplingError(ValueError):
    """Filter requires uniformly sampled timestamps."""


@dataclass(frozen=True)
class KalmanConfig:
    """Constant-velocity filter parameters.

    ``process_accel_std`` is the white-acceleration driving noise (m/s^2),
    ``obs_std`` the position observation noise (m). The time step comes from
    the trajectory timestamps.
    """

    process_accel_std: float = 1.0
    obs_std: float = 0.5

    def __post_init__(self):
        # each message starts with the field it rejects
        for name in ("process_accel_std", "obs_std"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name}: must be positive and finite, got {value!r}")


def _cv_model(dt: float, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The transition, process noise, observation and observation noise
    matrices of the constant-velocity model at time step ``dt``.

    State [x, y, vx, vy], constant-velocity transition, position-only
    observation, white-acceleration process noise.
    """
    q = cfg.process_accel_std**2
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
    return f_mat, q_mat, h_mat, cfg.obs_std**2 * np.eye(2)


def _covariance_step(p: np.ndarray, model) -> tuple[np.ndarray, np.ndarray]:
    """The Kalman gain and the updated state covariance of one predict and
    update step from covariance ``p``; neither depends on the observations."""
    f_mat, q_mat, h_mat, r_mat = model
    p = f_mat @ p @ f_mat.T + q_mat
    s_mat = h_mat @ p @ h_mat.T + r_mat
    k_gain = p @ h_mat.T @ np.linalg.inv(s_mat)
    # Joseph form keeps the covariance symmetric positive definite
    ikh = np.eye(4) - k_gain @ h_mat
    return k_gain, ikh @ p @ ikh.T + k_gain @ r_mat @ k_gain.T


def _filter_states(positions: np.ndarray, dt: float, cfg: KalmanConfig) -> np.ndarray:
    """Forward filter; returns the filtered positions.

    Initialized with the first position and the first-difference velocity.
    """
    model = f_mat, _, h_mat, _ = _cv_model(dt, cfg)
    r = cfg.obs_std**2
    v0 = (positions[1] - positions[0]) / dt
    x = np.array([positions[0, 0], positions[0, 1], v0[0], v0[1]], dtype=np.float64)
    # position certainty from a single observation, velocity from a difference
    p = np.diag([r, r, 2 * r / dt**2, 2 * r / dt**2])

    filtered = np.empty_like(positions)
    filtered[0] = positions[0]
    for i in range(1, positions.shape[0]):
        k_gain, p = _covariance_step(p, model)
        x = f_mat @ x
        x = x + k_gain @ (positions[i] - h_mat @ x)
        filtered[i] = x[:2]
    return filtered


def _uniform_dt(traj: Trajectory) -> float:
    ts = traj.ts
    dt = float(ts[-1] - ts[0]) / (len(ts) - 1)
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
    dt = _uniform_dt(traj)
    filtered = _filter_states(traj.xy.copy(), dt, cfg)
    return Trajectory(np.column_stack([traj.ts, filtered]))


def perception_noise(traj: Trajectory, cfg: KalmanConfig = KalmanConfig()) -> float:
    """Largest displacement between the raw track and its filtered version."""
    filtered = kalman_filter_cv(traj, cfg)
    deltas = traj.xy - filtered.xy
    return float(np.max(np.hypot(deltas[:, 0], deltas[:, 1])))


def sample_noise(s: Sample, cfg: KalmanConfig = KalmanConfig()) -> float:
    """Perception noise of a sample's past and future taken as one track."""
    return perception_noise(Trajectory(np.vstack([s.past.data, s.future.data])), cfg)
