"""Trajectory containers, temporal standardization and scene transforms.

Source datasets ship tracks at different rates, history lengths and horizons.
Everything downstream assumes a common convention: timestamps are relative
seconds with t=0 at the prediction instant, the past covers [-history, 0]
and the future covers (0, horizon], both resampled to a fixed rate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Trajectory",
    "Sample",
    "StandardizationConfig",
    "CoverageError",
    "DegenerateTrajectoryError",
    "resample_trajectory",
    "standardize_sample",
    "average_speed",
    "rotate_sample",
    "filter_slow_agents",
    "sample_to_dict",
    "sample_from_dict",
]

# slack for float fuzz when checking window coverage / standardization
TIME_TOL = 1e-6


class CoverageError(ValueError):
    """Trajectory does not span the requested resampling window."""


class DegenerateTrajectoryError(ValueError):
    """Interpolation needs at least two points."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered 2D track stored as an (n, 3) array of (t, x, y) rows."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("trajectory data must have shape (n, 3)")
        if arr.shape[0] < 1:
            raise ValueError("trajectory must contain at least one point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trajectory values must be finite")
        if np.any(np.diff(arr[:, 0]) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "Trajectory":
        return cls(np.array([[p[0], p[1], p[2]] for p in points], dtype=np.float64))

    @property
    def ts(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def xy(self) -> np.ndarray:
        return self.data[:, 1:]

    def __len__(self) -> int:
        return int(self.data.shape[0])


@dataclass(eq=False)
class Sample:
    """One prediction case: a target agent's past and future plus context."""

    id: str
    dataset: str
    past: Trajectory
    future: Trajectory
    neighbors: list[Trajectory] = field(default_factory=list)
    is_predefined_target: bool = True

    def __post_init__(self):
        if np.any(self.past.ts > TIME_TOL):
            raise ValueError(f"sample {self.id}: past timestamps must be <= 0")
        if np.any(self.future.ts <= 0):
            raise ValueError(f"sample {self.id}: future timestamps must be > 0")


@dataclass(frozen=True)
class StandardizationConfig:
    history_s: float = 1.0
    horizon_s: float = 3.0
    rate_hz: float = 10.0

    def __post_init__(self):
        if self.history_s <= 0 or self.horizon_s <= 0 or self.rate_hz <= 0:
            raise ValueError("history, horizon and rate must be positive")
        steps = self.horizon_s * self.rate_hz
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("rate_hz * horizon_s must be an integer step count")

    @property
    def n_future(self) -> int:
        return int(round(self.horizon_s * self.rate_hz))

    @property
    def n_past(self) -> int:
        return int(round(self.history_s * self.rate_hz)) + 1


def resample_trajectory(traj: Trajectory, rate_hz: float, t_start: float, t_end: float) -> Trajectory:
    """Linearly interpolate a track onto the grid t_start + i/rate_hz.

    The grid runs from t_start to t_end inclusive. The input must cover the
    window (first timestamp <= t_start, last >= t_end, with a small
    tolerance for float fuzz).
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if len(traj) < 2:
        raise DegenerateTrajectoryError("resampling needs at least two points")
    ts = traj.ts
    if ts[0] > t_start + TIME_TOL or ts[-1] < t_end - TIME_TOL:
        raise CoverageError(
            f"trajectory spans [{ts[0]:.6f}, {ts[-1]:.6f}] s "
            f"but [{t_start:.6f}, {t_end:.6f}] s was requested"
        )
    n = int(round((t_end - t_start) * rate_hz)) + 1
    grid = t_start + np.arange(n, dtype=np.float64) / rate_hz
    xs = np.interp(grid, ts, traj.data[:, 1])
    ys = np.interp(grid, ts, traj.data[:, 2])
    return Trajectory(np.column_stack([grid, xs, ys]))


def standardize_sample(s: Sample, cfg: StandardizationConfig = StandardizationConfig()) -> Sample:
    """Resample a raw sample onto the configured history/horizon/rate.

    The future is interpolated on the track formed by the last past point
    (t ~ 0) followed by the raw future, so low-rate sources still bracket
    the first future grid step. Neighbors are resampled over the full window
    where their span allows and dropped otherwise.
    """
    try:
        past = resample_trajectory(s.past, cfg.rate_hz, -cfg.history_s, 0.0)
    except (CoverageError, DegenerateTrajectoryError) as e:
        raise CoverageError(f"sample {s.id}: past too short ({e})") from e
    anchored = Trajectory(np.vstack([s.past.data[-1:], s.future.data]))
    try:
        future = resample_trajectory(anchored, cfg.rate_hz, 1.0 / cfg.rate_hz, cfg.horizon_s)
    except CoverageError as e:
        raise CoverageError(f"sample {s.id}: future too short ({e})") from e
    neighbors = []
    for nb in s.neighbors:
        try:
            neighbors.append(resample_trajectory(nb, cfg.rate_hz, -cfg.history_s, cfg.horizon_s))
        except (CoverageError, DegenerateTrajectoryError):
            continue
    return Sample(
        id=s.id,
        dataset=s.dataset,
        past=past,
        future=future,
        neighbors=neighbors,
        is_predefined_target=s.is_predefined_target,
    )


def _require_standardized(s: Sample) -> None:
    if abs(s.past.ts[-1]) > TIME_TOL:
        raise ValueError(f"sample {s.id}: expected a standardized sample (past must end at t=0)")


def average_speed(s: Sample) -> float:
    """Displacement speed over the future: |pos(T) - pos(0)| / T.

    Uses straight-line displacement between the position at the prediction
    instant and the final future position, so an agent returning to its
    start counts as stationary.
    """
    _require_standardized(s)
    p0 = s.past.data[-1, 1:]
    pT = s.future.data[-1, 1:]
    horizon = float(s.future.ts[-1])
    return float(np.hypot(pT[0] - p0[0], pT[1] - p0[1])) / horizon


def rotate_sample(s: Sample, angle: float) -> Sample:
    """Rotate all positions by ``angle`` about the target's t=0 position."""
    _require_standardized(s)
    center = s.past.data[-1, 1:]
    cos_a = math.cos(angle)
    sin_a = math.sin(angle)
    rot = np.array([[cos_a, -sin_a], [sin_a, cos_a]])

    def _rot(traj: Trajectory) -> Trajectory:
        xy = (traj.xy - center) @ rot.T + center
        return Trajectory(np.column_stack([traj.ts, xy]))

    return Sample(
        id=s.id,
        dataset=s.dataset,
        past=_rot(s.past),
        future=_rot(s.future),
        neighbors=[_rot(nb) for nb in s.neighbors],
        is_predefined_target=s.is_predefined_target,
    )


def _inclusion_draw(seed: int, sample_id: str) -> float:
    # uniform in [0, 1), stable under input order and parallel fan-out
    digest = hashlib.sha256(f"{seed}|{sample_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def filter_slow_agents(
    samples: Sequence[Sample], include_non_targets: float, seed: int = 0
) -> list[Sample]:
    """Keep all predefined targets plus a seeded random share of the rest.

    Non-target agents (parked or slow vehicles promoted to prediction cases)
    are each kept with probability ``include_non_targets``; the decision is a
    pure function of (seed, sample id).
    """
    if not 0.0 <= include_non_targets <= 1.0:
        raise ValueError("include_non_targets must lie in [0, 1]")
    out = []
    for s in samples:
        if s.is_predefined_target or _inclusion_draw(seed, s.id) < include_non_targets:
            out.append(s)
    return out


def _traj_to_rows(traj: Trajectory) -> list[list[float]]:
    return [[float(t), float(x), float(y)] for t, x, y in traj.data]


def sample_to_dict(s: Sample) -> dict:
    d = {
        "id": s.id,
        "dataset": s.dataset,
        "past": _traj_to_rows(s.past),
        "future": _traj_to_rows(s.future),
        "is_predefined_target": s.is_predefined_target,
    }
    if s.neighbors:
        d["neighbors"] = [_traj_to_rows(nb) for nb in s.neighbors]
    return d


def sample_from_dict(d: dict) -> Sample:
    return Sample(
        id=str(d["id"]),
        dataset=str(d["dataset"]),
        past=Trajectory.from_points(d["past"]),
        future=Trajectory.from_points(d["future"]),
        neighbors=[Trajectory.from_points(nb) for nb in d.get("neighbors", [])],
        is_predefined_target=bool(d.get("is_predefined_target", True)),
    )
