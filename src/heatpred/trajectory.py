"""Trajectory containers, temporal standardization and speed.

Source datasets ship tracks at different rates, history lengths and horizons.
Everything downstream assumes a common convention: timestamps are relative
seconds with t=0 at the prediction instant, the past covers [-history, 0]
and the future covers (0, horizon], both resampled to a fixed rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .io import boolean, numbers, string

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
        if arr.ndim >= 1 and arr.shape[0] == 0:
            raise ValueError("trajectory must contain at least one point")
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("trajectory data must have shape (n, 3)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trajectory values must be finite")
        if np.any(np.diff(arr[:, 0]) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

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
        # each message starts with the field it rejects
        for name in ("history_s", "horizon_s", "rate_hz"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name}: must be positive and finite, got {value!r}")
        steps = self.horizon_s * self.rate_hz
        if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
            raise ValueError(
                f"horizon_s: must be a whole number of steps at rate_hz {self.rate_hz!r}, got {self.horizon_s!r}"
            )


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


def _track(value, where: str) -> Trajectory:
    """A track stored as a JSON list of points, each exactly three JSON numbers
    (t, x, y); a bad track raises a ValueError naming it, such as
    ``past: timestamps must be strictly increasing``."""
    points = numbers(value, where, item=lambda p, w: numbers(p, w, 3))
    try:
        return Trajectory(points)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def sample_from_dict(d: dict) -> Sample:
    """The scene of one JSONL line; a field of the wrong type raises a
    ValueError naming it, such as ``past[0][0]: '-0.2' is not a valid float``."""
    return Sample(
        id=string(d["id"], "id"),
        dataset=string(d["dataset"], "dataset"),
        past=_track(d["past"], "past"),
        future=_track(d["future"], "future"),
        neighbors=list(numbers(d.get("neighbors", []), "neighbors", item=_track)),
        is_predefined_target=boolean(d.get("is_predefined_target", True), "is_predefined_target"),
    )
