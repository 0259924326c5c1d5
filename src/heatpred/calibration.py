"""Fit the affine map from heatmap spread to sampling radius.

The pipeline mirrors how the radius would be tuned against a validation
set: sweep a radius grid per sample and keep the radius minimizing the
endpoint error, average those optima inside integer spread bins, then fit
a weighted least-squares line through the bin means. The resulting model
(r = a * spread + b) travels with the dataset it was fit on.

Also houses the log-variance regression loss used by learned-uncertainty
baselines, as a pure function with its analytic gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .binning import floor_bin_means
from .heatmap import Heatmap, _require_normalized

__all__ = [
    "CalibrationModel",
    "RadiusSweepConfig",
    "DegenerateFitError",
    "InsufficientBinsError",
    "radius_sweep_errors",
    "optimal_radius",
    "binned_optimal_radii",
    "ols_fit",
    "calibrate",
    "learned_uncertainty_loss",
    "model_to_dict",
    "model_from_dict",
    "load_preset",
    "PRESET_NAMES",
]

PRESET_NAMES = ("argoverse", "interaction", "nuscenes", "shifts")


class DegenerateFitError(ValueError):
    """Least squares needs at least two distinct x values."""


class InsufficientBinsError(ValueError):
    """Too few populated spread bins to fit a line."""


@dataclass(frozen=True)
class CalibrationModel:
    """Affine spread-to-radius map r = a * spread + b."""

    a: float
    b: float
    source_dataset: str = "unknown"
    bin_count: int | None = None
    residual_rms: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("slope must be finite")
        if not self.b > 0:
            raise ValueError("intercept must be positive")


def _default_r_values() -> tuple[float, ...]:
    return tuple(round(0.1 * i, 10) for i in range(1, 51))


@dataclass(frozen=True)
class RadiusSweepConfig:
    """Radius grid searched per sample and the rank used for the objective."""

    r_values: tuple[float, ...] = ()
    l_for_objective: int = 6

    def __post_init__(self):
        if not self.r_values:
            object.__setattr__(self, "r_values", _default_r_values())
        rv = tuple(float(r) for r in self.r_values)
        if any(r <= 0 for r in rv):
            raise ValueError("all sweep radii must be positive")
        if any(b <= a for a, b in zip(rv, rv[1:])):
            raise ValueError("sweep radii must be strictly ascending")
        if self.l_for_objective < 1:
            raise ValueError("l_for_objective must be at least 1")
        object.__setattr__(self, "r_values", rv)


def radius_sweep_errors(
    h: Heatmap, gt: tuple[float, float], k: int, sweep: RadiusSweepConfig
) -> np.ndarray:
    """minFDE at ``l_for_objective`` for every radius in the sweep grid.

    Bit-equal to ``min_fde(nms_sample(h, k, r), gt, l)`` for each radius, from
    one kernel sweep that sorts the cells once. When ``l >= k`` the error is a
    minimum over all peaks, so their scores (and order) are not computed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _require_normalized(h, "radius_sweep_errors")
    l = sweep.l_for_objective
    xs, ys = h.cell_centers()
    runs = kernels.nms_sweep(xs, ys, h.prob, sweep.r_values, k, scores=l < k)
    gx, gy = gt
    errs = np.empty(len(runs), dtype=np.float64)
    for i, (peaks, scores) in enumerate(runs):
        if scores is not None:
            peaks = peaks[np.argsort(-scores, kind="stable")][:l]
        errs[i] = min(math.hypot(float(xs[p]) - gx, float(ys[p]) - gy) for p in peaks)
    return errs


def optimal_radius(
    h: Heatmap, gt: tuple[float, float], k: int = 6, sweep: RadiusSweepConfig = RadiusSweepConfig()
) -> float:
    """Sweep radius minimizing the endpoint error; ties go to the smallest radius."""
    errs = radius_sweep_errors(h, gt, k, sweep)
    return float(sweep.r_values[int(np.argmin(errs))])


def binned_optimal_radii(
    records: Iterable[tuple[float, float]], bin_width: float = 1.0, min_count: int = 100
) -> list[tuple[float, float, int]]:
    """Mean optimal radius per spread floor bin, as (bin_center, mean_r, count)."""
    means = floor_bin_means(records, bin_width, min_count)
    if not means:
        raise InsufficientBinsError(
            f"no spread bin holds at least {min_count} records"
        )
    return [(lower + bin_width / 2.0, mean_r, count) for lower, mean_r, count in means]


def ols_fit(
    points: Sequence[tuple[float, float]], weights: Sequence[float] | None = None
) -> tuple[float, float]:
    """Weighted least-squares line through (x, y) points via normal equations.

    Returns (slope, intercept). Sums are fsum-exact, so the fit is identical
    for any ordering of the points.
    """
    if len(points) < 2:
        raise DegenerateFitError("need at least two points")
    if weights is None:
        weights = [1.0] * len(points)
    if len(weights) != len(points):
        raise ValueError("weights must match points")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    if max(xs) == min(xs):
        raise DegenerateFitError("all x values are equal")
    sw = math.fsum(weights)
    swx = math.fsum(w * x for w, x in zip(weights, xs))
    swy = math.fsum(w * y for w, y in zip(weights, ys))
    swxx = math.fsum(w * x * x for w, x in zip(weights, xs))
    swxy = math.fsum(w * x * y for w, x, y in zip(weights, xs, ys))
    det = swxx * sw - swx * swx
    if det == 0:
        raise DegenerateFitError("degenerate normal equations")
    a = (sw * swxy - swx * swy) / det
    b = (swxx * swy - swx * swxy) / det
    return a, b


def calibrate(
    pairs: Sequence[tuple[float, float]],
    bin_width: float = 1.0,
    min_count: int = 100,
    source_dataset: str = "unknown",
) -> CalibrationModel:
    """Fit the affine spread-to-radius model on (spread, optimal radius) pairs.

    Each pair is one sample's heatmap spread and its sweep-optimal radius
    (``optimal_radius``). The optima are binned by spread and the line is
    fit through the bin means, weighted by bin population.
    """
    if not pairs:
        raise InsufficientBinsError("calibration dataset is empty")
    bins = binned_optimal_radii(pairs, bin_width=bin_width, min_count=min_count)
    if len(bins) < 2:
        raise InsufficientBinsError(
            f"need at least 2 populated spread bins to fit, got {len(bins)}"
        )
    centers_means = [(c, m) for c, m, _ in bins]
    counts = [float(n) for _, _, n in bins]
    a, b = ols_fit(centers_means, counts)
    if b <= 0:
        raise DegenerateFitError(f"rejected fit with non-positive intercept b={b}")
    res2 = math.fsum(w * (m - (a * c + b)) ** 2 for (c, m), w in zip(centers_means, counts))
    rms = math.sqrt(res2 / math.fsum(counts))
    return CalibrationModel(
        a=a, b=b, source_dataset=source_dataset, bin_count=len(bins), residual_rms=rms
    )


def learned_uncertainty_loss(log_variance: float, error: float) -> tuple[float, float]:
    """Log-variance regression loss error*exp(-s) + s and its d/ds gradient.

    Predicting s = log(V) keeps the loss numerically stable for small
    variances; the minimizer sits at s = log(error). Shipped as a pure
    function so external trainers can reproduce the learned-uncertainty
    baseline without this package doing any training.
    """
    if error < 0:
        raise ValueError("error must be non-negative")
    e = math.exp(-log_variance)
    return error * e + log_variance, 1.0 - error * e


def model_to_dict(m: CalibrationModel) -> dict:
    return {
        "a": m.a,
        "b": m.b,
        "source_dataset": m.source_dataset,
        "bin_count": m.bin_count,
        "residual_rms": m.residual_rms,
    }


def model_from_dict(d: dict) -> CalibrationModel:
    return CalibrationModel(
        a=float(d["a"]),
        b=float(d["b"]),
        source_dataset=str(d.get("source_dataset", "unknown")),
        bin_count=None if d.get("bin_count") is None else int(d["bin_count"]),
        residual_rms=None if d.get("residual_rms") is None else float(d["residual_rms"]),
    )


def load_preset(name: str) -> tuple[CalibrationModel, float]:
    """Load a shipped per-dataset calibration preset.

    Returns the affine model and the best fixed radius for that dataset.
    """
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("heatpred").joinpath(f"presets/{name}.json").read_text()
    d = json.loads(text)
    return model_from_dict(d), float(d["fixed_radius"])
