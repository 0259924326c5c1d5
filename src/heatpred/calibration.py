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
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .binning import BIN_WIDTH, MIN_COUNT, floor_bin_means
from .heatmap import Heatmap
from .io import integer, number, string
from .sampling import SamplingConfig

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
            raise ValueError(f"slope a must be finite, got {self.a!r}")
        if not self.b > 0:
            raise ValueError(f"intercept b must be positive, got {self.b!r}")
        if not math.isfinite(self.b):
            raise ValueError(f"intercept b must be finite, got {self.b!r}")


def _default_r_values() -> tuple[float, ...]:
    return tuple(round(0.1 * i, 10) for i in range(1, 51))


@dataclass(frozen=True)
class RadiusSweepConfig:
    """Radius grid searched per sample."""

    r_values: tuple[float, ...] = field(default_factory=_default_r_values)

    def __post_init__(self):
        rv = tuple(float(r) for r in self.r_values)
        # each message starts with the field it rejects
        if not rv:
            raise ValueError("r_values: must hold at least one radius")
        for i, r in enumerate(rv):
            if not r > 0:
                raise ValueError(f"r_values[{i}]: must be positive, got {r!r}")
            if not math.isfinite(r):
                raise ValueError(f"r_values[{i}]: must be finite, got {r!r}")
            if i and not r > rv[i - 1]:
                raise ValueError(f"r_values[{i}]: radii must be strictly ascending, got {r!r} after {rv[i - 1]!r}")
        object.__setattr__(self, "r_values", rv)


def radius_sweep_errors(
    h: Heatmap, gt: tuple[float, float], k: int, sweep: RadiusSweepConfig
) -> np.ndarray:
    """minFDE_k, the error ``evaluate`` reports, for every radius in the sweep grid.

    Bit-equal to ``min_fde(nms_sample(h, k, r), gt, k)`` for each radius, from
    one kernel sweep that sorts the cells once. The error is a minimum over
    all the peaks of a radius, so their scores (and order) are not computed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    xs, ys = h.cell_centers()
    runs = kernels.nms_sweep(xs, ys, h.prob, sweep.r_values, k)
    gx, gy = gt
    # radii share most of their peaks; each peak's distance is computed once
    dist: dict[int, float] = {}
    errs = np.empty(len(runs), dtype=np.float64)
    for i, peaks in enumerate(runs):
        peaks = peaks.tolist()
        for p in peaks:
            if p not in dist:
                dist[p] = math.hypot(float(xs[p]) - gx, float(ys[p]) - gy)
        errs[i] = min(dist[p] for p in peaks)
    return errs


def optimal_radius(
    h: Heatmap, gt: tuple[float, float], k: int = SamplingConfig.k, sweep: RadiusSweepConfig = RadiusSweepConfig()
) -> float:
    """Sweep radius minimizing the endpoint error; ties go to the smallest radius."""
    errs = radius_sweep_errors(h, gt, k, sweep)
    return float(sweep.r_values[int(np.argmin(errs))])


def spread_bins(pairs: Iterable[tuple[float, float]], bin_width: float = BIN_WIDTH) -> list[tuple[float, float, int]]:
    """Mean optimal radius of every spread floor bin, as (bin_center, mean_r, count)."""
    means = floor_bin_means(pairs, bin_width, 0)
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
    bin_width: float = BIN_WIDTH,
    min_count: int = MIN_COUNT,
    source_dataset: str = "unknown",
) -> CalibrationModel:
    """Fit the affine spread-to-radius model on (spread, optimal radius) pairs.

    Each pair is one sample's heatmap spread and its sweep-optimal radius
    (``optimal_radius``). The optima are binned by spread (``spread_bins``)
    and the line is fit through the bin means (``fit_bins``).
    """
    return fit_bins(spread_bins(pairs, bin_width), min_count, source_dataset)[0]


def fit_bins(
    bins: Sequence[tuple[float, float, int]], min_count: int = MIN_COUNT, source_dataset: str = "unknown"
) -> tuple[CalibrationModel, list[tuple[float, float, int]]]:
    """The line through the ``spread_bins`` bins that hold at least ``min_count``
    pairs, weighted by bin population, and those bins.

    Too few such bins raise an InsufficientBinsError that names the fullest bin.
    """
    if not bins:
        raise InsufficientBinsError("calibration dataset is empty")
    kept = [b for b in bins if b[2] >= min_count]
    if len(kept) < 2:
        center, _, count = max(bins, key=lambda b: b[2])
        raise InsufficientBinsError(
            (f"need at least 2 populated spread bins to fit, got {len(kept)}" if kept
             else f"no spread bin holds at least {min_count} records")
            + f"; the fullest spread bin, centred at {center!r}, holds {count} of {sum(b[2] for b in bins)} pairs"
        )
    centers_means = [(c, m) for c, m, _ in kept]
    counts = [float(n) for _, _, n in kept]
    a, b = ols_fit(centers_means, counts)
    if b <= 0:
        raise DegenerateFitError(f"rejected fit with non-positive intercept b={b}")
    res2 = math.fsum(w * (m - (a * c + b)) ** 2 for (c, m), w in zip(centers_means, counts))
    rms = math.sqrt(res2 / math.fsum(counts))
    model = CalibrationModel(a=a, b=b, source_dataset=source_dataset, bin_count=len(kept), residual_rms=rms)
    return model, kept


def mixed_draws(ids: Sequence[Iterable[str]], weights: Sequence[float], n: int, seed: int) -> list[set[str]]:
    """The ids drawn from each source for a mix of ``n`` samples, or the ids
    drawn before every source ran out.

    ``ids`` holds each source's sample ids, distinct within the source, such
    as the keys of its ground truth; ``weights`` holds the sources' weights.
    Draw ``i`` picks a source with those weights, using a substream keyed by
    (seed, i), and takes that source's next undrawn id in sorted order. When
    the picked source has none left, the draw falls back to the first source
    with ids left, in a permutation drawn from the same substream. So the mix
    is a function of the sources' ids, the weights, ``n`` and ``seed`` alone.
    """
    pools = [sorted(s) for s in ids]
    total_w = sum(weights)
    probs = [w / total_w for w in weights]
    drawn: list[set[str]] = [set() for _ in pools]
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        order = list(rng.permutation(len(pools)))
        choice = int(rng.choice(len(pools), p=probs))
        source = next((s for s in [choice] + order if len(drawn[s]) < len(pools[s])), None)
        if source is None:
            break
        drawn[source].add(pools[source][len(drawn[source])])
    return drawn


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
    """The JSON form of a model: one key per field."""
    return asdict(m)


def model_from_dict(d: dict) -> CalibrationModel:
    """Inverse of :func:`model_to_dict`. A missing ``a`` or ``b`` raises a
    KeyError, and a value that is not a JSON number (a JSON integer for
    ``bin_count``, a JSON string for ``source_dataset``) a ValueError naming
    its key."""
    count, rms = d.get("bin_count"), d.get("residual_rms")
    return CalibrationModel(
        a=float(number(d["a"], "key a")),
        b=float(number(d["b"], "key b")),
        source_dataset=string(d.get("source_dataset", "unknown"), "key source_dataset"),
        bin_count=None if count is None else integer(count, "key bin_count"),
        residual_rms=None if rms is None else float(number(rms, "key residual_rms")),
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
