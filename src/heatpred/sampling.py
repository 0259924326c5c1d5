"""Endpoint extraction from heatmaps by greedy non-maximum suppression.

The sampler repeatedly picks the highest-probability live cell, emits its
center as an endpoint scored with the live mass inside the suppression
radius, and removes that mass. The radius is either fixed or derived from
the heatmap's spread through an affine calibration model, which is how
prediction diversity adapts to model uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

import numpy as np

from . import kernels
from .heatmap import Heatmap, UncertaintyEstimate, uncertainty

if TYPE_CHECKING:
    from .calibration import CalibrationModel


class Endpoint(NamedTuple):
    x: float
    y: float
    score: float


@dataclass(eq=False)
class PredictionSet:
    """Scored endpoint modalities, sorted by descending score.

    Scores are the probability mass each endpoint absorbed during
    suppression, so they sum to at most 1. Any two endpoints are at least
    ``radius_used`` apart.
    """

    endpoints: list[Endpoint]
    radius_used: float
    uncertainty: Optional[UncertaintyEstimate] = None


@dataclass(frozen=True)
class FixedRadius:
    r: float


@dataclass(frozen=True)
class AdaptiveRadius:
    model: "CalibrationModel"


@dataclass(frozen=True)
class SamplingConfig:
    k: int = 6
    radius_mode: Union[FixedRadius, AdaptiveRadius] = FixedRadius(1.5)
    r_min: float = 0.1
    r_max: float = 10.0

    def __post_init__(self):
        # each message starts with the field it rejects
        if self.k < 1:
            raise ValueError(f"k: must be at least 1, got {self.k!r}")
        if not self.r_min > 0:
            raise ValueError(f"r_min: must be positive, got {self.r_min!r}")
        if not math.isfinite(self.r_min):  # an infinite r_min would clamp every adaptive radius to it
            raise ValueError(f"r_min: must be finite, got {self.r_min!r}")
        if not self.r_max >= self.r_min:
            raise ValueError(f"r_max: must be at least r_min ({self.r_min!r}), got {self.r_max!r}")


def nms_sample(h: Heatmap, k: int, r: float) -> PredictionSet:
    """Extract up to ``k`` endpoints with suppression radius ``r``.

    Peak choice breaks probability ties toward the lowest row-major index,
    which together with index-sorted cell storage makes the output a pure
    function of the heatmap content. Fewer than ``k`` endpoints are
    returned when the mass runs out first.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if r <= 0:
        raise ValueError("radius must be positive")
    xs, ys = h.cell_centers()
    peaks, scores = kernels.nms_kernel(xs, ys, h.prob, r, k)
    order = np.argsort(-scores, kind="stable")
    endpoints = [
        Endpoint(float(xs[peaks[j]]), float(ys[peaks[j]]), float(scores[j])) for j in order
    ]
    return PredictionSet(endpoints=endpoints, radius_used=float(r))


def adaptive_radius(
    spread: float, model: "CalibrationModel", r_min: float = SamplingConfig.r_min, r_max: float = SamplingConfig.r_max
) -> float:
    """Affine spread-to-radius map, clamped to [r_min, r_max]."""
    if spread < 0:
        raise ValueError("spread must be non-negative")
    return float(min(max(model.a * spread + model.b, r_min), r_max))


def sample_with_uncertainty(
    h: Heatmap, cfg: SamplingConfig = SamplingConfig(), est: Optional[UncertaintyEstimate] = None
) -> PredictionSet:
    """Estimate spread (unless ``est`` gives it), resolve the radius per config,
    then run the sampler."""
    if est is None:
        est = uncertainty(h)
    if isinstance(cfg.radius_mode, FixedRadius):
        r = cfg.radius_mode.r
    else:
        r = adaptive_radius(est.spread, cfg.radius_mode.model, cfg.r_min, cfg.r_max)
    ps = nms_sample(h, cfg.k, r)
    ps.uncertainty = est
    return ps


def prediction_to_dict(ps: PredictionSet, sample_id: str) -> dict:
    return {
        "sample_id": sample_id,
        "radius_used": ps.radius_used,
        "uncertainty": None if ps.uncertainty is None else ps.uncertainty.spread,
        "endpoints": [[e.x, e.y, e.score] for e in ps.endpoints],
    }

