"""Deterministic synthetic scenario generator.

Produces (heatmap, ground-truth endpoint) pairs from random isotropic
Gaussian mixtures. The ground truth is drawn from the same continuous
mixture the heatmap discretizes, so the heatmap is a perfectly calibrated
predictor and any evaluation differences come from the sampling and
calibration machinery, not model error.

Every scenario is a pure function of (seed, index): each index gets its own
counter-derived random substream, so generation order and parallel fan-out
do not change the data.
"""

from __future__ import annotations

import shutil
import tempfile
import warnings
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .heatmap import (
    CLIPPED_WARNING,
    GaussianMode,
    GridSpec,
    Heatmap,
    MixtureSpec,
    grid_from_dict,
    grid_to_dict,
    heatmap_to_json,
    render_mixture,
)
from .io import canonical_dumps, config_hash, integer, number, numbers, staged_files, write_json
from .pool import map_ordered


def default_grid() -> GridSpec:
    # covers the default mean region plus a 4-sigma reach of the widest mode
    return GridSpec(origin_x=-25.0, origin_y=-45.0, resolution=0.5, width=224, height=184)


@dataclass(frozen=True)
class ScenarioConfig:
    """Distribution the scenario generator draws mixtures from."""

    n_modes_range: tuple[int, int] = (1, 4)
    mean_region: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 60.0), (-20.0, 20.0))
    sigma_range: tuple[float, float] = (0.5, 6.0)
    weight_floor: float = 0.1
    grid: GridSpec = field(default_factory=default_grid)
    seed: int = 0
    truncate_sigmas: float = 4.0

    def __post_init__(self):
        # each message starts with the field it rejects
        lo, hi = self.n_modes_range
        if not 1 <= lo <= hi:
            raise ValueError("n_modes_range: must be a non-empty range of counts >= 1")
        if self.sigma_range[0] <= 0 or self.sigma_range[1] < self.sigma_range[0]:
            raise ValueError("sigma_range: must be positive and non-empty")
        if self.weight_floor < 0 or self.weight_floor * hi > 1:
            raise ValueError(f"weight_floor: must be in [0, 1 / {hi}], got {self.weight_floor!r}")
        (x0, x1), (y0, y1) = self.mean_region
        if x1 < x0 or y1 < y0:
            raise ValueError("mean_region: must be a non-empty rectangle")
        if not self.truncate_sigmas >= 3.0:
            raise ValueError("truncate_sigmas: must be at least 3")

    def to_dict(self) -> dict:
        return {
            "n_modes_range": list(self.n_modes_range),
            "mean_region": [list(self.mean_region[0]), list(self.mean_region[1])],
            "sigma_range": list(self.sigma_range),
            "weight_floor": self.weight_floor,
            "grid": grid_to_dict(self.grid),
            "seed": self.seed,
            "truncate_sigmas": self.truncate_sigmas,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Inverse of :meth:`to_dict`; absent keys keep their defaults. A value
        that does not parse, or that the checks reject, raises a ValueError
        naming its key."""
        values = {key: read(d[key], f"config key {key}") for key, read in _FIELD_READERS.items() if key in d}
        try:
            return cls(**values)
        except ValueError as e:
            raise ValueError(f"config key {e}") from None


def _grid(value, where: str) -> GridSpec:
    try:
        return grid_from_dict(value)
    except (KeyError, TypeError, ValueError) as e:
        why = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ValueError(f"{where}: {why}") from None


# How ScenarioConfig.from_dict reads each key of the JSON form: counts and the
# seed are JSON integers, the rest JSON numbers, and the grid a grid object.
_FIELD_READERS = {
    "n_modes_range": lambda v, where: numbers(v, where, 2, integer),
    "mean_region": lambda v, where: numbers(v, where, 2, lambda pair, w: numbers(pair, w, 2)),
    "sigma_range": lambda v, where: numbers(v, where, 2),
    "weight_floor": number,
    "grid": _grid,
    "seed": lambda v, where: integer(v, where, at_least=0),
    "truncate_sigmas": number,
}


def _rng_for(cfg: ScenarioConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, index)))


def draw_mixture(cfg: ScenarioConfig, index: int) -> tuple[MixtureSpec, tuple[float, float]]:
    """Draw the mixture and a ground-truth endpoint for one scenario index."""
    rng = _rng_for(cfg, index)
    lo, hi = cfg.n_modes_range
    n = int(rng.integers(lo, hi + 1))
    raw = rng.dirichlet(np.ones(n))
    weights = cfg.weight_floor + (1.0 - n * cfg.weight_floor) * raw
    (x0, x1), (y0, y1) = cfg.mean_region
    means_x = rng.uniform(x0, x1, n)
    means_y = rng.uniform(y0, y1, n)
    sigmas = rng.uniform(cfg.sigma_range[0], cfg.sigma_range[1], n)
    modes = tuple(
        GaussianMode(weight=float(w / weights.sum()), mean_x=float(mx), mean_y=float(my), sigma=float(s))
        for w, mx, my, s in zip(weights, means_x, means_y, sigmas)
    )
    mix = MixtureSpec(modes)
    pick = int(rng.choice(n, p=np.array([m.weight for m in modes])))
    offset = rng.standard_normal(2) * modes[pick].sigma
    gt = (modes[pick].mean_x + float(offset[0]), modes[pick].mean_y + float(offset[1]))
    return mix, gt


def sample_scenario(cfg: ScenarioConfig, index: int) -> tuple[Heatmap, tuple[float, float], MixtureSpec]:
    """Render scenario ``index``: returns (heatmap, gt endpoint, mixture)."""
    mix, gt = draw_mixture(cfg, index)
    h = render_mixture(mix, cfg.grid, cfg.truncate_sigmas)
    return h, gt, mix


def scenario_id(index: int) -> str:
    return f"synth-{index:06d}"


# Scenarios per index range. Scenario cost varies a lot with the sigmas and
# the mode count, so many small ranges keep the workers finishing together.
SCENARIOS_PER_RANGE = 2


def _encode_range(state: tuple[ScenarioConfig, Path], task: tuple[int, int]) -> tuple[int, str, str | None]:
    """Write the heatmap lines of the scenarios of one index range, one by one,
    to the range's file in the staging directory.

    ``state`` is the config and the staging directory, ``task`` the range's
    ``(start, stop)``. Returns ``(clipped, ground-truth lines, None)``, where
    ``clipped`` counts the scenarios with a mode whose truncation disc the
    grid cuts; or, at the first scenario that fails, ``(0, "", error)``
    naming it.
    """
    cfg, staging = state
    start, stop = task
    clipped, gt_lines = 0, []
    # opened as io.staged_files opens the JSONL files, so the copy keeps its bytes
    with open(staging / f"{start}.part", "w", newline="") as hf, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in range(start, stop):
            sid = scenario_id(i)
            try:
                h, gt, _ = sample_scenario(cfg, i)
            except ValueError as e:
                return 0, "", f"{sid}: {e}"
            clipped += any(str(w.message) == CLIPPED_WARNING for w in caught)
            caught.clear()
            hf.write(heatmap_to_json(h, sid) + "\n")
            gt_lines.append(canonical_dumps({"sample_id": sid, "gt": [gt[0], gt[1]]}) + "\n")
    return clipped, "".join(gt_lines), None


def generate_dataset(
    cfg: ScenarioConfig, n: int, out_dir, workers: int = 1, stats: dict | None = None
) -> dict[str, Path]:
    """Write ``n`` scenarios as heatmap and ground-truth JSONL plus a manifest.

    Contiguous index ranges of scenarios are rendered by ``workers`` forked
    processes when it is more than 1. Each range's heatmap lines go to a file
    in a temporary directory under ``out_dir`` and its ground-truth lines come
    back with its result; the range files are copied into the heatmap JSONL
    in index order, so the files are byte-identical for every worker count
    and every rerun, and no range's heatmap text passes through this
    process's memory. The temporary directory is removed however the run
    ends. The failing scenario of lowest index raises a ValueError that names
    it, and then neither JSONL file is written (see :func:`io.staged_files`).
    ``render_mixture``'s warning about a grid that cuts a mode's truncation
    disc is not shown; ``stats["clipped_scenarios"]``, when ``stats`` is
    given, counts the scenarios it was raised for.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "heatmaps": out / "heatmaps.jsonl",
        "ground_truth": out / "ground_truth.jsonl",
        "manifest": out / "manifest.json",
    }
    cfg_dict = cfg.to_dict()
    tasks = [(a, min(a + SCENARIOS_PER_RANGE, n)) for a in range(0, n, SCENARIOS_PER_RANGE)]
    clipped = 0
    try:
        with (
            staged_files(paths["heatmaps"], paths["ground_truth"]) as (hf, gf),
            tempfile.TemporaryDirectory(dir=out) as tmp,
        ):
            staging = Path(tmp)
            # closing shuts the pool down before the directory is removed
            with closing(map_ordered(_encode_range, tasks, workers, (cfg, staging))) as results:
                for (start, _), (range_clipped, gt_lines, error) in zip(tasks, results):
                    if error is not None:
                        raise ValueError(error)
                    part = staging / f"{start}.part"
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, hf.buffer)
                    part.unlink()
                    gf.write(gt_lines)
                    clipped += range_clipped
        manifest = {"config": cfg_dict, "config_hash": config_hash(cfg_dict), "n": n}
        write_json(paths["manifest"], manifest)
    except OSError as e:
        raise OSError(f"failed writing dataset under {out}: {e}") from e
    if stats is not None:
        stats["clipped_scenarios"] = clipped
    return paths
