"""Sparse 2D probability grids over endpoint positions.

A heatmap discretizes the distribution of an agent's position at the
prediction horizon onto a regular grid. Cells are stored sparsely as
(row-major index, probability) pairs, always sorted by index so that every
downstream computation is independent of the storage order of the input,
and always with unit mass: a :class:`Heatmap` divides its cells by their
sum when it is built.

The spread statistic computed by :func:`uncertainty` is the trace of the
positional covariance of the distribution, in m^2. It is the quantity the
sampling radius is calibrated against.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .io import _shown, canonical_dumps, integer, number, string

# How far from unit mass the cells of a stored heatmap may sum before the
# readers count it as renormalized.
NORMALIZATION_TOL = 1e-6

# What render_mixture warns when the grid cuts the truncation disc of a mode.
CLIPPED_WARNING = "grid does not cover the full truncation disc of every mode"


class ZeroMassError(ValueError):
    """Heatmap cells carry no positive, finite probability mass."""


class EmptyRenderError(ValueError):
    """Mixture rendering produced no cells with mass."""


@dataclass(frozen=True)
class GridSpec:
    """Regular 2D grid. ``origin_x/origin_y`` locate the center of cell (0,0);
    cell (row, col) has center (origin_x + col*resolution, origin_y + row*resolution)
    and row-major index row*width + col."""

    origin_x: float
    origin_y: float
    resolution: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("origin_x", "origin_y"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name}: {value!r} is not finite")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if not math.isfinite(self.resolution):
            raise ValueError(f"resolution: {self.resolution!r} is not finite")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have at least one cell per axis")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def cell_centers(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Metric coordinates of the given row-major cell indices."""
        cols = indices % self.width
        rows = indices // self.width
        xs = self.origin_x + cols.astype(np.float64) * self.resolution
        ys = self.origin_y + rows.astype(np.float64) * self.resolution
        return xs, ys

    def bbox_center(self) -> tuple[float, float]:
        cx = self.origin_x + 0.5 * (self.width - 1) * self.resolution
        cy = self.origin_y + 0.5 * (self.height - 1) * self.resolution
        return cx, cy


@dataclass(eq=False)
class Heatmap:
    """Sparse cell probabilities on a :class:`GridSpec`, with unit mass.

    The given probabilities are divided by their sum, taken after the cells
    are sorted by index, and cells left at zero are dropped; ``mass`` keeps
    that sum. A sum that is not positive, or not finite, raises a
    :class:`ZeroMassError`. ``idx`` is int64 and strictly increasing,
    ``prob`` is float64 and positive. Instances are immutable after
    construction (arrays are marked read-only), so they are safe to share
    across workers.
    """

    grid: GridSpec
    idx: np.ndarray
    prob: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=np.int64).copy()
        prob = np.asarray(self.prob, dtype=np.float64).copy()
        if idx.ndim != 1 or prob.ndim != 1 or idx.shape != prob.shape:
            raise ValueError("idx and prob must be 1-D arrays of equal length")
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        prob = prob[order]
        if idx.size and (idx[0] < 0 or idx[-1] >= self.grid.n_cells):
            raise ValueError("cell index out of grid bounds")
        if idx.size > 1 and np.any(np.diff(idx) == 0):
            raise ValueError("duplicate cell indices")
        if not np.all(np.isfinite(prob)):
            raise ValueError("probabilities must be finite")
        if np.any(prob < 0):
            raise ValueError("probabilities must be non-negative")
        with np.errstate(over="ignore"):
            mass = float(np.sum(prob))
        if not math.isfinite(mass):
            raise ZeroMassError(
                f"cannot normalize a heatmap whose mass is not finite (its cells sum to {mass!r})"
            )
        if not mass > 0:
            raise ZeroMassError("cannot normalize a heatmap with no positive mass")
        prob = prob / mass
        keep = prob > 0
        idx = idx[keep]
        prob = prob[keep]
        idx.setflags(write=False)
        prob.setflags(write=False)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def from_cells(cls, grid: GridSpec, cells: Mapping[int, float] | Iterable[tuple[int, float]]) -> "Heatmap":
        if isinstance(cells, Mapping):
            items = list(cells.items())
        else:
            items = list(cells)
        idx = np.array([int(i) for i, _ in items], dtype=np.int64)
        prob = np.array([float(p) for _, p in items], dtype=np.float64)
        return cls(grid, idx, prob)

    def __len__(self) -> int:
        return int(self.idx.size)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        return self.grid.cell_centers(self.idx)


class UncertaintyEstimate:
    """Spread (m^2) and mean position of a heatmap distribution."""

    __slots__ = ("spread", "mean")

    def __init__(self, spread: float, mean: tuple[float, float]):
        self.spread = float(spread)
        self.mean = (float(mean[0]), float(mean[1]))

    def __repr__(self) -> str:
        return f"UncertaintyEstimate(spread={self.spread!r}, mean={self.mean!r})"


@dataclass(frozen=True)
class GaussianMode:
    weight: float
    mean_x: float
    mean_y: float
    sigma: float


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture used as a synthetic endpoint distribution."""

    modes: tuple[GaussianMode, ...]

    def __post_init__(self):
        if not self.modes:
            raise ValueError("mixture needs at least one mode")
        for m in self.modes:
            if m.weight <= 0:
                raise ValueError("mode weights must be positive")
            if m.sigma <= 0:
                raise ValueError("mode sigmas must be positive")
        total = math.fsum(m.weight for m in self.modes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mode weights must sum to 1, got {total}")


def _moments(h: Heatmap) -> tuple[float, float, float]:
    # Coordinates are shifted to the grid bounding-box center before the
    # accumulation so the quadratic sums stay small; this keeps the spread
    # stable (and bit-identical under exact-float origin shifts). The sums
    # are numpy's pairwise sums, not BLAS dot products, whose rounding
    # depends on how many threads BLAS splits them over. ``prob`` sums to 1
    # only up to rounding, so the sums are still divided by its sum.
    xs, ys = h.cell_centers()
    cx, cy = h.grid.bbox_center()
    dx = xs - cx
    dy = ys - cy
    s = float(np.sum(h.prob))
    ex = float(np.add.reduce(h.prob * dx)) / s
    ey = float(np.add.reduce(h.prob * dy)) / s
    exx = float(np.add.reduce(h.prob * (dx * dx))) / s
    eyy = float(np.add.reduce(h.prob * (dy * dy))) / s
    spread = max((exx - ex * ex) + (eyy - ey * ey), 0.0)
    return cx + ex, cy + ey, spread


def uncertainty(h: Heatmap) -> UncertaintyEstimate:
    """Spread of the distribution: sum of H(p) * squared distance to the mean.

    Equals the trace of the 2x2 positional covariance, so it is invariant
    under translation and rotation of the cell coordinates.
    """
    ex, ey, spread = _moments(h)
    return UncertaintyEstimate(spread, (ex, ey))


def render_mixture(m: MixtureSpec, g: GridSpec, truncate_sigmas: float = 4.0) -> Heatmap:
    """Discretize an isotropic-Gaussian mixture onto a grid.

    Every cell within ``truncate_sigmas * sigma`` of at least one mode center
    receives the full mixture density at its cell center times resolution^2;
    all other cells are omitted; the heatmap scales them to unit mass. Warns
    if the grid does not cover some mode's truncation disc.
    """
    if truncate_sigmas < 3.0:
        raise ValueError("truncate_sigmas must be at least 3")
    res = g.resolution
    cand: list[np.ndarray] = []
    clipped = False
    for mode in m.modes:
        reach = truncate_sigmas * mode.sigma
        lo_col = math.ceil((mode.mean_x - reach - g.origin_x) / res)
        hi_col = math.floor((mode.mean_x + reach - g.origin_x) / res)
        lo_row = math.ceil((mode.mean_y - reach - g.origin_y) / res)
        hi_row = math.floor((mode.mean_y + reach - g.origin_y) / res)
        if lo_col < 0 or lo_row < 0 or hi_col > g.width - 1 or hi_row > g.height - 1:
            clipped = True
        lo_col = max(lo_col, 0)
        lo_row = max(lo_row, 0)
        hi_col = min(hi_col, g.width - 1)
        hi_row = min(hi_row, g.height - 1)
        if lo_col > hi_col or lo_row > hi_row:
            continue
        cols = np.arange(lo_col, hi_col + 1, dtype=np.int64)
        rows = np.arange(lo_row, hi_row + 1, dtype=np.int64)
        cc, rr = np.meshgrid(cols, rows)
        xs = g.origin_x + cc.astype(np.float64) * res
        ys = g.origin_y + rr.astype(np.float64) * res
        d2 = (xs - mode.mean_x) ** 2 + (ys - mode.mean_y) ** 2
        inside = d2 <= reach * reach
        cand.append((rr[inside] * g.width + cc[inside]).ravel())
    if clipped:
        warnings.warn(CLIPPED_WARNING, stacklevel=2)
    if not cand:
        raise EmptyRenderError("no grid cell lies within the truncation disc of any mode")
    # sorted union of the discs; memory grows with the candidates, not the grid
    idx = np.concatenate(cand)
    idx.sort()
    idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
    xs, ys = g.cell_centers(idx)
    dens = np.zeros(idx.shape[0], dtype=np.float64)
    for mode in m.modes:
        d2 = (xs - mode.mean_x) ** 2 + (ys - mode.mean_y) ** 2
        var = mode.sigma * mode.sigma
        dens += (mode.weight / (2.0 * math.pi * var)) * np.exp(-0.5 * d2 / var)
    dens *= res * res
    if not float(np.sum(dens)) > 0:
        raise EmptyRenderError("rendered mixture carries no mass on the grid")
    return Heatmap(g, idx, dens)


def grid_to_dict(g: GridSpec) -> dict:
    """JSON form of a grid, as heatmap lines and scenario configs store it."""
    return {
        "origin_x": g.origin_x,
        "origin_y": g.origin_y,
        "resolution": g.resolution,
        "width": g.width,
        "height": g.height,
    }


def grid_from_dict(d: dict) -> GridSpec:
    """Inverse of :func:`grid_to_dict`. The origin and resolution must be JSON
    numbers and the width and height JSON integers; a missing key raises a
    KeyError, and a value of another type a ValueError naming its key."""
    return GridSpec(
        origin_x=float(number(d["origin_x"], "key origin_x")),
        origin_y=float(number(d["origin_y"], "key origin_y")),
        resolution=float(number(d["resolution"], "key resolution")),
        width=integer(d["width"], "key width"),
        height=integer(d["height"], "key height"),
    )


def heatmap_to_dict(h: Heatmap, sample_id: str) -> dict:
    """JSON-ready form: grid spec plus [index, probability] cell pairs."""
    return {
        "sample_id": sample_id,
        "grid": grid_to_dict(h.grid),
        "cells": [[int(i), float(p)] for i, p in zip(h.idx, h.prob)],
    }


def _prob_text(prob: np.ndarray) -> list[str]:
    """``repr`` of each probability in (0, 1], as ``list(map(repr, prob.tolist()))``.

    orjson writes the same shortest round-trip digits as ``repr``, in
    another layout below 1e-4: ``1.5e-7`` where ``repr`` pads the exponent
    to ``1.5e-07`` (1e-9 <= p < 1e-5), and ``0.00004196`` where ``repr``
    writes ``4.196e-05`` (1e-5 <= p < 1e-4). Those cells are picked by
    value: distinct doubles have distinct shortest texts, so no double below
    1e-5 prints as ``0.00001``, nor one below 1e-4 as ``0.0001``.
    """
    import orjson  # here, not at the top: --version and `import heatpred.cli` skip its import

    text = orjson.dumps(prob, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for i in np.flatnonzero((prob >= 1e-9) & (prob < 1e-5)).tolist():
        text[i] = text[i].replace("e-", "e-0")
    for i in np.flatnonzero((prob >= 1e-5) & (prob < 1e-4)).tolist():
        t = text[i]  # "0.0000" and the digits
        text[i] = f"{t[6]}.{t[7:]}e-05" if len(t) > 7 else f"{t[6]}e-05"
    return text


# Cells per join in heatmap_to_json: a str for each piece of a cell takes
# more memory than the text they join to, so only this many are held at once.
_JOIN_CELLS = 2048


def heatmap_to_json(h: Heatmap, sample_id: str) -> str:
    """``canonical_dumps(heatmap_to_dict(h, sample_id))``, byte for byte, without the dict.

    The cells text is joined, ``_JOIN_CELLS`` cells at a time, from four
    pieces per cell: ``],[``, the index as orjson writes an integer, which is
    how the json encoder writes it too, a comma, and the probability's
    ``repr`` from :func:`_prob_text`, which is how the json encoder writes a
    float. "cells" sorts before "grid" and "sample_id", so it comes first.
    """
    import orjson  # here, not at the top: --version and `import heatpred.cli` skip its import

    rest = canonical_dumps({"grid": grid_to_dict(h.grid), "sample_id": sample_id})
    cells = []
    for start in range(0, len(h), _JOIN_CELLS):
        idx, prob = h.idx[start : start + _JOIN_CELLS], h.prob[start : start + _JOIN_CELLS]
        parts = ["],[", None, ",", None] * len(idx)
        parts[1::4] = orjson.dumps(idx, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        parts[3::4] = _prob_text(prob)
        cells.append("".join(parts))
    # the first cell opens the list with "[" instead of "],["
    cells[0] = cells[0][2:]
    return '{"cells":[' + "".join(cells) + "]]," + rest[1:]


def _bad_cell(cells) -> str:
    """What is wrong with the first bad cell of a record's ``cells``."""
    if not isinstance(cells, list):
        return f"cells: must be a list, not a {type(cells).__name__}"
    for j, c in enumerate(cells):
        where = f"cells[{j}]"
        if not isinstance(c, list) or len(c) != 2:
            return f"{where}: not an [index, probability] pair"
        try:
            i = integer(c[0], f"{where} index")
            number(c[1], f"{where} probability")
        except ValueError as e:
            return str(e)
        if not -(2**63) <= i < 2**63:
            return f"{where} index: {_shown(i)} does not fit in 64 bits"
    return "cells: indices must be JSON integers and probabilities JSON numbers"


def _holds_bool(cells, values: np.ndarray, col: int) -> bool:
    """Whether column ``col`` of ``cells``, read into ``values``, holds a JSON
    true or false, which read as 1 and 0; only the entries equal to 0 or 1
    are looked at."""
    suspects = np.flatnonzero((values == 0) | (values == 1)).tolist()
    return any(isinstance(cells[j][col], bool) for j in suspects)


def _cell_arrays(cells) -> tuple[np.ndarray, np.ndarray]:
    """The index and probability arrays of the ``cells`` of a heatmap record.

    Each cell must be an [index, probability] pair of a JSON integer and a
    JSON number. Unpacking the pairs refuses cells of another length, and
    the typed arrays of the ``array`` module refuse, as they convert, an
    index that is not an integer within 64 bits and a probability that is
    not a number, with no pass of their own. A bad cell raises a ValueError
    naming the first one.
    """
    try:
        idx = np.frombuffer(array("q", [i for i, _ in cells]), dtype=np.int64)
        prob = np.frombuffer(array("d", [p for _, p in cells]), dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(_bad_cell(cells)) from None
    if _holds_bool(cells, idx, 0) or _holds_bool(cells, prob, 1):
        raise ValueError(_bad_cell(cells))
    return idx, prob


def heatmap_from_dict(d: dict) -> tuple[str, Heatmap]:
    """Parse the JSON form; the heatmap has unit mass and its ``mass`` is the sum of the stored cells."""
    return string(d["sample_id"], "sample_id"), Heatmap(grid_from_dict(d["grid"]), *_cell_arrays(d["cells"]))
