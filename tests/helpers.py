"""Shared test utilities: independent oracles and dataset builders."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

import heatpred
from heatpred.heatmap import GridSpec, Heatmap
from heatpred.io import _shown
from heatpred.trajectory import Sample, Trajectory


def child_env(**overrides: str) -> dict[str, str]:
    """This environment with ``overrides`` and the tested ``heatpred`` first on
    PYTHONPATH, for a Python subprocess that imports it."""
    paths = [str(Path(heatpred.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, **overrides, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def json_read_jsonl(path, parse) -> list:
    """What ``heatpred.io.read_jsonl(path, parse)`` yields, read by Python's
    json module alone, line by line: ``parse(record)``, or a ValueError
    ``path:line (sample <id>): <reason>`` for a line that fails."""
    out = []
    with open(path, "rb") as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            record = None
            try:
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as e:
                    raise ValueError(f"invalid JSON ({e})") from None
                if not isinstance(record, dict):
                    raise ValueError("record must be a JSON object")
                out.append(parse(record))
            except (KeyError, IndexError, TypeError, ValueError, OverflowError) as e:
                sid = record.get("sample_id", record.get("id")) if isinstance(record, dict) else None
                who = "" if sid is None else f" (sample {sid if isinstance(sid, str) else _shown(sid)})"
                why = f"missing key {e}" if isinstance(e, KeyError) else str(e)
                out.append(ValueError(f"{path}:{number}{who}: {why}"))
    return out


def dense_from_heatmap(h: Heatmap) -> np.ndarray:
    dense = np.zeros((h.grid.height, h.grid.width), dtype=np.float64)
    rows = h.idx // h.grid.width
    cols = h.idx % h.grid.width
    dense[rows, cols] = h.prob
    return dense


def dense_nms_oracle(grid: GridSpec, dense: np.ndarray, r: float, k: int):
    """Brute-force greedy suppression on a dense grid.

    Independent bookkeeping from the sparse kernels (dense array, bounding
    box scan per step) but the same published arithmetic: squared-distance
    predicate, Kahan mass accumulation in row-major order, stable
    score-descending output order.
    """
    dense = dense.copy()
    res = grid.resolution
    reach = int(math.floor(r / res)) + 1
    r2 = r * r
    emitted = []
    for _ in range(k):
        flat = int(np.argmax(dense))
        prow, pcol = divmod(flat, grid.width)
        if dense[prow, pcol] <= 0.0:
            break
        px = grid.origin_x + pcol * res
        py = grid.origin_y + prow * res
        s = 0.0
        c = 0.0
        for row in range(max(0, prow - reach), min(grid.height, prow + reach + 1)):
            for col in range(max(0, pcol - reach), min(grid.width, pcol + reach + 1)):
                p = dense[row, col]
                if p > 0.0:
                    dx = (grid.origin_x + col * res) - px
                    dy = (grid.origin_y + row * res) - py
                    if dx * dx + dy * dy <= r2:
                        y = p - c
                        t = s + y
                        c = (t - s) - y
                        s = t
                        dense[row, col] = 0.0
        emitted.append((px, py, s))
    order = sorted(range(len(emitted)), key=lambda i: -emitted[i][2])
    return [emitted[i] for i in order]


def random_heatmap(rng: np.random.Generator, grid: GridSpec, n_cells: int) -> Heatmap:
    n = min(n_cells, grid.n_cells)
    idx = rng.choice(grid.n_cells, size=n, replace=False).astype(np.int64)
    prob = rng.random(n) ** 3 + 1e-9
    return Heatmap(grid, idx, prob)


SWEEP_CASES = ("random", "tied", "fewer_cells_than_k", "prefix_doubles")


def sweep_case(name: str, rng: np.random.Generator) -> tuple[Heatmap, int]:
    """(heatmap, k) inputs that reach each branch of the shared-sort radius sweep."""
    grid = GridSpec(-8.0, -8.0, 0.5, 48, 48)
    if name == "random":
        return random_heatmap(rng, grid, 400), 6
    if name == "tied":
        # three cells above 297 equal ones: every radius picks peaks among
        # ties, and the initial prefix ends inside the tied level
        idx = rng.choice(grid.n_cells, size=300, replace=False)
        prob = np.ones(300)
        prob[:3] = 2.0
        return Heatmap(grid, idx, prob), 6
    if name == "fewer_cells_than_k":
        return Heatmap.from_cells(grid, {5: 0.5, 700: 0.3, 2000: 0.2}), 6
    if name == "prefix_doubles":
        # every cell populated around one smooth bump: at large radii the
        # first peak suppresses more than the initial prefix of sorted cells
        xs, ys = grid.cell_centers(np.arange(grid.n_cells))
        prob = np.exp(-(xs * xs + ys * ys) / 50.0) + 1e-3 * rng.random(grid.n_cells)
        return Heatmap(grid, np.arange(grid.n_cells), prob), 6
    raise ValueError(f"unknown sweep case {name!r}")


def covariance_trace_oracle(h: Heatmap):
    """Two-pass covariance of the cell distribution: returns (mean, trace)."""
    xs, ys = h.cell_centers()
    w = h.prob / h.prob.sum()
    ex = float(np.sum(w * xs))
    ey = float(np.sum(w * ys))
    cxx = float(np.sum(w * (xs - ex) ** 2))
    cyy = float(np.sum(w * (ys - ey) ** 2))
    return (ex, ey), cxx + cyy


def straight_sample(
    speed: float,
    sample_id: str = "s0",
    dataset: str = "synthetic",
    heading: float = 0.0,
) -> Sample:
    """Standardized straight-line sample with the given displacement speed."""
    rate = 10.0
    tpast = -1.0 + np.arange(11) / rate
    tfut = (np.arange(30) + 1) / rate
    vx = speed * math.cos(heading)
    vy = speed * math.sin(heading)

    def track(ts):
        return np.column_stack([ts, vx * ts, vy * ts])

    return Sample(
        id=sample_id,
        dataset=dataset,
        past=Trajectory(track(tpast)),
        future=Trajectory(track(tfut)),
    )


# ---------------------------------------------------------------------------
# planted calibration dataset


def _planted_one(target_u: float, slope: float, intercept: float, sweep_max: float = 5.0):
    """Build one heatmap whose sweep-optimal radius is the grid value nearest
    slope * spread + intercept.

    Layout: anchor peak at the origin, a five-cell decoy chain at height L
    spaced rho apart, and a low-probability ground-truth cell at (-6, -4).
    With six modalities, radii below rho burn every pick on the anchor and
    the chain (error > 0); radii of at least rho collapse the chain so the
    ground-truth cell gets picked (error exactly 0). All inter-cluster
    distances exceed the sweep maximum so no other transition occurs. The
    chain height L is bisected so the measured spread hits ``target_u``,
    and rho is set to (grid-rounded target radius) - cell size, making the
    smallest zero-error sweep value the plant target.
    """
    res = 0.05
    grid = GridSpec(origin_x=-8.0, origin_y=-6.0, resolution=res, width=360, height=1000)
    decoy_probs = (0.105, 0.104, 0.103, 0.102, 0.101)

    def cell(x, y):
        col = round((x - grid.origin_x) / res)
        row = round((y - grid.origin_y) / res)
        return row * grid.width + col, grid.origin_x + col * res, grid.origin_y + row * res

    def build(length, rho):
        cells = []
        i0, x0, y0 = cell(0.0, 0.0)
        cells.append((i0, 0.33, x0, y0))
        for j, xd in enumerate((-2 * rho, -rho, 0.0, rho, 2 * rho)):
            idx, x, y = cell(xd, length)
            cells.append((idx, decoy_probs[j], x, y))
        ig, gx, gy = cell(-6.0, -4.0)
        cells.append((ig, 0.05, gx, gy))
        return cells, (gx, gy)

    def spread(cells):
        w = np.array([c[1] for c in cells])
        w = w / w.sum()
        xs = np.array([c[2] for c in cells])
        ys = np.array([c[3] for c in cells])
        ex = float(np.sum(w * xs))
        ey = float(np.sum(w * ys))
        return float(np.sum(w * (xs - ex) ** 2) + np.sum(w * (ys - ey) ** 2))

    rho = 1.0
    length = 10.0
    for _ in range(4):
        lo, hi = 5.5, 42.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if spread(build(mid, rho)[0]) < target_u:
                lo = mid
            else:
                hi = mid
        length = 0.5 * (lo + hi)
        u = spread(build(length, rho)[0])
        r_star = slope * u + intercept
        g_star = min(max(round(r_star * 10) / 10, 0.2), sweep_max)
        rho = g_star - res
    cells, gt = build(length, rho)
    idx = np.array([c[0] for c in cells], dtype=np.int64)
    prob = np.array([c[1] for c in cells], dtype=np.float64)
    return Heatmap(grid, idx, prob), gt


def planted_calibration_dataset(
    n: int, slope: float = 0.02, intercept: float = 0.9, u_lo: float = 15.0, u_hi: float = 150.0
):
    """(heatmap, gt) pairs whose optimal radius tracks slope*spread+intercept."""
    targets = np.linspace(u_lo, u_hi, n)
    return [_planted_one(float(u), slope, intercept) for u in targets]
