"""Heatmap sets and their ground truth, read through the pool: how a heatmap
file is cut into byte ranges for the workers, and the checks of each set."""

from __future__ import annotations

from pathlib import Path

from .heatmap import NORMALIZATION_TOL, heatmap_from_dict
from .io import finite, jsonl_ranges, numbers, read_jsonl, string
from .pool import map_ordered

# Byte ranges per worker: several, since free workers claim the next range,
# and small ranges bound how long the last range claimed can run on after
# the others are done.
RANGES_PER_WORKER = 4


def _ground_truth_row(d: dict) -> tuple[str, tuple[float, float]]:
    gt = numbers(d["gt"], "gt", 2, item=finite)
    return string(d["sample_id"], "sample_id"), gt


def _load_ground_truth(path: Path) -> dict[str, tuple[float, float]]:
    """The ground truth by sample id; the first bad line raises."""
    gts: dict[str, tuple[float, float]] = {}
    for r in read_jsonl(path, _ground_truth_row):
        if isinstance(r, ValueError):
            raise r
        sid, gt = r
        if sid in gts:
            raise ValueError(f"{path}: duplicate sample id {sid}")
        gts[sid] = gt
    if not gts:
        raise ValueError(f"{path}: no ground truth entries")
    return gts


def _read_range(state, task) -> tuple[list[tuple[str, float, object]], str | None]:
    """Run ``work(sid, heatmap, ground truth)`` on each heatmap line that starts in one byte range.

    ``state`` is ``(sets, work)``, with the (heatmap path, ground truth by
    sample id or None) of every set; ``task`` is ``(set index, start, end)``.
    Returns ``(rows, None)`` with one (sample id, stored mass, result) row
    per line, in file order, or, at the first line that fails,
    ``([], its error message)``. With ground truth ``gts`` None every heatmap
    gets ``gt`` None; otherwise a heatmap whose id has no ground truth gets
    no work and the result None, and the parent's id match fails.
    """
    sets, work = state
    i, start, end = task
    path, gts = sets[i]

    def row(d: dict) -> tuple[str, float, object]:
        sid, h = heatmap_from_dict(d)
        if gts is None:
            return sid, h.mass, work(sid, h, None)
        gt = gts.get(sid)
        return sid, h.mass, None if gt is None else work(sid, h, gt)

    rows = []
    for r in read_jsonl(path, row, start, end):
        if isinstance(r, ValueError):
            return [], str(r)
        rows.append(r)
    return rows, None


def read_sets(sets: list[tuple[Path, Path | None]], work, workers: int, select=None) -> tuple[list, dict]:
    """``work(sid, heatmap, ground truth)`` on every heatmap of each (heatmaps,
    ground truth or None) set, in one pool of ``workers`` workers.

    ``select``, when given, is called with the ground truth by sample id of
    every set ({} for a set whose ground truth failed to load) before any
    heatmap is read, and returns the ids of each set whose heatmaps get
    ``work``. The other heatmaps are still parsed and checked, and get the
    result None.

    Returns the results and the input mass table. Per set, the results hold
    the list of its heatmaps' results in sample-id order, without the ids
    (``work`` returns an id if a caller needs it), or the ValueError the set
    failed with. A set fails on, in this order: its first failing heatmap
    line by file position, no heatmaps, duplicate ids, its ground truth, and
    ids without a match on the other side. The table holds, under
    ``str(heatmaps)`` of each set that gets past the duplicate ids, its
    ground truth checked or not, the largest |mass - 1| before
    renormalization and how many heatmaps were further than
    ``NORMALIZATION_TOL`` from unit mass.

    Workers read their byte ranges themselves, and each set's path, ground
    truth and ``work`` reach them once, as the pool's state; a task is only
    ``(set index, start, end)``. So no heatmap crosses a process boundary,
    and the ground truth does not cross it once per range. The worker count
    changes only how the files are split, and every check is
    order-independent, so results do not depend on it.
    """
    masses = {}
    gts, gt_errors = [], {}
    for i, (_, gp) in enumerate(sets):
        try:
            gts.append(None if gp is None else _load_ground_truth(gp))
        except ValueError as e:
            gts.append({})
            gt_errors[i] = e
    parts = workers * RANGES_PER_WORKER if workers > 1 else 1
    ranges = [jsonl_ranges(hp, parts) for hp, _ in sets]
    # a heatmap whose id the workers find no ground truth for gets no work
    kept = gts if select is None else [{sid: g[sid] for sid in ids} for g, ids in zip(gts, select(gts))]
    state = ([(hp, g) for (hp, _), g in zip(sets, kept)], work)
    tasks = [(i, a, b) for i, rs in enumerate(ranges) for a, b in rs]
    results = iter(list(map_ordered(_read_range, tasks, workers, state)))
    out = []
    for i, ((hp, gp), g, rs) in enumerate(zip(sets, gts, ranges)):
        done = [next(results) for _ in rs]
        failures = [failure for _, failure in done if failure is not None]
        rows = [row for range_rows, _ in done for row in range_rows]
        try:
            if failures:
                raise ValueError(failures[0])
            if not rows:
                raise ValueError(f"{hp}: no heatmaps")
            if len({sid for sid, _, _ in rows}) != len(rows):
                raise ValueError(f"{hp}: duplicate sample ids")
            errors = [abs(mass - 1.0) for _, mass, _ in rows]
            masses[str(hp)] = {
                "max_abs_mass_error": max(errors),
                "n_above_tol": sum(error > NORMALIZATION_TOL for error in errors),
            }
            if i in gt_errors:
                raise gt_errors[i]
            offenders = [] if g is None else sorted({sid for sid, _, _ in rows}.symmetric_difference(g))
            if offenders:
                raise ValueError(
                    f"sample ids differ between {hp} and {gp} "
                    f"({len(offenders)} offenders; first: {', '.join(offenders[:10])})"
                )
        except ValueError as e:
            out.append(e)
        else:
            out.append([result for _, _, result in sorted(rows, key=lambda row: row[0])])
    return out, masses
