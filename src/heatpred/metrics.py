"""Multimodal endpoint metrics: minimum final displacement error and miss rate.

minFDE over the top-l endpoints and the 2 m miss rate are the standard
scores for multimodal endpoint prediction. Aggregation uses exact (fsum)
accumulation so dataset means do not depend on record order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .binning import BIN_WIDTH, MIN_COUNT, floor_bin_means
from .io import finite, write_csv
from .sampling import PredictionSet

MISS_THRESHOLD_M = 2.0


class EmptyPredictionError(ValueError):
    """Prediction set has no endpoints."""


@dataclass(eq=False)
class EvalRecord:
    sample_id: str
    uncertainty: float
    radius_used: float
    fde_per_l: list[float]
    miss_per_l: list[bool]


@dataclass(eq=False)
class AggregateReport:
    count: int
    min_fde_l: list[float]
    mr_l: list[float]


def min_fde(p: PredictionSet, gt: tuple[float, float], l: int) -> float:
    """Smallest distance from gt to any of the top-l endpoints.

    ``l`` clamps to the number of available endpoints.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    if not p.endpoints:
        raise EmptyPredictionError("prediction set has no endpoints")
    gx, gy = gt
    return min(math.hypot(e.x - gx, e.y - gy) for e in p.endpoints[: min(l, len(p.endpoints))])


def is_miss(p: PredictionSet, gt: tuple[float, float], l: int, threshold: float = MISS_THRESHOLD_M) -> bool:
    """True when every top-l endpoint lies strictly farther than the threshold."""
    return min_fde(p, gt, l) > threshold


def make_eval_record(
    sample_id: str,
    p: PredictionSet,
    gt: tuple[float, float],
    k: int,
    threshold: float = MISS_THRESHOLD_M,
) -> EvalRecord:
    """Per-sample record with minFDE and miss flags for l = 1..k."""
    if not p.endpoints:
        raise EmptyPredictionError(f"sample {sample_id}: prediction set has no endpoints")
    gx, gy = gt
    dists = [math.hypot(e.x - gx, e.y - gy) for e in p.endpoints]
    fde = []
    best = math.inf
    for l in range(1, k + 1):
        if l <= len(dists):
            best = min(best, dists[l - 1])
        fde.append(best)
    spread = p.uncertainty.spread if p.uncertainty is not None else float("nan")
    return EvalRecord(
        sample_id=sample_id,
        uncertainty=spread,
        radius_used=p.radius_used,
        fde_per_l=fde,
        miss_per_l=[d > threshold for d in fde],
    )


def aggregate(records: Sequence[EvalRecord]) -> AggregateReport:
    """Dataset means of minFDE_l and miss fractions, order-insensitive."""
    if not records:
        raise ValueError("aggregate: no records")
    k = len(records[0].fde_per_l)
    for r in records:
        if len(r.fde_per_l) != k or len(r.miss_per_l) != k:
            raise ValueError("records disagree on the number of ranks")
    n = len(records)
    min_fde_l = [math.fsum(r.fde_per_l[j] for r in records) / n for j in range(k)]
    mr_l = [sum(1 for r in records if r.miss_per_l[j]) / n for j in range(k)]
    return AggregateReport(count=n, min_fde_l=min_fde_l, mr_l=mr_l)


def bin_by_uncertainty(
    records: Iterable[EvalRecord], bin_width: float = BIN_WIDTH, min_count: int = MIN_COUNT
) -> list[tuple[float, float, int]]:
    """Mean minFDE_1 per uncertainty floor bin, as (bin_lower, mean, count).

    Bins with fewer than ``min_count`` records are omitted, which suppresses
    noisy tail bins when plotting error against uncertainty.
    """
    pairs = [(r.uncertainty, r.fde_per_l[0]) for r in records]
    return floor_bin_means(pairs, bin_width, min_count)


def write_records_csv(path, records: Sequence[EvalRecord], cfg_hash: str) -> None:
    """One row per record, with :func:`heatpred.io.write_csv`."""
    if not records:
        raise ValueError("no records to write")
    ks = range(1, len(records[0].fde_per_l) + 1)
    header = ["sample_id", "uncertainty", "radius_used"] + [f"{m}_{l}" for m in ("fde", "miss") for l in ks]
    rows = (
        [r.sample_id, float(r.uncertainty), float(r.radius_used)]
        + [float(v) for v in r.fde_per_l]
        + [int(v) for v in r.miss_per_l]
        for r in records
    )
    write_csv(path, header, rows, cfg_hash)


def read_records_csv(path) -> list[EvalRecord]:
    """Records as :func:`write_records_csv` writes them. A missing column or a
    value that does not parse, or is not finite, raises a ValueError naming
    the file and the sample."""
    records = []
    with open(path, newline="") as f:
        lines = (ln for ln in f if not ln.startswith("#"))
        reader = csv.DictReader(lines)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty records file")
        k = max(sum(c.startswith("fde_") for c in reader.fieldnames), 1)
        ks = range(1, k + 1)
        columns = ["sample_id", "uncertainty", "radius_used"] + [f"{m}_{l}" for m in ("fde", "miss") for l in ks]
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing column {missing[0]}")
        for row in reader:
            try:
                records.append(
                    EvalRecord(
                        sample_id=row["sample_id"],
                        uncertainty=finite(float(row["uncertainty"]), "uncertainty"),
                        radius_used=finite(float(row["radius_used"]), "radius_used"),
                        fde_per_l=[finite(float(row[f"fde_{l}"]), f"fde_{l}") for l in ks],
                        miss_per_l=[row[f"miss_{l}"] == "1" for l in ks],
                    )
                )
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path} (sample {row['sample_id']}): {e}") from None
    return records


def report_to_dict(rep: AggregateReport) -> dict:
    return {"count": rep.count, "min_fde_l": rep.min_fde_l, "mr_l": rep.mr_l}
