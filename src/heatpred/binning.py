"""Floor-binning helpers shared by the histogram and calibration code.

All means use exact (fsum) accumulation so results do not depend on the
order records arrive in.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

# The default width of the spread bins, of calibration and of the
# uncertainty-error analysis, and the fewest entries a bin needs to be kept.
BIN_WIDTH = 1.0
MIN_COUNT = 100


def floor_bin(value: float, bin_width: float) -> int:
    return int(math.floor(value / bin_width))


def floor_histogram(values: Sequence[float], bin_width: float) -> list[tuple[float, int, float]]:
    """Counts and fractions per floor bin, as (bin_lower, count, fraction)."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if len(values) == 0:
        raise ValueError("histogram of an empty sequence")
    counts: dict[int, int] = defaultdict(int)
    for v in values:
        counts[floor_bin(v, bin_width)] += 1
    n = len(values)
    return [(b * bin_width, c, c / n) for b, c in sorted(counts.items())]


def floor_bin_means(
    pairs: Iterable[tuple[float, float]], bin_width: float, min_count: int
) -> list[tuple[float, float, int]]:
    """Mean of y per floor bin of x, as (bin_lower, mean_y, count).

    Bins with fewer than ``min_count`` entries are omitted.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    buckets: dict[int, list[float]] = defaultdict(list)
    for x, y in pairs:
        buckets[floor_bin(x, bin_width)].append(y)
    out = []
    for b in sorted(buckets):
        ys = buckets[b]
        if len(ys) < min_count:
            continue
        out.append((b * bin_width, math.fsum(ys) / len(ys), len(ys)))
    return out
