"""Greedy peak-suppression kernel over sparse probability grids.

The sampler's numeric contract lives here, and the dense brute-force oracle
in ``tests/helpers.py`` pins it bit-for-bit:

- the next peak is the largest live probability; ties go to the lowest
  position (first occurrence of the maximum in ascending cell-index order);
- a live cell is suppressed when its squared distance to the peak is at most
  ``r * r``;
- the peak's score is the Kahan-compensated sum of the live mass it
  suppresses, accumulated in ascending cell-index order with zero cells
  skipped.
"""

from __future__ import annotations

import numpy as np

# Name of the kernel implementation, recorded in benchmark reports.
BACKEND = "python"


def nms_kernel(xs, ys, probs, r, k):
    """Greedy peak extraction on index-sorted cell centres and probabilities.

    ``probs`` is copied, never mutated. Returns (array positions of the
    peaks, scores) in emission order; stops after ``k`` peaks or when no
    live mass remains.
    """
    work = np.array(probs, dtype=np.float64, copy=True)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    r2 = float(r) * float(r)
    k = int(k)
    idx_out: list[int] = []
    score_out: list[float] = []
    while len(idx_out) < k:
        peak = int(np.argmax(work))
        if work[peak] <= 0.0:
            break
        dx = xs - xs[peak]
        dy = ys - ys[peak]
        sel = np.flatnonzero((dx * dx + dy * dy <= r2) & (work > 0.0))
        s = 0.0
        c = 0.0
        for j in sel:
            p = work[j]
            y = p - c
            t = s + y
            c = (t - s) - y
            s = t
        work[sel] = 0.0
        idx_out.append(peak)
        score_out.append(s)
    return (
        np.asarray(idx_out, dtype=np.int64),
        np.asarray(score_out, dtype=np.float64),
    )
