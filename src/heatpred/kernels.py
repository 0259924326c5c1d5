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

A cell is live exactly when it lies farther than ``r`` from every earlier
peak, so the peaks do not need the suppressed mass: after one stable sort of
the positive cells by descending probability, the next peak is the first
cell in that order farther than ``r`` from every earlier peak. That sort is
shared by every radius of a sweep (:func:`nms_sweep`).
"""

from __future__ import annotations

import numpy as np

# Name of the kernel implementation, recorded in benchmark reports.
BACKEND = "python"

# Sorted cells the peak walk looks at first; doubled while it runs out before
# k peaks, so the walk stays short without touching every cell per peak.
PREFIX_CELLS = 256
# Bound on the squared distances a sweep keeps for reuse across radii (8 B each).
D2_CACHE_CELLS = 1 << 17


def _sorted_prefix(probs, m, n_positive):
    """Positions of the first ``m`` positive cells in descending-probability
    order, ties to the lowest position, without sorting the rest."""
    if m == n_positive:
        cand = np.flatnonzero(probs > 0.0)
    else:
        # the m-th largest value; above it every cell is in, at it the lowest
        # positions. Equal probabilities all sit in one of the two ascending
        # parts, so the stable sort below still orders ties by position.
        cut = float(np.partition(probs, probs.size - m)[probs.size - m])
        above = np.flatnonzero(probs > cut)
        at = np.flatnonzero(probs == cut)[: m - above.size]
        cand = np.concatenate((above, at))
    return cand[np.argsort(-probs[cand], kind="stable")]


def _walk(px, py, d2_rows, r2, k):
    """Ranks of the peaks among candidates sorted by descending probability.

    ``d2_rows`` caches, per rank, the squared distances from that candidate
    to all of them. Returns (ranks, exhausted): ``exhausted`` is true when
    fewer than ``k`` peaks were found because no live candidate was left.
    """
    live = np.ones(px.size, dtype=bool)
    ranks = []
    i = 0
    while True:
        ranks.append(i)
        if len(ranks) == k:
            return ranks, False
        d2 = d2_rows.get(i)
        if d2 is None:
            dx = px - px[i]
            dy = py - py[i]
            d2 = dx * dx + dy * dy
            if (len(d2_rows) + 1) * px.size <= D2_CACHE_CELLS:
                d2_rows[i] = d2
        live &= d2 > r2
        i = int(live.argmax())
        if not live[i]:
            return ranks, True


def _kahan_scores(xs, ys, probs, peaks, r2):
    """Live mass each peak suppresses, in emission order."""
    work = np.array(probs, dtype=np.float64, copy=True)
    scores = []
    for peak in peaks:
        dx = xs - xs[peak]
        dy = ys - ys[peak]
        sel = np.flatnonzero((dx * dx + dy * dy <= r2) & (work > 0.0))
        s = 0.0
        c = 0.0
        for p in work[sel].tolist():
            y = p - c
            t = s + y
            c = (t - s) - y
            s = t
        work[sel] = 0.0
        scores.append(s)
    return np.asarray(scores, dtype=np.float64)


def nms_sweep(xs, ys, probs, radii, k, scores=True):
    """Greedy peak extraction for every radius in ``radii`` from one sort.

    Returns one (array positions of the peaks, scores) pair per radius, each
    equal to ``nms_kernel(xs, ys, probs, r, k)``; scores are None when
    ``scores`` is false. ``probs`` is never mutated.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    k = int(k)
    n_positive = int(np.count_nonzero(probs > 0.0))
    order = _sorted_prefix(probs, min(PREFIX_CELLS, n_positive), n_positive)
    px, py = xs[order], ys[order]
    d2_rows: dict = {}
    out = []
    for r in radii:
        r2 = float(r) * float(r)
        ranks: list[int] = []
        if n_positive and k >= 1:
            ranks, exhausted = _walk(px, py, d2_rows, r2, k)
            while exhausted and order.size < n_positive:
                order = _sorted_prefix(probs, min(2 * order.size, n_positive), n_positive)
                px, py = xs[order], ys[order]
                d2_rows = {}
                ranks, exhausted = _walk(px, py, d2_rows, r2, k)
        peaks = order[ranks]
        out.append((peaks, _kahan_scores(xs, ys, probs, peaks, r2) if scores else None))
    return out


def nms_kernel(xs, ys, probs, r, k):
    """Greedy peak extraction on index-sorted cell centres and probabilities.

    ``probs`` is copied, never mutated. Returns (array positions of the
    peaks, scores) in emission order; stops after ``k`` peaks or when no
    live mass remains.
    """
    return nms_sweep(xs, ys, probs, (r,), k)[0]
