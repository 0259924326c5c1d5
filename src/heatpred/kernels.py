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
cell in that order farther than ``r`` from every earlier peak. That sort and
the walk over it are shared by every radius of a sweep (:func:`nms_sweep`):
all radii take their peaks in one walk over a radius x candidate matrix. A
sweep returns peaks only: calibration rates each radius by the nearest of
all its peaks, which needs no scores. A single extraction
(:func:`nms_kernel`) is its one-radius case plus the scores of its peaks.
"""

from __future__ import annotations

import numpy as np

# Name of the kernel implementation, recorded in benchmark reports.
BACKEND = "python"

# Sorted cells the peak walk looks at first; doubled while a radius runs out
# before k peaks, so the walk stays short without touching every cell per peak.
PREFIX_CELLS = 256


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


def _walk_all(px, py, r2_column, k):
    """Ranks of the peaks among candidates sorted by descending probability,
    one row per squared radius in the ``(rows, 1)`` array ``r2_column``.

    Every row walks its k - 1 steps at once over a row x candidate live
    matrix: each row takes its first live candidate as its next peak, then
    keeps alive only the candidates farther than its radius from that peak.
    Returns a ``(rows, k)`` array of ranks. Rank 0 is every row's first peak
    and is suppressed by it, so a later 0 marks a row that ran out of live
    candidates: its peaks are the ranks before that 0.
    """
    live = np.ones((r2_column.shape[0], px.size), dtype=bool)
    ranks = np.zeros((r2_column.shape[0], k), dtype=np.intp)
    d2 = np.empty(live.shape)
    dy = np.empty(live.shape)
    cur = ranks[:, 0]
    for step in range(1, k):
        # d2 = dx * dx + dy * dy, in place
        np.subtract(px, px[cur][:, None], out=d2)
        np.subtract(py, py[cur][:, None], out=dy)
        d2 *= d2
        dy *= dy
        d2 += dy
        live &= d2 > r2_column
        # argmax is 0 on a row with no live candidate left, which stays so
        cur = live.argmax(axis=1)
        if not np.count_nonzero(cur):
            break
        ranks[:, step] = cur
    return ranks


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


def nms_sweep(xs, ys, probs, radii, k):
    """Greedy peak extraction for every radius in ``radii`` from one walk.

    Every radius walks the same sorted prefix of candidates at once; only the
    radii that ran out of live candidates before ``k`` peaks walk again, on a
    prefix twice as long, and a longer prefix is sorted only for them.
    ``radii`` may hold repeats and come in any order. Returns one array of
    peak positions per radius, in emission order, each equal to the peaks of
    ``nms_kernel(xs, ys, probs, r, k)``. ``probs`` is never mutated.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    k = int(k)
    r2s = [float(r) * float(r) for r in radii]
    n_positive = int(np.count_nonzero(probs > 0.0))
    peaks = [np.zeros(0, dtype=np.intp)] * len(r2s)
    todo = list(range(len(r2s))) if n_positive and k >= 1 else []
    m = min(PREFIX_CELLS, n_positive)
    while todo:
        order = _sorted_prefix(probs, m, n_positive)
        ranks = _walk_all(xs[order], ys[order], np.array([r2s[i] for i in todo])[:, None], k)
        ran_out = []
        for i, row, ranked in zip(todo, order[ranks], ranks.tolist()):
            # every 0 after the first rank marks a step the row had run out
            n = k - ranked[1:].count(0)
            if n < k and m < n_positive:
                ran_out.append(i)
            else:
                peaks[i] = row[:n]
        todo = ran_out
        m = min(2 * m, n_positive)
    return peaks


def nms_kernel(xs, ys, probs, r, k):
    """Greedy peak extraction on index-sorted cell centres and probabilities:
    the one-radius case of :func:`nms_sweep`, with the scores of its peaks.

    ``probs`` is copied, never mutated. Returns (array positions of the
    peaks, scores) in emission order; stops after ``k`` peaks or when no
    live mass remains.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    peaks = nms_sweep(xs, ys, probs, (r,), k)[0]
    return peaks, _kahan_scores(xs, ys, probs, peaks, float(r) * float(r))
