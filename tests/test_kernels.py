import numpy as np
import pytest

from heatpred import kernels
from heatpred.heatmap import GridSpec, Heatmap
from helpers import SWEEP_CASES, dense_from_heatmap, dense_nms_oracle, random_heatmap, sweep_case


def run_kernel(h, r, k):
    xs, ys = h.cell_centers()
    return kernels.nms_kernel(xs, ys, h.prob, r, k)


class TestKernelContract:
    def test_kernel_does_not_mutate_heatmap(self, rng):
        h = random_heatmap(rng, GridSpec(0, 0, 0.5, 16, 16), 60)
        before = h.prob.copy()
        run_kernel(h, 1.0, 6)
        assert np.array_equal(h.prob, before)

    def test_emission_count_stops_at_k_or_exhaustion(self, rng):
        h = random_heatmap(rng, GridSpec(0, 0, 0.5, 16, 16), 40)
        peaks, scores = run_kernel(h, 0.4, 6)
        assert 1 <= len(peaks) <= 6
        # huge radius sweeps everything in one step
        peaks1, scores1 = run_kernel(h, 100.0, 6)
        assert len(peaks1) == 1
        assert scores1[0] == pytest.approx(1.0, abs=1e-12)

    def test_scores_are_suppressed_mass(self, rng):
        h = random_heatmap(rng, GridSpec(0, 0, 0.5, 24, 24), 200)
        _, scores = run_kernel(h, 1.5, 6)
        assert float(np.sum(scores)) <= 1.0 + 1e-6


class TestAgainstDenseOracle:
    def test_matches_dense_oracle_bit_exactly(self, rng):
        for trial in range(60):
            grid = GridSpec(-8.0, -8.0, 0.5, 48, 48)
            h = random_heatmap(rng, grid, int(rng.integers(10, 600)))
            r = float(rng.choice([0.5, 1.5, 3.0]))
            k = 6
            peaks, scores = run_kernel(h, r, k)
            xs, ys = h.cell_centers()
            got = [(float(xs[p]), float(ys[p]), float(s)) for p, s in zip(peaks, scores)]
            order = np.argsort(-scores, kind="stable")
            got = [got[j] for j in order]
            expected = dense_nms_oracle(grid, dense_from_heatmap(h), r, k)
            assert got == expected, f"trial {trial}"

    def test_tie_break_lowest_row_major_index(self):
        grid = GridSpec(0.0, 0.0, 1.0, 8, 8)
        h = Heatmap.from_cells(grid, {10: 1.0, 30: 1.0, 50: 1.0})
        peaks, _ = run_kernel(h, 0.5, 3)
        assert h.idx[peaks[0]] == 10
        assert h.idx[peaks[1]] == 30
        assert h.idx[peaks[2]] == 50


class TestStorageOrderIndependence:
    def test_shuffled_cells_same_result(self, rng):
        grid = GridSpec(0.0, 0.0, 0.5, 32, 32)
        idx = rng.choice(grid.n_cells, size=200, replace=False)
        prob = rng.random(200) ** 3 + 1e-9
        perm = rng.permutation(200)
        # the constructor sorts by cell index before it sums, so content is bit-identical
        base = Heatmap(grid, idx, prob)
        shuffled = Heatmap(grid, idx[perm], prob[perm])
        assert np.array_equal(base.idx, shuffled.idx) and np.array_equal(base.prob, shuffled.prob)
        a = run_kernel(base, 1.5, 6)
        b = run_kernel(shuffled, 1.5, 6)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


DEFAULT_SWEEP = [round(0.1 * i, 10) for i in range(1, 51)]


class TestSweepAgainstDenseOracle:
    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_every_default_radius_matches_oracle(self, rng, case):
        # the default sweep starts below the 0.5 grid resolution
        h, k = sweep_case(case, rng)
        xs, ys = h.cell_centers()
        dense = dense_from_heatmap(h)
        runs = kernels.nms_sweep(xs, ys, h.prob, DEFAULT_SWEEP, k)
        assert len(runs) == len(DEFAULT_SWEEP)
        for r, peaks in zip(DEFAULT_SWEEP, runs):
            single, scores = kernels.nms_kernel(xs, ys, h.prob, r, k)
            assert np.array_equal(single, peaks), f"r={r}"
            got = [(float(xs[p]), float(ys[p]), float(s)) for p, s in zip(peaks, scores)]
            order = np.argsort(-scores, kind="stable")
            got = [got[j] for j in order]
            assert got == dense_nms_oracle(h.grid, dense, r, k), f"r={r}"

    def test_prefix_case_really_doubles(self, rng, monkeypatch):
        sizes = []
        real = kernels._sorted_prefix

        def spy(probs, m, n_positive):
            sizes.append(m)
            return real(probs, m, n_positive)

        monkeypatch.setattr(kernels, "_sorted_prefix", spy)
        h, k = sweep_case("prefix_doubles", rng)
        xs, ys = h.cell_centers()
        kernels.nms_sweep(xs, ys, h.prob, DEFAULT_SWEEP, k)
        assert sizes[0] == kernels.PREFIX_CELLS
        assert len(sizes) > 1 and sizes == sorted(sizes)

    def test_fewer_positive_cells_than_k(self, rng):
        h, k = sweep_case("fewer_cells_than_k", rng)
        xs, ys = h.cell_centers()
        for r, peaks in zip(DEFAULT_SWEEP, kernels.nms_sweep(xs, ys, h.prob, DEFAULT_SWEEP, k)):
            assert 1 <= len(peaks) <= len(h) < k
            assert len(kernels.nms_kernel(xs, ys, h.prob, r, k)[1]) == len(peaks)


def assert_sweep_matches(h, radii, k):
    """Every radius of one sweep equals the dense oracle and its own one-radius call."""
    xs, ys = h.cell_centers()
    dense = dense_from_heatmap(h)
    runs = kernels.nms_sweep(xs, ys, h.prob, radii, k)
    assert len(runs) == len(radii)
    for r, peaks in zip(radii, runs):
        assert 1 <= len(peaks) <= k
        single, scores = kernels.nms_kernel(xs, ys, h.prob, r, k)
        assert np.array_equal(single, peaks), f"r={r}"
        got = [(float(xs[p]), float(ys[p]), float(s)) for p, s in zip(peaks, scores)]
        order = np.argsort(-scores, kind="stable")
        assert [got[j] for j in order] == dense_nms_oracle(h.grid, dense, r, k), f"r={r}"


def record_calls(monkeypatch):
    """Spy on the prefix sorts and the walks of a sweep: ("sort", m) and ("walk", rows)."""
    calls = []
    sort, walk = kernels._sorted_prefix, kernels._walk_all

    def sort_spy(probs, m, n_positive):
        calls.append(("sort", m))
        return sort(probs, m, n_positive)

    def walk_spy(px, py, r2_column, k):
        calls.append(("walk", r2_column.shape[0]))
        return walk(px, py, r2_column, k)

    monkeypatch.setattr(kernels, "_sorted_prefix", sort_spy)
    monkeypatch.setattr(kernels, "_walk_all", walk_spy)
    return calls


def spaced_heatmap(rng):
    """More positive cells than the first prefix, each farther from the others
    than the largest default radius: no radius ever runs out."""
    grid = GridSpec(0.0, 0.0, 6.0, 20, 20)
    return Heatmap(grid, np.arange(grid.n_cells), rng.random(grid.n_cells) + 1e-3)


class TestSweepWalk:
    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_radii_out_of_order_and_repeated(self, rng, case):
        h, k = sweep_case(case, rng)
        assert_sweep_matches(h, [3.0, 0.5, 1.5, 0.5, 5.0, 0.1, 3.0, 0.8], k)

    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_k_1(self, rng, case):
        h, _ = sweep_case(case, rng)
        assert_sweep_matches(h, DEFAULT_SWEEP, 1)

    def test_radii_split_between_prefixes(self, rng, monkeypatch):
        h, k = sweep_case("prefix_doubles", rng)
        calls = record_calls(monkeypatch)
        assert_sweep_matches(h, DEFAULT_SWEEP, k)
        # the first sweep call: some radii finish on the first prefix, the
        # others walk again, and only they do
        first = calls[: calls.index(("sort", kernels.PREFIX_CELLS), 1)]
        walks = [rows for name, rows in first if name == "walk"]
        assert walks[0] == len(DEFAULT_SWEEP)
        assert 0 < walks[1] < walks[0]
        assert walks == sorted(walks, reverse=True)

    def test_one_sort_when_no_radius_runs_out(self, rng, monkeypatch):
        h = spaced_heatmap(rng)
        assert len(h) > kernels.PREFIX_CELLS
        calls = record_calls(monkeypatch)
        assert_sweep_matches(h, DEFAULT_SWEEP, 6)
        # the sweep, then one nms_kernel call per radius
        assert calls == [("sort", kernels.PREFIX_CELLS), ("walk", len(DEFAULT_SWEEP))] + [
            ("sort", kernels.PREFIX_CELLS), ("walk", 1)
        ] * len(DEFAULT_SWEEP)

    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_k_1_sorts_once(self, rng, monkeypatch, case):
        h, _ = sweep_case(case, rng)
        calls = record_calls(monkeypatch)
        xs, ys = h.cell_centers()
        kernels.nms_sweep(xs, ys, h.prob, DEFAULT_SWEEP, 1)
        assert calls == [("sort", min(kernels.PREFIX_CELLS, len(h))), ("walk", len(DEFAULT_SWEEP))]

    def test_no_sort_after_the_last_walk(self, rng, monkeypatch):
        h, k = sweep_case("prefix_doubles", rng)
        calls = record_calls(monkeypatch)
        xs, ys = h.cell_centers()
        kernels.nms_sweep(xs, ys, h.prob, DEFAULT_SWEEP, k)
        assert len(calls) > 2 and calls[-1][0] == "walk"
        # every sort is walked at once, and each prefix doubles the last
        assert [name for name, _ in calls] == ["sort", "walk"] * (len(calls) // 2)
        sizes = [m for name, m in calls if name == "sort"]
        assert sizes == [kernels.PREFIX_CELLS * 2**i for i in range(len(sizes))]
