import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatpred.heatmap import (
    GaussianMode,
    GridSpec,
    Heatmap,
    MixtureSpec,
    ZeroMassError,
    _prob_text,
    heatmap_from_dict,
    heatmap_to_dict,
    heatmap_to_json,
    render_mixture,
    uncertainty,
)
from heatpred.io import canonical_dumps
from heatpred.synth import ScenarioConfig, sample_scenario
from helpers import covariance_trace_oracle, random_heatmap


def gaussian_grid(mean, sigma, resolution, extent_sigmas):
    half = math.ceil(extent_sigmas * sigma / resolution)
    n = 2 * half + 1
    return GridSpec(
        origin_x=mean[0] - half * resolution,
        origin_y=mean[1] - half * resolution,
        resolution=resolution,
        width=n,
        height=n,
    )


def rendered_gaussian(mean, sigma, resolution=0.25, extent_sigmas=6.0):
    mix = MixtureSpec((GaussianMode(1.0, mean[0], mean[1], sigma),))
    return render_mixture(mix, gaussian_grid(mean, sigma, resolution, extent_sigmas), extent_sigmas)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0.0, 4, 4)
        with pytest.raises(ValueError):
            GridSpec(0, 0, 1.0, 0, 4)

    def test_cell_centers_row_major(self):
        g = GridSpec(10.0, -5.0, 0.5, 4, 3)
        xs, ys = g.cell_centers(np.array([0, 1, 4, 11]))
        assert xs.tolist() == [10.0, 10.5, 10.0, 11.5]
        assert ys.tolist() == [-5.0, -5.0, -4.5, -4.0]


class TestHeatmapType:
    def test_sorted_by_index_regardless_of_input_order(self):
        g = GridSpec(0, 0, 1.0, 4, 4)
        h = Heatmap.from_cells(g, [(7, 0.5), (2, 0.25), (11, 0.25)])
        assert h.idx.tolist() == [2, 7, 11]

    def test_rejects_duplicates_and_out_of_bounds(self):
        g = GridSpec(0, 0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="duplicate"):
            Heatmap.from_cells(g, [(1, 0.5), (1, 0.5)])
        with pytest.raises(ValueError, match="bounds"):
            Heatmap.from_cells(g, [(16, 1.0)])

    def test_rejects_negative(self):
        g = GridSpec(0, 0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="non-negative"):
            Heatmap.from_cells(g, [(1, -0.5)])


class TestNormalize:
    def test_halves(self):
        g = GridSpec(0, 0, 1.0, 4, 4)
        h = Heatmap.from_cells(g, {0: 2.0, 1: 2.0})
        assert h.prob.tolist() == [0.5, 0.5]

    def test_idempotent(self, rng):
        h = random_heatmap(rng, GridSpec(0, 0, 0.5, 32, 32), 100)
        h2 = Heatmap(h.grid, h.idx, h.prob)
        assert h2.mass == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(h2.prob - h.prob)) < 1e-12

    def test_drops_zero_cells(self):
        g = GridSpec(0, 0, 1.0, 4, 4)
        h = Heatmap.from_cells(g, {0: 1.0, 3: 0.0})
        assert h.idx.tolist() == [0]

    def test_all_zero_is_error(self):
        """No cells, only zero cells, or cells whose sum overflows leave no mass to divide by."""
        g = GridSpec(0, 0, 1.0, 4, 4)
        for cells, named in (({}, "no positive mass"), ({0: 0.0, 5: 0.0}, "no positive mass"),
                             ({0: 1e308, 1: 1e308}, "not finite")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ZeroMassError, match=named):
                    Heatmap.from_cells(g, cells)


class TestMoments:
    def test_single_cell_point_mass(self):
        g = GridSpec(3.0, 4.0, 1.0, 1, 1)
        h = Heatmap.from_cells(g, {0: 1.0})
        assert uncertainty(h).mean == (3.0, 4.0)
        assert uncertainty(h).spread == 0.0

    def test_two_cells_symmetric(self):
        g = GridSpec(0.0, 0.0, 1.0, 2, 1)
        h = Heatmap.from_cells(g, {0: 1.0, 1: 1.0})
        assert uncertainty(h).mean == (0.5, 0.0)
        assert uncertainty(h).spread == pytest.approx(0.25, abs=1e-12)

    def test_gaussian_mean_recovered(self):
        h = rendered_gaussian((5.0, -2.0), 2.0)
        ex, ey = uncertainty(h).mean
        assert ex == pytest.approx(5.0, abs=0.01)
        assert ey == pytest.approx(-2.0, abs=0.01)

    def test_gaussian_spread_is_two_sigma_squared(self):
        h = rendered_gaussian((5.0, -2.0), 3.0)
        u = uncertainty(h).spread
        assert u == pytest.approx(18.0, rel=0.03)

    def test_matches_two_pass_covariance_oracle(self, rng):
        for _ in range(20):
            h = random_heatmap(rng, GridSpec(-7.0, 3.0, 0.5, 48, 40), 300)
            (ex, ey), trace = covariance_trace_oracle(h)
            est = uncertainty(h)
            assert est.spread == pytest.approx(trace, abs=1e-9)
            assert est.mean[0] == pytest.approx(ex, abs=1e-9)
            assert est.mean[1] == pytest.approx(ey, abs=1e-9)

    def test_translation_invariance_exact_for_exact_shifts(self, rng):
        h = random_heatmap(rng, GridSpec(0.0, 0.0, 0.5, 40, 40), 200)
        # power-of-two shifts stay exactly representable
        g2 = GridSpec(32.0, -16.0, 0.5, 40, 40)
        h2 = Heatmap(g2, h.idx, h.prob)
        a, b = uncertainty(h), uncertainty(h2)
        assert b.spread == a.spread
        assert b.mean[0] - a.mean[0] == pytest.approx(32.0, abs=1e-12)
        assert b.mean[1] - a.mean[1] == pytest.approx(-16.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(dx=st.floats(-200, 200), dy=st.floats(-200, 200), seed=st.integers(0, 2**16))
    def test_translation_invariance(self, dx, dy, seed):
        rng = np.random.default_rng(seed)
        h = random_heatmap(rng, GridSpec(0.0, 0.0, 0.5, 32, 32), 120)
        g2 = GridSpec(dx, dy, 0.5, 32, 32)
        h2 = Heatmap(g2, h.idx, h.prob)
        a, b = uncertainty(h), uncertainty(h2)
        assert b.spread == pytest.approx(a.spread, abs=1e-9)
        assert b.mean[0] == pytest.approx(a.mean[0] + dx, abs=1e-9)
        assert b.mean[1] == pytest.approx(a.mean[1] + dy, abs=1e-9)

    def test_rotation_invariance(self, rng):
        # rotating the cell coordinates about the mean leaves the spread alone
        h = random_heatmap(rng, GridSpec(-4.0, -4.0, 0.5, 32, 32), 150)
        est = uncertainty(h)
        xs, ys = h.cell_centers()
        for angle in (0.3, math.pi / 3, 2.1):
            ca, sa = math.cos(angle), math.sin(angle)
            rx = est.mean[0] + ca * (xs - est.mean[0]) - sa * (ys - est.mean[1])
            ry = est.mean[1] + sa * (xs - est.mean[0]) + ca * (ys - est.mean[1])
            w = h.prob
            ex, ey = float(np.dot(w, rx)), float(np.dot(w, ry))
            u_rot = float(np.dot(w, (rx - ex) ** 2) + np.dot(w, (ry - ey) ** 2))
            assert u_rot == pytest.approx(est.spread, abs=1e-9)


class TestRenderMixture:
    def test_tight_mode_concentrates_in_one_cell(self):
        g = GridSpec(-5.0, -5.0, 0.5, 21, 21)
        mix = MixtureSpec((GaussianMode(1.0, 0.0, 0.0, 0.05),))
        h = render_mixture(mix, g, 4.0)
        peak = int(np.argmax(h.prob))
        xs, ys = h.cell_centers()
        assert (xs[peak], ys[peak]) == (0.0, 0.0)
        assert h.prob[peak] >= 0.99

    def test_symmetric_modes_have_origin_expectation(self):
        g = GridSpec(-16.0, -16.0, 0.5, 65, 65)
        mix = MixtureSpec(
            (GaussianMode(0.5, -6.0, 0.0, 1.0), GaussianMode(0.5, 6.0, 0.0, 1.0))
        )
        h = render_mixture(mix, g, 4.0)
        ex, ey = uncertainty(h).mean
        assert abs(ex) < 0.25
        assert abs(ey) < 0.25

    def test_cluster_mass_ratio(self):
        g = GridSpec(-40.0, -10.0, 0.5, 161, 41)
        mix = MixtureSpec(
            (GaussianMode(0.7, -25.0, 0.0, 1.5), GaussianMode(0.3, 25.0, 0.0, 1.5))
        )
        h = render_mixture(mix, g, 4.0)
        xs, _ = h.cell_centers()
        left = float(np.sum(h.prob[xs < 0]))
        right = float(np.sum(h.prob[xs > 0]))
        assert left == pytest.approx(0.7, abs=0.007)
        assert right == pytest.approx(0.3, abs=0.007)

    def test_warns_when_grid_clips(self):
        g = GridSpec(0.0, 0.0, 0.5, 10, 10)
        mix = MixtureSpec((GaussianMode(1.0, 2.0, 2.0, 3.0),))
        with pytest.warns(UserWarning, match="truncation disc"):
            render_mixture(mix, g, 4.0)

    def test_truncate_below_three_rejected(self):
        g = GridSpec(0.0, 0.0, 0.5, 10, 10)
        mix = MixtureSpec((GaussianMode(1.0, 2.0, 2.0, 0.2),))
        with pytest.raises(ValueError, match="at least 3"):
            render_mixture(mix, g, 2.0)

    @pytest.mark.parametrize(
        "grid, modes",
        [
            (GridSpec(-10.0, -10.0, 0.5, 41, 41),
             ((0.5, 0.1, -0.3, 1.0), (0.3, 1.6, 0.7, 1.2), (0.2, -0.9, 1.1, 0.8))),
            (GridSpec(-10.0, -10.0, 0.5, 41, 41), ((0.6, -6.2, -5.9, 0.5), (0.4, 6.1, 5.3, 0.7))),
            (GridSpec(0.0, 0.0, 0.5, 24, 18), ((0.5, 0.3, 0.2, 1.0), (0.5, 11.1, 8.3, 1.3))),
        ],
        ids=["overlapping", "disjoint", "clipped"],
    )
    def test_cells_are_union_of_truncation_discs(self, grid, modes):
        mix = MixtureSpec(tuple(GaussianMode(*m) for m in modes))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            h = render_mixture(mix, grid, 4.0)
        # dense oracle: every grid cell whose center lies within 4 sigma of some mode
        xs, ys = grid.cell_centers(np.arange(grid.n_cells, dtype=np.int64))
        inside = np.zeros(grid.n_cells, dtype=bool)
        for m in mix.modes:
            reach = 4.0 * m.sigma
            inside |= (xs - m.mean_x) ** 2 + (ys - m.mean_y) ** 2 <= reach * reach
        assert h.idx.dtype == np.int64
        assert np.all(np.diff(h.idx) > 0)
        assert h.idx.tolist() == np.flatnonzero(inside).tolist()

    def test_wide_gaussian_spread_matches_closed_form(self):
        for sigma in (2.0, 4.0):
            h = rendered_gaussian((0.0, 0.0), sigma, resolution=0.5, extent_sigmas=4.0)
            assert uncertainty(h).spread == pytest.approx(2 * sigma * sigma, rel=0.03)


class TestJsonRoundTrip:
    def test_round_trip_and_reader_normalization(self, rng):
        h = random_heatmap(rng, GridSpec(-3.0, 2.0, 0.25, 20, 30), 50)
        d = heatmap_to_dict(h, "abc")
        # scale probabilities: the reader restores unit mass and keeps the stored sum
        d["cells"] = [[i, p * 7.5] for i, p in d["cells"]]
        sid, back = heatmap_from_dict(d)
        assert back.mass == pytest.approx(7.5, rel=1e-12)
        assert sid == "abc"
        assert back.grid == h.grid
        assert np.array_equal(back.idx, h.idx)
        assert np.max(np.abs(back.prob - h.prob)) < 1e-12


class TestJsonEncoder:
    """``heatmap_to_json`` must write exactly ``canonical_dumps(heatmap_to_dict(...))``."""

    @staticmethod
    def assert_same_bytes(h, sid):
        assert heatmap_to_json(h, sid) == canonical_dumps(heatmap_to_dict(h, sid))

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_rendered_scenarios(self, seed):
        cfg = ScenarioConfig(seed=seed)
        for i in range(3):
            h, _, _ = sample_scenario(cfg, i)
            self.assert_same_bytes(h, f"synth-{i:06d}")

    @pytest.mark.parametrize("seed", [2, 3])
    def test_random_heatmaps(self, seed):
        h = random_heatmap(np.random.default_rng(seed), GridSpec(-3.0, 2.0, 0.25, 20, 30), 50)
        self.assert_same_bytes(h, "abc")

    def test_empty_heatmap(self):
        # a heatmap with no cells has no mass: it cannot be built, so it never
        # reaches the encoder, and a record with no cells is refused on read
        g = GridSpec(0.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ZeroMassError, match="no positive mass"):
            Heatmap(g, np.array([], np.int64), np.array([]))
        d = heatmap_to_dict(Heatmap.from_cells(g, {0: 1.0}), "empty")
        d["cells"] = []
        with pytest.raises(ZeroMassError, match="no positive mass"):
            heatmap_from_dict(d)

    def test_single_cell_at_last_index(self):
        g = GridSpec(-1.5, 2.25, 0.1, 7, 5)
        self.assert_same_bytes(Heatmap.from_cells(g, {g.n_cells - 1: 1.0}), "one")
        self.assert_same_bytes(Heatmap.from_cells(g, {0: 1.0}), "first")

    def test_extreme_and_long_probabilities(self):
        # these sum to exactly 1.0, so the constructor keeps every value
        probs = [5e-324, 1e-300, 0.1, 0.1 + 0.2, 1 / 3, 0.2666666666666666]
        g = GridSpec(0.0, 0.0, 0.5, 10, 10)
        h = Heatmap(g, np.arange(len(probs), dtype=np.int64) * 11, np.array(probs))
        assert h.mass == 1.0 and h.prob.tolist() == probs
        self.assert_same_bytes(h, "probs")
        assert "0.30000000000000004" in heatmap_to_json(h, "probs")

    def test_indices_at_digit_boundaries(self):
        # indices of every digit count, up to the last cell of a grid of 10^12 cells
        g = GridSpec(0.0, 0.0, 1.0, 10**6, 10**6)
        idx = [0, 9, 10, 999, 1000, 1001, 1005, 9999, 10000, 1_000_007, g.n_cells - 1]
        h = Heatmap(g, np.array(idx, dtype=np.int64), np.linspace(1.0, 2.0, len(idx)))
        self.assert_same_bytes(h, "digits")
        line = heatmap_to_json(h, "digits")
        assert "[1005," in line and "[1000007," in line and "[999999999999," in line

    def test_indices_all_below_1000(self):
        g = GridSpec(0.0, 0.0, 0.5, 40, 25)
        idx = np.array([0, 1, 7, 10, 99, 100, 998, 999], dtype=np.int64)
        self.assert_same_bytes(Heatmap(g, idx, np.arange(1.0, 9.0)), "low")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_sparse_grids(self, data):
        width = data.draw(st.integers(1, 10**6), label="width")
        height = data.draw(st.integers(1, 10**6), label="height")
        g = GridSpec(0.0, 0.0, 1.0, width, height)
        idx = data.draw(st.lists(st.integers(0, g.n_cells - 1), min_size=1, max_size=40, unique=True), label="idx")
        prob = data.draw(
            st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=len(idx), max_size=len(idx)), label="prob"
        )
        self.assert_same_bytes(Heatmap(g, np.array(idx, dtype=np.int64), np.array(prob)), "sparse")

    @pytest.mark.parametrize("sid", ['quote"d', "back\\slash", "caf\u00e9", "tab\tnew\nline", ""])
    def test_sample_id_escaping(self, sid):
        h = Heatmap.from_cells(GridSpec(0.0, 0.0, 1.0, 3, 3), {4: 0.25, 8: 0.75})
        self.assert_same_bytes(h, sid)


class TestProbText:
    """``_prob_text`` writes each probability in (0, 1] as ``repr`` does,
    though orjson lays out the values below 1e-4 differently."""

    @staticmethod
    def assert_repr(values):
        prob = np.array(values, dtype=np.float64)
        assert _prob_text(prob) == list(map(repr, prob.tolist()))

    @pytest.mark.parametrize("bound", [1e-4, 1e-5, 1e-9, 1e-10])
    def test_layout_bound_and_one_ulp_below(self, bound):
        self.assert_repr([bound, np.nextafter(bound, 0.0), 0.5])

    def test_extremes_and_one_digit_mantissas(self):
        values = [1.0, 5e-324, 2.2250738585072014e-308, 1e-05, 3e-05, 9e-05, 3e-07, 1e-06, 7e-09, 2e-04, 4.196e-05]
        self.assert_repr(values)
        assert _prob_text(np.array([1e-05, 3e-07, 4.196e-05])) == ["1e-05", "3e-07", "4.196e-05"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=20))
    def test_matches_repr(self, values):
        self.assert_repr(values)
