import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatpred.calibration import CalibrationModel, load_preset
from heatpred.heatmap import (
    GaussianMode,
    GridSpec,
    Heatmap,
    MixtureSpec,
    render_mixture,
    uncertainty,
)
from heatpred.io import canonical_dumps
from heatpred.sampling import (
    AdaptiveRadius,
    FixedRadius,
    SamplingConfig,
    adaptive_radius,
    nms_sample,
    prediction_to_dict,
    sample_with_uncertainty,
)
from helpers import random_heatmap


def two_cluster_heatmap(separation=5.0, w1=0.6, sigma=0.4):
    grid = GridSpec(-10.0, -10.0, 0.25, 121, 81)
    mix = MixtureSpec(
        (GaussianMode(w1, 0.0, 0.0, sigma), GaussianMode(1 - w1, separation, 0.0, sigma))
    )
    return render_mixture(mix, grid, 4.0)


class TestNmsSample:
    def test_two_clusters_both_recovered(self):
        h = two_cluster_heatmap()
        ps = nms_sample(h, 2, 2.0)
        assert len(ps.endpoints) == 2
        (x0, y0, s0), (x1, y1, s1) = ps.endpoints
        assert (x0, y0) == pytest.approx((0.0, 0.0), abs=0.3)
        assert (x1, y1) == pytest.approx((5.0, 0.0), abs=0.3)
        assert s0 == pytest.approx(0.6, abs=0.01)
        assert s1 == pytest.approx(0.4, abs=0.01)

    def test_large_radius_suppresses_second_cluster(self):
        h = two_cluster_heatmap()
        ps = nms_sample(h, 2, 10.0)
        assert len(ps.endpoints) == 1
        assert ps.endpoints[0].score == pytest.approx(1.0, abs=1e-9)

    def test_single_cell_any_radius(self):
        g = GridSpec(2.0, 3.0, 0.5, 4, 4)
        h = Heatmap.from_cells(g, {5: 3.0})
        for r in (0.1, 1.0, 50.0):
            ps = nms_sample(h, 6, r)
            assert len(ps.endpoints) == 1
            e = ps.endpoints[0]
            assert (e.x, e.y, e.score) == (2.5, 3.5, 1.0)

    def test_k1_returns_argmax_cell(self, rng):
        h = random_heatmap(rng, GridSpec(0, 0, 0.5, 24, 24), 150)
        ps = nms_sample(h, 1, 1.0)
        xs, ys = h.cell_centers()
        j = int(np.argmax(h.prob))
        assert (ps.endpoints[0].x, ps.endpoints[0].y) == (xs[j], ys[j])

    def test_scores_sorted_descending(self, rng):
        for _ in range(20):
            h = random_heatmap(rng, GridSpec(0, 0, 0.5, 32, 32), 250)
            ps = nms_sample(h, 6, 1.0)
            scores = [e.score for e in ps.endpoints]
            assert scores == sorted(scores, reverse=True)

    def test_sorted_even_when_emission_order_differs(self):
        # isolated tall spike first, then a wide heavy cluster: the cluster's
        # mass outranks the spike even though the spike is picked first
        g = GridSpec(0.0, 0.0, 1.0, 40, 3)
        cells = {1: 0.2}
        cluster = {20 + i: 0.16 for i in range(5)}
        cells.update(cluster)
        h = Heatmap.from_cells(g, cells)
        ps = nms_sample(h, 2, 8.0)
        assert ps.endpoints[0].score > ps.endpoints[1].score
        # equal cluster cells tie-break to the lowest index, and the cluster
        # outranks the spike on absorbed mass
        assert ps.endpoints[0].x == 20.0
        assert ps.endpoints[0].score == pytest.approx(0.8, abs=1e-12)
        assert ps.endpoints[1].x == 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r=st.floats(0.2, 6.0), k=st.integers(1, 8))
    def test_pairwise_distance_at_least_r(self, seed, r, k):
        rng = np.random.default_rng(seed)
        h = random_heatmap(rng, GridSpec(-8, -8, 0.5, 32, 32), 150)
        ps = nms_sample(h, k, r)
        pts = [(e.x, e.y) for e in ps.endpoints]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert math.dist(pts[i], pts[j]) >= r

    def test_empty_heatmap_error(self):
        g = GridSpec(0, 0, 1.0, 4, 4)
        from heatpred.heatmap import ZeroMassError

        # the constructor refuses a heatmap with no cells before nms_sample can see it
        with pytest.raises(ZeroMassError):
            h = Heatmap(g, np.array([], dtype=np.int64), np.array([], dtype=np.float64))
            nms_sample(h, 6, 1.0)


class TestAdaptiveRadius:
    def test_preset_at_zero_spread(self):
        model, _ = load_preset("argoverse")
        assert adaptive_radius(0.0, model) == pytest.approx(0.78, abs=1e-12)

    def test_preset_affine_arithmetic(self):
        model, _ = load_preset("shifts")
        assert adaptive_radius(10.0, model) == pytest.approx(1.13, abs=1e-12)

    def test_clamps(self):
        model = CalibrationModel(a=0.5, b=1.0)
        assert adaptive_radius(1000.0, model, r_max=10.0) == 10.0
        model_low = CalibrationModel(a=0.001, b=0.05)
        assert adaptive_radius(0.0, model_low, r_min=0.1) == 0.1

    def test_monotone_in_spread(self):
        model = CalibrationModel(a=0.02, b=0.9)
        rs = [adaptive_radius(u, model) for u in np.linspace(0, 600, 200)]
        assert all(b >= a for a, b in zip(rs, rs[1:]))
        assert rs[-1] == 10.0  # clamped tail is constant


class TestSampleWithUncertainty:
    def test_fixed_mode_matches_plain_nms(self, rng):
        h = random_heatmap(rng, GridSpec(0, 0, 0.5, 32, 32), 200)
        cfg = SamplingConfig(k=6, radius_mode=FixedRadius(1.5))
        ps = sample_with_uncertainty(h, cfg)
        ref = nms_sample(h, 6, 1.5)
        assert [tuple(e) for e in ps.endpoints] == [tuple(e) for e in ref.endpoints]
        assert ps.uncertainty is not None
        assert ps.uncertainty.spread == uncertainty(h).spread

    def test_degenerate_affine_equals_fixed(self, rng):
        h = random_heatmap(rng, GridSpec(0, 0, 0.5, 32, 32), 200)
        model = CalibrationModel(a=0.0, b=1.5)
        adaptive = sample_with_uncertainty(h, SamplingConfig(radius_mode=AdaptiveRadius(model)))
        fixed = sample_with_uncertainty(h, SamplingConfig(radius_mode=FixedRadius(1.5)))
        assert [tuple(e) for e in adaptive.endpoints] == [tuple(e) for e in fixed.endpoints]
        assert adaptive.radius_used == fixed.radius_used == 1.5

    def test_wider_heatmap_gets_larger_radius(self):
        grid = GridSpec(-40.0, -40.0, 0.5, 161, 161)
        model = CalibrationModel(a=0.05, b=0.5)
        cfg = SamplingConfig(radius_mode=AdaptiveRadius(model))
        radii = []
        for sigma in (1.5, 3.0):
            h = render_mixture(MixtureSpec((GaussianMode(1.0, 0.0, 0.0, sigma),)), grid, 4.0)
            radii.append(sample_with_uncertainty(h, cfg).radius_used)
        assert radii[1] > radii[0]
        # spread scales as 2 sigma^2, so the gap is predictable
        assert radii[1] - radii[0] == pytest.approx(0.05 * 2 * (3.0**2 - 1.5**2), rel=0.05)


class TestPredictionJson:
    def test_round_trip(self, rng):
        h = random_heatmap(rng, GridSpec(0, 0, 0.5, 16, 16), 60)
        ps = sample_with_uncertainty(h, SamplingConfig(k=4))
        back = json.loads(canonical_dumps(prediction_to_dict(ps, "p1")))
        assert back["sample_id"] == "p1"
        assert back["radius_used"] == ps.radius_used
        assert [tuple(e) for e in back["endpoints"]] == [tuple(e) for e in ps.endpoints]
        assert back["uncertainty"] == ps.uncertainty.spread
