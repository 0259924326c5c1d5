import math
import statistics

import numpy as np
import pytest

from heatpred.heatmap import UncertaintyEstimate
from heatpred.metrics import (
    EmptyPredictionError,
    EvalRecord,
    aggregate,
    bin_by_uncertainty,
    is_miss,
    make_eval_record,
    min_fde,
    read_records_csv,
    write_records_csv,
)
from heatpred.sampling import Endpoint, PredictionSet


def pset(points_scores, radius=1.0, spread=None):
    est = None if spread is None else UncertaintyEstimate(spread, (0.0, 0.0))
    return PredictionSet(
        endpoints=[Endpoint(x, y, s) for (x, y), s in points_scores],
        radius_used=radius,
        uncertainty=est,
    )


def random_pset(rng, n):
    pts = rng.uniform(-10, 10, (n, 2))
    scores = np.sort(rng.random(n))[::-1]
    scores = scores / scores.sum()
    return pset([((float(x), float(y)), float(s)) for (x, y), s in zip(pts, scores)])


class TestMinFde:
    def test_exact_hit(self):
        p = pset([((3.0, 3.0), 1.0)])
        assert min_fde(p, (3.0, 3.0), 1) == 0.0

    def test_top2_vs_top1(self):
        p = pset([((0.0, 0.0), 0.6), ((3.0, 4.0), 0.4)])
        assert min_fde(p, (3.0, 3.0), 2) == pytest.approx(1.0, abs=1e-12)
        assert min_fde(p, (3.0, 3.0), 1) == pytest.approx(math.sqrt(18), abs=1e-12)

    def test_l_clamps_to_available(self):
        p = pset([((1.0, 0.0), 1.0)])
        assert min_fde(p, (0.0, 0.0), 6) == pytest.approx(1.0)

    def test_empty_prediction_error(self):
        p = PredictionSet(endpoints=[], radius_used=1.0)
        with pytest.raises(EmptyPredictionError):
            min_fde(p, (0.0, 0.0), 1)

    def test_non_increasing_in_l(self, rng):
        for _ in range(50):
            p = random_pset(rng, int(rng.integers(1, 8)))
            gt = tuple(rng.uniform(-10, 10, 2))
            vals = [min_fde(p, gt, l) for l in range(1, 9)]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rigid_rotation_invariance(self, rng):
        p = random_pset(rng, 6)
        gt = (2.0, -3.0)
        ang = 0.7
        ca, sa = math.cos(ang), math.sin(ang)

        def rot(x, y):
            return (ca * x - sa * y, sa * x + ca * y)

        p_rot = pset([(rot(e.x, e.y), e.score) for e in p.endpoints])
        gt_rot = rot(*gt)
        for l in (1, 3, 6):
            assert min_fde(p_rot, gt_rot, l) == pytest.approx(min_fde(p, gt, l), abs=1e-9)


class TestIsMiss:
    @pytest.mark.parametrize(
        "dist,expected", [(1.9, False), (2.0, False), (2.1, True)]
    )
    def test_threshold_boundary(self, dist, expected):
        p = pset([((dist, 0.0), 1.0)])
        assert is_miss(p, (0.0, 0.0), 1) is expected

    def test_monotone_in_l(self, rng):
        for _ in range(50):
            p = random_pset(rng, 6)
            gt = tuple(rng.uniform(-8, 8, 2))
            misses = [is_miss(p, gt, l) for l in range(1, 7)]
            # once a hit (False), stays a hit for larger l
            for a, b in zip(misses, misses[1:]):
                assert not (a is False and b is True)


class TestMakeEvalRecord:
    def test_pads_by_clamping(self):
        p = pset([((1.0, 0.0), 0.7), ((5.0, 0.0), 0.3)], radius=2.0, spread=4.0)
        rec = make_eval_record("a", p, (0.0, 0.0), k=6)
        assert rec.fde_per_l == [1.0] * 6
        assert rec.miss_per_l == [False] * 6
        assert rec.uncertainty == 4.0
        assert rec.radius_used == 2.0

    def test_matches_min_fde_per_l(self, rng):
        p = random_pset(rng, 6)
        gt = (1.0, 1.0)
        rec = make_eval_record("b", p, gt, k=6)
        for l in range(1, 7):
            assert rec.fde_per_l[l - 1] == min_fde(p, gt, l)
            assert rec.miss_per_l[l - 1] == is_miss(p, gt, l)


class TestAggregate:
    def test_single_record(self):
        rec = EvalRecord("a", 1.0, 1.5, [1.0, 0.5], [False, False])
        rep = aggregate([rec])
        assert rep.count == 1
        assert rep.min_fde_l == [1.0, 0.5]
        assert rep.mr_l == [0.0, 0.0]

    def test_two_record_mean(self):
        recs = [
            EvalRecord("a", 1.0, 1.5, [1.0], [False]),
            EvalRecord("b", 1.0, 1.5, [3.0], [True]),
        ]
        rep = aggregate(recs)
        assert rep.min_fde_l == [2.0]
        assert rep.mr_l == [0.5]

    def test_order_insensitive_bitwise(self, rng):
        recs = [
            EvalRecord(f"r{i}", 0.0, 1.0, [float(v)], [bool(v > 2)])
            for i, v in enumerate(rng.uniform(0, 5, 500))
        ]
        rep1 = aggregate(recs)
        shuffled = list(recs)
        rng.shuffle(shuffled)
        rep2 = aggregate(shuffled)
        assert rep1.min_fde_l == rep2.min_fde_l
        assert rep1.mr_l == rep2.mr_l

    def test_against_counting_oracle(self, rng):
        recs = []
        for i in range(1000):
            fde = sorted(rng.uniform(0, 6, 6), reverse=True)
            fde = list(np.minimum.accumulate(fde))
            recs.append(EvalRecord(f"r{i}", 0.0, 1.0, fde, [v > 2.0 for v in fde]))
        rep = aggregate(recs)
        for j in range(6):
            mean_oracle = statistics.fmean(r.fde_per_l[j] for r in recs)
            assert rep.min_fde_l[j] == pytest.approx(mean_oracle, abs=1e-12)
            n_miss = sum(1 for r in recs if r.fde_per_l[j] > 2.0)
            assert rep.mr_l[j] == n_miss / len(recs)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestBinByUncertainty:
    def test_single_bin(self):
        recs = [EvalRecord(f"r{i}", 0.1 * i, 1.0, [1.0], [False]) for i in range(5)]
        out = bin_by_uncertainty(recs, 1.0, min_count=1)
        assert out == [(0.0, 1.0, 5)]

    def test_counting(self):
        recs = [
            EvalRecord("a", 0.5, 1.0, [1.0], [False]),
            EvalRecord("b", 1.5, 1.0, [2.0], [False]),
            EvalRecord("c", 1.6, 1.0, [4.0], [True]),
        ]
        out = bin_by_uncertainty(recs, 1.0, min_count=1)
        assert out == [(0.0, 1.0, 1), (1.0, 3.0, 2)]

    def test_min_count_filters(self):
        recs = [
            EvalRecord("a", 0.5, 1.0, [1.0], [False]),
            EvalRecord("b", 1.5, 1.0, [2.0], [False]),
            EvalRecord("c", 1.6, 1.0, [4.0], [True]),
        ]
        out = bin_by_uncertainty(recs, 1.0, min_count=2)
        assert out == [(1.0, 3.0, 2)]

    def test_may_return_empty(self):
        recs = [EvalRecord("a", 0.5, 1.0, [1.0], [False])]
        assert bin_by_uncertainty(recs, 1.0, min_count=5) == []


class TestRecordsCsv:
    def test_round_trip(self, rng, tmp_path):
        recs = []
        for i in range(20):
            fde = list(np.minimum.accumulate(rng.uniform(0, 5, 6)))
            recs.append(
                EvalRecord(f"s{i:03d}", float(rng.uniform(0, 40)), 1.5, fde, [v > 2 for v in fde])
            )
        path = tmp_path / "records.csv"
        write_records_csv(path, recs, "deadbeef")
        back = read_records_csv(path)
        assert [r.sample_id for r in back] == [r.sample_id for r in recs]
        for a, b in zip(recs, back):
            assert b.uncertainty == a.uncertainty
            assert b.fde_per_l == a.fde_per_l
            assert b.miss_per_l == a.miss_per_l
