import hashlib
import json
import pickle
import re

import numpy as np
import pytest

from heatpred.heatmap import GridSpec, grid_to_dict, uncertainty
from heatpred.io import canonical_dumps
from heatpred.synth import (
    SCENARIOS_PER_RANGE,
    ScenarioConfig,
    _encode_range,
    default_grid,
    draw_mixture,
    generate_dataset,
    sample_scenario,
)


def small_config(**kwargs):
    defaults = dict(
        mean_region=((0.0, 20.0), (-8.0, 8.0)),
        sigma_range=(0.5, 3.0),
        grid=GridSpec(origin_x=-14.0, origin_y=-22.0, resolution=0.5, width=96, height=88),
        seed=42,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestDraws:
    def test_deterministic_per_index(self):
        cfg = small_config()
        a = sample_scenario(cfg, 7)
        b = sample_scenario(cfg, 7)
        assert np.array_equal(a[0].idx, b[0].idx)
        assert np.array_equal(a[0].prob, b[0].prob)
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_independent_of_generation_order(self):
        cfg = small_config()
        forward = [draw_mixture(cfg, i) for i in range(10)]
        backward = [draw_mixture(cfg, i) for i in reversed(range(10))]
        assert forward == backward[::-1]

    def test_different_indices_differ(self):
        cfg = small_config()
        assert draw_mixture(cfg, 0) != draw_mixture(cfg, 1)

    def test_mode_count_and_weights_respect_config(self):
        cfg = small_config(n_modes_range=(2, 3), weight_floor=0.15)
        for i in range(50):
            mix, _ = draw_mixture(cfg, i)
            assert 2 <= len(mix.modes) <= 3
            for m in mix.modes:
                assert m.weight >= 0.15 - 1e-12
                assert cfg.sigma_range[0] <= m.sigma <= cfg.sigma_range[1]
                assert cfg.mean_region[0][0] <= m.mean_x <= cfg.mean_region[0][1]
                assert cfg.mean_region[1][0] <= m.mean_y <= cfg.mean_region[1][1]

    def test_single_mode_spread_matches_closed_form(self):
        cfg = small_config(n_modes_range=(1, 1), sigma_range=(2.0, 2.0))
        for i in range(10):
            h, _, mix = sample_scenario(cfg, i)
            assert uncertainty(h).spread == pytest.approx(2 * mix.modes[0].sigma ** 2, rel=0.03)

    def test_gt_covariance_matches_mixture(self):
        # single fixed mode: empirical gt covariance trace approaches 2 sigma^2;
        # the mode mean moves per index, so center each draw on its own mode
        cfg = small_config(n_modes_range=(1, 1), sigma_range=(1.5, 1.5))
        offs = []
        for i in range(100_000):
            mix, gt = draw_mixture(cfg, i)
            m = mix.modes[0]
            offs.append((gt[0] - m.mean_x, gt[1] - m.mean_y))
        offs = np.array(offs)
        trace = float(np.var(offs[:, 0]) + np.var(offs[:, 1]))
        assert trace == pytest.approx(2 * 1.5**2, rel=0.02)


class TestGenerateDataset:
    def test_single_scenario_files(self, tmp_path):
        cfg = small_config()
        paths = generate_dataset(cfg, 1, tmp_path)
        hm_lines = paths["heatmaps"].read_text().strip().splitlines()
        gt_lines = paths["ground_truth"].read_text().strip().splitlines()
        assert len(hm_lines) == 1
        assert len(gt_lines) == 1
        rec = json.loads(gt_lines[0])
        assert rec["sample_id"] == "synth-000000"
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["n"] == 1
        assert manifest["config"]["seed"] == 42

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = small_config()
        p1 = generate_dataset(cfg, 25, tmp_path / "a")
        p2 = generate_dataset(cfg, 25, tmp_path / "b")
        for key in ("heatmaps", "ground_truth", "manifest"):
            assert p1[key].read_bytes() == p2[key].read_bytes()

    def test_default_config_heatmap_bytes_pinned(self, tmp_path):
        # written by canonical_dumps(heatmap_to_dict(...)) before the direct encoder
        paths = generate_dataset(ScenarioConfig(seed=7), 5, tmp_path)
        data = paths["heatmaps"].read_bytes()
        assert len(data) == 894_637
        assert hashlib.sha256(data).hexdigest() == (
            "376305aac4aa79566b1ee1f299ae584f5f6dbeff5f2409b5bc95f20122a1f2fb"
        )

    def test_default_config_manifest_and_ground_truth_bytes_pinned(self, tmp_path):
        paths = generate_dataset(ScenarioConfig(seed=7), 5, tmp_path)
        pins = {
            "manifest": (483, "cefaa99f2f1a8425926634d81e3b30953fdc1e7a51e92cb0c6c5e95f1129d21b"),
            "ground_truth": (368, "9856e65a172fe4e13cddd4bdfaf73a8c9af88905abdb8b78d2b0eaf5c652144f"),
        }
        for key, (size, digest) in pins.items():
            data = paths[key].read_bytes()
            assert len(data) == size
            assert hashlib.sha256(data).hexdigest() == digest

    def test_spread_spans_many_integer_bins(self):
        cfg = ScenarioConfig(seed=3)
        bins = set()
        for i in range(800):
            h, _, _ = sample_scenario(cfg, i)
            bins.add(int(uncertainty(h).spread))
        assert len(bins) >= 20

    def test_range_result_is_small(self, tmp_path):
        # a range's heatmap text stays in its file; only its ground truth travels back through the pool
        cfg = ScenarioConfig()
        for start in range(0, 10, SCENARIOS_PER_RANGE):
            result = _encode_range((cfg, tmp_path), (start, start + SCENARIOS_PER_RANGE))
            assert result[2] is None
            assert len(pickle.dumps(result)) < 1024
            assert (tmp_path / f"{start}.part").stat().st_size > 10_000

    def test_rejects_bad_n(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset(small_config(), 0, tmp_path)


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = small_config(n_modes_range=(1, 2), weight_floor=0.2, truncate_sigmas=5.0)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip_with_custom_grid(self):
        grid = GridSpec(origin_x=3.25, origin_y=-7.5, resolution=0.25, width=40, height=30)
        cfg = ScenarioConfig(mean_region=((5.0, 6.0), (-2.0, 0.0)), grid=grid, seed=5)
        d = cfg.to_dict()
        assert d["grid"] == grid_to_dict(grid)
        back = ScenarioConfig.from_dict(json.loads(canonical_dumps(d)))
        assert back == cfg
        assert canonical_dumps(back.to_dict()) == canonical_dumps(d)

    @pytest.mark.parametrize(
        "d, named",
        [
            ({"n_modes_range": 3}, "config key n_modes_range"),
            ({"mean_region": [[0, 1], [2]]}, "config key mean_region"),
            ({"sigma_range": [1.0, "x"]}, "config key sigma_range"),
            ({"weight_floor": None}, "config key weight_floor"),
            ({"grid": {"origin_x": 0}}, "config key grid: missing key 'origin_y'"),
            ({"grid": {**grid_to_dict(default_grid()), "resolution": 0}}, "config key grid: resolution"),
            ({"seed": 1.5}, "config key seed"),
            ({"seed": -1}, "config key seed"),
            ({"truncate_sigmas": "4"}, "config key truncate_sigmas"),
        ],
    )
    def test_from_dict_names_bad_key(self, d, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            ScenarioConfig.from_dict(d)

    def test_default_grid_covers_mean_region(self):
        g = default_grid()
        cfg = ScenarioConfig()
        (x0, x1), (y0, y1) = cfg.mean_region
        assert g.origin_x <= x0 and g.origin_y <= y0
        assert g.origin_x + (g.width - 1) * g.resolution >= x1
        assert g.origin_y + (g.height - 1) * g.resolution >= y1

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_modes_range=(0, 3))
        with pytest.raises(ValueError):
            ScenarioConfig(weight_floor=0.3, n_modes_range=(1, 4))
        with pytest.raises(ValueError, match="truncate_sigmas"):
            ScenarioConfig(truncate_sigmas=2.0)
