"""The heatmap-set reader: its results and its input mass table do not depend
on the worker count, and a set whose ground truth fails keeps its mass entry."""

import numpy as np
import pytest

from heatpred.heatmap import GridSpec, heatmap_to_dict, uncertainty
from heatpred.io import write_jsonl
from heatpred.sets import read_sets
from helpers import random_heatmap


def spread(sid, h, gt):
    return uncertainty(h).spread, gt


def write_set(root, tag: str, n: int, rng: np.random.Generator):
    """``n`` heatmaps, written in reverse id order, every third stored at 1.5
    times unit mass, and their ground truth; returns the two paths."""
    root.mkdir()
    grid = GridSpec(-5.0, -5.0, 0.5, 20, 20)
    heatmaps, truths = [], []
    for i in range(n):
        d = heatmap_to_dict(random_heatmap(rng, grid, 30), f"{tag}-{i:03d}")
        if i % 3 == 0:
            d["cells"] = [[j, 1.5 * p] for j, p in d["cells"]]
        heatmaps.append(d)
        truths.append({"sample_id": d["sample_id"], "gt": [0.25 * i, -0.5 * i]})
    paths = root / "heatmaps.jsonl", root / "ground_truth.jsonl"
    write_jsonl(paths[0], heatmaps[::-1])
    write_jsonl(paths[1], truths)
    return paths


def test_results_and_input_mass_do_not_depend_on_workers(tmp_path):
    rng = np.random.default_rng(5)
    good = write_set(tmp_path / "a", "a", 12, rng)
    bad = write_set(tmp_path / "b", "b", 9, rng)
    lines = bad[1].read_text().splitlines()
    lines[3] = '{"sample_id": "b-003", "gt": [1.0]}'
    bad[1].write_text("\n".join(lines) + "\n")

    seen = [read_sets([good, bad], spread, workers) for workers in (1, 2, 3)]
    (results, masses), *others = seen
    for other_results, other_masses in others:
        assert other_results[0] == results[0]
        assert type(other_results[1]) is type(results[1]) and str(other_results[1]) == str(results[1])
        assert other_masses == masses

    rows, failure = results
    assert [sid for sid, _ in rows] == [f"a-{i:03d}" for i in range(12)]
    assert [list(gt) for _, (_, gt) in rows] == [[0.25 * i, -0.5 * i] for i in range(12)]
    assert isinstance(failure, ValueError)
    assert f"{bad[1]}:4 (sample b-003): gt: [1.0] is not a list of 2 values" in str(failure)
    # the failing set's mass is recorded before its ground truth is checked
    assert set(masses) == {str(good[0]), str(bad[0])}
    assert masses[str(good[0])]["n_above_tol"] == 4
    assert masses[str(bad[0])]["n_above_tol"] == 3
    assert masses[str(bad[0])]["max_abs_mass_error"] == pytest.approx(0.5)
