#!/usr/bin/env python3
"""A fixed task that measures how fast the host is at the moment it runs.

``run.py`` times this script as a process between the heatpred runs and
divides their times by it (see ``normalise`` there). It resembles one heatpred
command in miniature: an interpreter start with numpy imported, a JSON encode
and decode of cell records, and array work on a grid-sized array. It imports
nothing from heatpred, so a change to the program cannot change it. Its
inputs are fixed; editing it changes every normalised figure.
"""

import json

import numpy as np

rng = np.random.default_rng(0)
xy = rng.random((12000, 2))
p = np.exp(-((xy - 0.5) ** 2).sum(axis=1) * 8.0)
cells = [{"x": round(x, 6), "y": round(y, 6), "p": q} for (x, y), q in zip(xy.tolist(), p.tolist())]
cells = json.loads(json.dumps(cells, sort_keys=True, separators=(",", ":")))
for _ in range(30):
    peaks = xy[np.argsort(-p)[:6]]
    d = ((xy[:, None, :] - peaks[None, :, :]) ** 2).sum(axis=2)
    p = p * (d.min(axis=1) > 1e-4)
