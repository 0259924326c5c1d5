"""The process pool forks its workers, so they see the parent's module state
as it is when the map starts."""

import sys

from heatpred.pool import map_ordered

SET_AT_RUN_TIME = None


def read_global(task):
    return task, SET_AT_RUN_TIME


def test_forked_workers_see_state_set_at_run_time(monkeypatch):
    # a worker that imported this module afresh would read None
    monkeypatch.setattr(sys.modules[__name__], "SET_AT_RUN_TIME", "set by the parent")
    assert list(map_ordered(read_global, [0, 1, 2], workers=2)) == [(i, "set by the parent") for i in range(3)]
