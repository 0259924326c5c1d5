"""The process pool forks its workers, so they see the parent's module state
as it is when the map starts, and the map's state without pickling it."""

import multiprocessing
import sys

import pytest

from heatpred.pool import map_ordered

SET_AT_RUN_TIME = None


def read_global(state, task):
    return task, SET_AT_RUN_TIME


def apply_state(state, task):
    return state(task)


def test_forked_workers_see_state_set_at_run_time(monkeypatch):
    # a worker that imported this module afresh would read None
    monkeypatch.setattr(sys.modules[__name__], "SET_AT_RUN_TIME", "set by the parent")
    assert list(map_ordered(read_global, [0, 1, 2], workers=2)) == [(i, "set by the parent") for i in range(3)]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the platform cannot fork")
@pytest.mark.parametrize("workers", [1, 2])
def test_state_reaches_workers_unpickled(workers):
    # a lambda cannot be pickled, so forked workers must inherit it
    assert list(map_ordered(apply_state, [1, 2, 3], workers, state=lambda task: task * 10)) == [10, 20, 30]
