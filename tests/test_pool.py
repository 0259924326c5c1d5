"""The process pool forks its workers, so they see the parent's module state
as it is when the map starts, and the map's state without pickling it; a
free worker claims the next task, results come back in task order, and every
worker is reaped however the map ends."""

import os
import signal
import sys
import threading
import time

import pytest

from heatpred import pool
from heatpred.pool import map_ordered

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")

SET_AT_RUN_TIME = None


class TimedOut(Exception):
    pass


@pytest.fixture
def deadline():
    """Fail the test, instead of hanging, once it has run for 20 s: the
    exception is raised again every second, until the test has unwound."""

    def expire(signum, frame):
        raise TimedOut("the map did not end within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 20, 1)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def read_global(state, task):
    return task, SET_AT_RUN_TIME


def apply_state(state, task):
    return state(task)


def test_forked_workers_see_state_set_at_run_time(monkeypatch):
    # a worker that imported this module afresh would read None
    monkeypatch.setattr(sys.modules[__name__], "SET_AT_RUN_TIME", "set by the parent")
    assert list(map_ordered(read_global, [0, 1, 2], workers=2)) == [(i, "set by the parent") for i in range(3)]


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
def test_state_reaches_workers_unpickled(workers):
    # a lambda cannot be pickled, so forked workers must inherit it
    assert list(map_ordered(apply_state, [1, 2, 3], workers, state=lambda task: task * 10)) == [10, 20, 30]


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its pickle: its one stored arg is not two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


RAISED = {
    "picklable": (ValueError("task 3 is bad"), ValueError, "task 3 is bad"),
    "unpicklable": (ValueError(lambda: 3), RuntimeError, r"task 3: ValueError\(<function"),
    "not rebuildable": (TwoArgError(1, 2), RuntimeError, r"task 3: TwoArgError\('1 and 2'\) cannot be pickled"),
}


def raise_at_3(error, task):
    if task == 3:
        raise error
    return task * 2


@needs_fork
@pytest.mark.parametrize("case", sorted(RAISED))
def test_exception_surfaces_at_its_task(deadline, case):
    error, kind, message = RAISED[case]
    results = map_ordered(raise_at_3, range(6), 2, state=error)
    assert [next(results) for _ in range(3)] == [0, 2, 4]
    with pytest.raises(kind, match=message):
        next(results)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def exit_at_2(sleep_s, task):
    time.sleep(sleep_s)
    if task == 2:
        os._exit(3)
    return task


@needs_fork
@pytest.mark.parametrize("size, sleep_s", [(6, 0), (400, 0.01)], ids=["6 tasks", "400 sleeping tasks"])
def test_worker_that_dies_names_its_task(deadline, size, sleep_s):
    t0 = time.perf_counter()
    results = map_ordered(exit_at_2, range(size), 2, state=sleep_s)
    assert [next(results) for _ in range(2)] == [0, 1]
    with pytest.raises(RuntimeError, match="the worker of task 2 ended before it sent the task's result"):
        next(results)
    assert time.perf_counter() - t0 < 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(state, task):
    return task * task


class ExitBeforeAnnouncing2:
    """Stands in for ``pool.CLAIM``: the worker that takes task 2 ends
    before it announces the task."""

    size, unpack = pool.CLAIM.size, pool.CLAIM.unpack

    def __init__(self, claim):
        self.claim = claim

    def pack(self, task, worker):
        if task == 2:
            os._exit(3)
        return self.claim.pack(task, worker)


@needs_fork
def test_worker_that_dies_before_announcing_names_its_task(deadline, monkeypatch):
    monkeypatch.setattr(pool, "CLAIM", ExitBeforeAnnouncing2(pool.CLAIM))
    results = map_ordered(square, range(6), 2)
    assert [next(results) for _ in range(2)] == [0, 1]
    with pytest.raises(RuntimeError, match="the worker of task 2 ended before it sent the task's result"):
        next(results)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sleep_after_0(state, task):
    if task:
        time.sleep(30)
    return task


@needs_fork
def test_close_stops_and_reaps_the_workers(deadline):
    results = map_ordered(sleep_after_0, range(4), 2)
    assert next(results) == 0
    t0 = time.perf_counter()
    results.close()
    assert time.perf_counter() - t0 < 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def block(state, task):
    return bytes([task]) * state


@needs_fork
def test_results_larger_than_a_pipe_buffer(deadline):
    size = 256 * 1024
    results = list(map_ordered(block, range(64), 2, state=size))
    assert results == [bytes([i]) * size for i in range(64)]


def pid(state, task):
    return task, os.getpid()


def pid_once_all_checked_in(checkins, task):
    """Check this process in under ``checkins``, then hold the task until 3
    processes have, so that each of 3 tasks must run in its own process."""
    (checkins / str(os.getpid())).touch()
    while len(os.listdir(checkins)) < 3:
        time.sleep(0.01)
    return task, os.getpid()


@needs_fork
def test_more_workers_than_tasks(deadline, tmp_path):
    results = list(map_ordered(pid_once_all_checked_in, range(3), 8, state=tmp_path))
    assert [task for task, _ in results] == [0, 1, 2]
    pids = {p for _, p in results}
    assert len(pids) == 3 and os.getpid() not in pids


def slow_task_0(state, task):
    if task == 0:
        time.sleep(0.5)
    return os.getpid()


@needs_fork
def test_idle_worker_takes_the_remaining_tasks(deadline):
    slow, *rest = map_ordered(slow_task_0, range(10), 2)
    assert len(set(rest)) == 1 and slow not in rest


@needs_fork
def test_more_tasks_than_the_claims_pipe_buffers(deadline):
    # 20,000 claim records of 16 bytes are more than a 64 KiB pipe holds
    assert list(map_ordered(square, range(20_000), 2)) == [i * i for i in range(20_000)]


def test_no_thread_outlives_or_serves_the_map(deadline):
    before = threading.active_count()
    results = map_ordered(pid, range(8), 2)
    next(results)
    assert threading.active_count() == before
    assert len(list(results)) == 7
    assert threading.active_count() == before
