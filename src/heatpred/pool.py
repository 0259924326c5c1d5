"""The one process pool: ordered maps over forked workers, for ``--workers``."""

from __future__ import annotations

import gc
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Sequence

# Workers are forked wherever the platform can fork, whatever its default start
# method (forkserver on Linux from Python 3.14), so they share the parent's heap.
_CONTEXT = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)

# The function and read-only state of the map this worker serves, set once
# by the pool's initializer.
_job: tuple[Callable, object] | None = None


def _start(fn: Callable, state) -> None:
    global _job
    _job = (fn, state)


def _run(task):
    fn, state = _job
    return fn(state, task)


def map_ordered(fn: Callable, tasks: Sequence, workers: int, state=None) -> Iterator:
    """``fn(state, task)`` for each of ``tasks``, yielded in task order.

    With more than one worker and more than one task the calls run in one
    pool of forked processes. ``fn`` and ``state`` reach each worker once,
    when it starts: a forked worker inherits them and nothing is pickled;
    where the platform cannot fork they are pickled once per worker, so they
    must be picklable there. Each task and each result is pickled on its way
    to and from a worker, so they must be picklable and should be small.
    Otherwise the calls run in this process, each when its result is taken.

    A caller that stops taking results early and closes the iterator cancels
    the calls not yet started; once ``close()`` returns, the pool has shut
    down and no call is still running.
    """
    if workers > 1 and len(tasks) > 1:
        # Frozen objects are left alone by the collector, so forked workers
        # do not copy the parent's pages just to scan them (see gc.freeze).
        gc.freeze()
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(tasks)), mp_context=_CONTEXT, initializer=_start, initargs=(fn, state)
            ) as ex:
                yield from ex.map(_run, tasks)
        finally:
            gc.unfreeze()
    else:
        for task in tasks:
            yield fn(state, task)
