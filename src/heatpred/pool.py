"""The one process pool: ordered maps over forked workers, for ``--workers``."""

from __future__ import annotations

import gc
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Sequence

# Workers are forked wherever the platform can fork, whatever its default start
# method (forkserver on Linux from Python 3.14), so they share the parent's heap.
_CONTEXT = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)

# Tasks per worker: several, so that a worker whose tasks cost more does not
# finish long after the others.
RANGES_PER_WORKER = 4


def map_ordered(fn: Callable, tasks: Sequence, workers: int) -> Iterator:
    """``fn(task)`` for each of ``tasks``, yielded in task order.

    With more than one worker and more than one task the calls run in one
    pool of forked processes, so ``fn``, the tasks and the results must be
    picklable. Otherwise they run in this process, each when its result is
    taken. A caller that stops taking results early cancels the calls not yet
    started.
    """
    if workers > 1 and len(tasks) > 1:
        # Frozen objects are left alone by the collector, so forked workers
        # do not copy the parent's pages just to scan them (see gc.freeze).
        gc.freeze()
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks)), mp_context=_CONTEXT) as ex:
                yield from ex.map(fn, tasks)
        finally:
            gc.unfreeze()
    else:
        yield from map(fn, tasks)
