"""The one process pool: ordered maps over forked workers, for ``--workers``."""

from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
from typing import Callable, Iterator, Sequence


def _serve(fn: Callable, state, tasks: Sequence, j: int, n: int, out) -> None:
    """Worker ``j`` of ``n``: write the pickled ``(ok, value)`` outcome of
    tasks j, j + n, j + 2n, ... to ``out``, one at a time, in that order."""
    for i in range(j, len(tasks), n):
        try:
            outcome = (True, fn(state, tasks[i]))
        except Exception as e:
            outcome = (False, e)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if not outcome[0]:
                pickle.loads(data)  # an exception may pickle and still fail to unpickle
        except Exception:
            data = pickle.dumps((False, RuntimeError(f"task {i}: {outcome[1]!r} cannot be pickled")))
        out.write(data)
        out.flush()


def map_ordered(fn: Callable, tasks: Sequence, workers: int, state=None) -> Iterator:
    """``fn(state, task)`` for each of ``tasks``, yielded in task order.

    With more than one worker and more than one task, ``n = min(workers,
    len(tasks))`` processes are forked with ``os.fork``, and worker j runs
    tasks j, j + n, j + 2n, ... in turn. ``fn`` and ``state`` are inherited,
    never pickled. Each outcome is pickled on its way back through the
    worker's own pipe, so results must be picklable and should be small.
    An exception that ``fn`` raises is raised here when its task's result
    is taken, after the results before it; a worker that ends before it
    sends a task's outcome raises a RuntimeError that names the task.
    With one worker or one task, or where ``os.fork`` does not exist, the
    calls run in this process, each when its result is taken.

    However the map ends (done, raised, or closed by a caller that stops
    taking results early), every worker still running is killed, and every
    worker has been reaped when control returns to the caller.
    """
    if workers < 2 or len(tasks) < 2 or not hasattr(os, "fork"):
        for task in tasks:
            yield fn(state, task)
        return
    n = min(workers, len(tasks))
    pids: list[int] = []
    pipes: list = []  # the read end of each worker's pipe
    try:
        # Frozen objects are left alone by the collector, so forked workers
        # do not copy the parent's pages just to scan them (see gc.freeze).
        gc.freeze()
        # what the parent has buffered is written once, not again by a worker
        sys.stdout.flush()
        sys.stderr.flush()
        for j in range(n):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        for p in pipes:
                            os.close(p.fileno())
                        with open(w, "wb") as out:
                            _serve(fn, state, tasks, j, n, out)
                        status = 0
                    finally:
                        # so that no finally block, atexit handler or stdio buffer of the parent runs here
                        os._exit(status)
                pids.append(pid)
            finally:
                os.close(w)
        for i in range(len(tasks)):
            try:
                ok, value = pickle.load(pipes[i % n])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"the worker of task {i} ended before it sent the task's result") from None
            if not ok:
                raise value
            yield value
    finally:
        for p in pipes:
            p.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        gc.unfreeze()
