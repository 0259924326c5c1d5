"""The one process pool: ordered maps over forked workers, for ``--workers``.

A worker that is free claims the next task, so the map ends when its work
does, however the tasks' costs vary."""

from __future__ import annotations

import gc
import os
import pickle
import signal
import struct
import sys
import tempfile
from typing import Callable, Iterator, Sequence

TICKET = struct.Struct("=q")  # a task index, as the tickets file holds it
CLAIM = struct.Struct("=qq")  # (task, worker): below PIPE_BUF, so written atomically


def _serve(fn: Callable, state, tasks: Sequence, j: int, tickets: int, claims: int, out) -> None:
    """Worker ``j``: until the tickets run out, take the next task index from
    the ``tickets`` file, whose offset every worker shares, announce
    ``(task, j)`` on the ``claims`` pipe, run the task and write its pickled
    ``(ok, value)`` outcome to ``out``."""
    while ticket := os.read(tickets, TICKET.size):
        (i,) = TICKET.unpack(ticket)
        os.write(claims, CLAIM.pack(i, j))
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
    len(tasks))`` processes are forked with ``os.fork``. A worker that is
    free claims the next task not yet taken, so no worker idles while
    another still has tasks waiting. ``fn`` and ``state`` are inherited,
    never pickled. Each outcome is pickled on its way back through the
    worker's own pipe, so results must be picklable and should be small.
    An exception that ``fn`` raises is raised here when its task's result
    is taken, after the results before it; a worker that ends before it
    sends a task's outcome raises a RuntimeError that names the task. That
    is at once if the worker ended running the task. If it ended between
    taking the task and announcing it, it is once the other workers have
    run out of tasks and ended; a worker cannot end while an outcome of it
    waits on a full pipe, so then a map whose outcomes are larger than the
    pipes buffer does not end.
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
    pipes: list = []  # the read end of each worker's outcome pipe
    owner: dict[int, int] = {}  # the worker of each task announced and not yet taken
    # Forked workers share this file's offset, so each read of one ticket is
    # an atomic claim of the next task, however many tasks there are.
    tickets = tempfile.TemporaryFile()
    r, w = os.pipe()
    claims, announce = open(r, "rb"), open(w, "wb", buffering=0)
    try:
        tickets.write(b"".join(map(TICKET.pack, range(len(tasks)))))
        tickets.seek(0)
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
                        for p in (claims, *pipes):
                            os.close(p.fileno())
                        with open(w, "wb") as out:
                            _serve(fn, state, tasks, j, tickets.fileno(), announce.fileno(), out)
                        status = 0
                    finally:
                        # so that no finally block, atexit handler or stdio buffer of the parent runs here
                        os._exit(status)
                pids.append(pid)
            finally:
                os.close(w)
        announce.close()  # so that the claims pipe ends when the last worker does
        for i in range(len(tasks)):
            try:
                while i not in owner:
                    task, worker = CLAIM.unpack(claims.read(CLAIM.size))
                    owner[task] = worker
                ok, value = pickle.load(pipes[owner.pop(i)])
            except (struct.error, EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"the worker of task {i} ended before it sent the task's result") from None
            if not ok:
                raise value
            yield value
    finally:
        for f in (tickets, claims, announce, *pipes):
            f.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        gc.unfreeze()
