#!/usr/bin/env python3
"""Starts and times the processes of one ``run.py`` invocation.

Usage: started by ``run.py``; reads one JSON request per line on stdin
(``argv``, ``cwd``, ``env``, ``kill_after``) and answers each with one JSON
line: wall time, exit code, CPU time and peak RSS of the command.

On Linux a process's peak RSS (``ru_maxrss``) starts from the RSS of the
process it was forked from. ``run.py`` holds numpy, heatpred and the generated
inputs in memory, which lifted the peak RSS of small commands to its own.
This launcher is started before any of that is loaded, so the floor it passes
on is that of a bare interpreter, about 10 MB.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

running = []  # process group of the command in flight, if any


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def on_term(signum, frame):
    for pgid in running:
        kill_group(pgid)
    sys.exit(1)


def run(argv: list, cwd: str, env: dict, kill_after: float) -> dict:
    """Run one command to its exit; it is killed after ``kill_after`` seconds."""
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        running.append(proc.pid)
        timer = threading.Timer(kill_after, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    kill_group(proc.pid)  # pool workers a crashed command left behind
    running.remove(proc.pid)
    return {
        "wall_s": wall,
        "rc": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def main() -> int:
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
