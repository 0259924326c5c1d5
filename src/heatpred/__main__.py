"""The process entry: ``python -m heatpred`` and the ``heatpred`` script."""

import gc
import sys

from .cli import main


def run() -> None:
    """Exit the process with the code of :func:`heatpred.cli.main`.

    However the run ends, ``--help`` and ``--version`` included, every object
    still alive is frozen first, so that the collections of interpreter
    teardown do not walk numpy, the modules and the run's data again. The
    exit itself is the normal one: streams are flushed and atexit handlers run.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
