"""The command line, as `python -m circulant_mub` and as the `circulant-mub`
console script (entry).

The CLI runs on one OpenBLAS thread unless one of OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS and OMP_NUM_THREADS is set: OpenBLAS reads them once, when
numpy loads, so the default is set here before cli is imported.  A second
thread costs every process its start-up and doubles the CPU time of the
small products the checks make.  The library never touches the environment.

On platforms with SIGPIPE, entry restores its default action, so a reader that
closes the pipe early (`| head`) ends the CLI as it ends a Unix filter.
"""

import os
import signal
import sys

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def entry() -> None:
    if not any(name in os.environ for name in _THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    from .cli import main

    sys.exit(main())


if __name__ == "__main__":
    entry()
