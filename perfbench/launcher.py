"""Spawns the measured processes on behalf of run.py.

A child's peak RSS as reported by wait4 includes the memory of the process
that spawned it (exec keeps the old address space's high-water mark), and
run.py grows as it parses reports of up to 23 MB.  This small process is
started first and does all the spawning, so peak_rss_mb is the child's own.

Protocol: one JSON request per line on stdin, {"argv", "env", "log"}; one
JSON Sample per line on stdout.  It exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

CHILD_TIMEOUT_S = 170


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    started_epoch: float


def spawn(argv: list[str], env: dict, log_path: str) -> Sample:
    """Run one process to completion: wall time from spawn to exit, and the
    child's own CPU time and peak RSS from wait4."""
    with open(log_path, "wb") as log:
        started_epoch = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, started_epoch)


def main() -> int:
    # terminate() from run.py unwinds through spawn(), which kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        request = json.loads(line)
        sample = spawn(request["argv"], request["env"], request["log"])
        print(json.dumps(asdict(sample)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
