"""Starts the benchmark's program processes and reports their resource use.

Reads one JSON request per line on stdin, ``{"argv", "env", "log",
"timeout"}``, runs ``argv`` with stderr to ``log``, and answers with one JSON
line, ``{"seconds", "rss_mb", "code"}``. ``rss_mb`` is the peak RSS of the
process and of the children it waited for, such as pool workers. Exits at
the end of its input.

The benchmark starts this process before it builds its corpus, while it is
still small: a child's peak RSS starts at its parent's RSS at fork, so a
program started from the benchmark process itself would report that size.
A process still running after ``timeout`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def launch(argv: list[str], env: dict, log: str, timeout: float) -> dict:
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(1.0, timeout), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(launch(**json.loads(line))), flush=True)
