"""Run one command; print its wall time, CPU time, peak RSS and exit code as JSON.

    python3 -I -S qmbench/launch.py COMMAND [ARG ...]

The benchmark starts every measured process through this small launcher
rather than straight from its driver. Linux folds the peak RSS of the address
space a process had before exec into its ru_maxrss, and a child forked from
the driver starts with the driver's address space, which holds numpy and the
outputs it has checked. Started from there, a child would report at least the
driver's peak instead of its own. The launcher's own peak is far below that
of any qmonitor process.
"""

import json
import os
import subprocess
import sys
import threading
import time

# A command still running after this long is killed; its exit code then reads -9.
TIMEOUT_S = 60.0


def main() -> int:
    argv = sys.argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
