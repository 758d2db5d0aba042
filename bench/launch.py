"""A small process that starts the measured processes and reports on them.

Linux carries the resident size of the process that starts a program into
that program's peak-memory figure, so the benchmark, which holds all the
generated inputs, must not start the processes whose peak it reports.
This launcher is started first, while everything is small, holds no data,
and answers one JSON line per command on stdin:

    {"cmd": [...], "stdout": PATH or null, "timeout": SECONDS}
 -> {"returncode": int, "wall_s": float, "maxrss_kb": int, "stderr": str,
     "reference_s": float}

wall_s runs from the start of the process to its exit; reference_s is the
mean time of the reference loop (calib.py) just before and just after it.
The benchmark pins itself to one CPU, so the samples and the process share
that CPU; sampling while the process runs would compete with it for it.
"""

import json
import os
import subprocess
import sys
import threading
import time

import calib


def run(request: dict) -> dict:
    stdout = open(request["stdout"], "w") if request.get("stdout") else subprocess.DEVNULL
    before = calib.reference()
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=stdout, stderr=subprocess.PIPE)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        # read stderr to the end before reaping, so a chatty child cannot block
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
    finally:
        if stdout is not subprocess.DEVNULL:
            stdout.close()
    return {
        "reference_s": (before + calib.reference()) / 2,
        "returncode": proc.returncode,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "stderr": err.decode(errors="replace")[-2000:],
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
