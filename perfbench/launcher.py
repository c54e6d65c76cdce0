"""Runs the benchmark's commands from a small process, one at a time.

A child's peak RSS (`ru_maxrss`) counts the memory of the process it was
forked from. The benchmark process holds ccskit, its inputs and the
reference heap, so it does not fork the timed commands itself: it starts
this launcher first, while it is still small, and sends it one JSON request
a line:

    {"args": [...], "cwd": ..., "env": {...}, "out": path, "err": path, "timeout": s}

Each reply is one line, {"code": int, "wall_s": float, "rss_mb": float}. The
wall time covers start to reap. The launcher exits when its input closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as fout, open(req["err"], "wb") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["args"], cwd=req["cwd"], env=req["env"],
                stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr,
            )
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
