"""Start and measure the benchmark's child processes, one at a time.

    python3 launcher.py   # requests on stdin, one JSON object per line

Each request {"cmd", "cwd", "stdout", "stderr", "limit"} runs cmd to
completion, with its output in the named files, and answers with one line
{"wall", "cpu", "rss_mb", "rc", "timed_out"}.  A command still running
after `limit` seconds is killed.

The children are started here, not in run.py, because of how Linux
reports peak RSS: a child started with vfork (as subprocess does) takes
its parent's peak RSS as its own starting value when it execs.  This
process stays a bare interpreter, so a child's ru_maxrss is its own; from
run.py, which holds corpora and span dumps, it would not be.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(cmd, cwd, stdout, stderr, limit):
    killed = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode,
            "timed_out": killed.is_set()}


def main():
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
