"""Child-process launcher for the benchmark.

Linux carries a process's ru_maxrss high-water mark across fork and exec,
so a child forked from the benchmark process, which holds numpy, scipy
and the reference data, would report at least the benchmark's own peak.
The benchmark therefore starts this launcher while it is still small and
has it start every timed child. Requests and replies are JSON lines:

    {"argv": [...], "env": {...}, "cwd": "...", "stdout": path|null,
     "stderr": path|null, "timeout": seconds}
    {"wall_s": 1.23, "rss_mib": 95.1, "rc": 0}

Only the standard library is imported here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# One BLAS/OpenMP thread for the benchmark and every child: two pools on
# two shared cores make the numpy-heavy paths swing by tens of percent.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Sample:
    wall_s: float
    rss_mib: float
    rc: int


def _open(path: str | None):
    return open(path, "wb") if path else open(os.devnull, "wb")


def run_child(req: dict) -> dict:
    """Run one child to its end: wall time from launch to exit, its
    ru_maxrss, and its exit code. A child past its timeout is killed."""
    with _open(req.get("stdout")) as out, _open(req.get("stderr")) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            env=req["env"], cwd=req["cwd"],
        )
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mib": usage.ru_maxrss / 1024, "rc": proc.returncode}


def serve(requests, replies) -> None:
    for line in requests:
        replies.write(json.dumps(run_child(json.loads(line))) + "\n")
        replies.flush()


class Launcher:
    """Client end: owns the launcher process and waits for it on close."""

    def __init__(self, env: dict, cwd: str, timeout: float):
        self.env, self.cwd, self.timeout = env, cwd, timeout
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout: str | None = None, stderr: str | None = None) -> Sample:
        req = {"argv": argv, "env": self.env, "cwd": self.cwd, "stdout": stdout,
               "stderr": stderr, "timeout": self.timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return Sample(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
