"""A closed loop with one client: one CLI process at a time, reaped with os.wait4.

`os.wait4` returns the resource usage of the one child it reaps, including
the pool workers that child reaped itself, so CPU time and peak RSS are
exact per command. `getrusage(RUSAGE_CHILDREN)` is not used: its
`ru_maxrss` is a running maximum over every child reaped so far. The
spawning and reaping happen in `launcher.py`, a small process of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCH = "import sys; from conesemi.cli import main; sys.exit(main())"


class Timeout(Exception):
    pass


@dataclass
class Result:
    rc: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_kb: int


class Runner:
    """Runs `python -c ...` with the checkout's `src/` on PYTHONPATH and the
    standard streams on files in the work directory. Use as a context
    manager: leaving it stops the launcher and waits for it."""

    def __init__(self, python: str, src: Path, work: Path, deadline: float):
        self.python = python
        self.work = work
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items()
               if k not in ("CONESEMI_CAPACITY", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
        env["PYTHONPATH"] = str(src)
        env["TMPDIR"] = str(work)
        self.empty = self.stdin_file("empty", None)
        self.launcher = subprocess.Popen(
            [python, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def stdin_file(self, name: str, data: bytes | None) -> Path:
        if data is None:
            path = self.work / "empty"
            data = b""
        else:
            path = self.work / name
        path.write_bytes(data)
        return path

    def run(self, args: list, stdin: Path | None = None, code: str = LAUNCH) -> Result:
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise Timeout("the run's time budget is spent")
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {
            "argv": [self.python, "-c", code, *args],
            "stdin": str(stdin or self.empty),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": budget,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if reply["killed"]:
            raise Timeout(f"killed at the run's deadline: {args}")
        return Result(reply["rc"], out_path.read_bytes(), err_path.read_bytes(),
                      reply["wall"], reply["cpu"], reply["rss_kb"])
