"""Spawns the benchmark's commands one at a time and reaps them with os.wait4.

It runs as a small process of its own. A child spawned with vfork semantics
shares its parent's memory until it execs, and Linux counts that memory in
the child's `ru_maxrss`; spawned from the harness, whose memory grows with
its references, every command would report at least the harness's size.
Spawned from here, a command's peak RSS is its own.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout, until stdin closes. A request names the argv, the files for the
three standard streams and a timeout; the child runs in its own process
group, which is killed when the timeout expires.
"""

import json
import os
import signal
import sys
import threading
import time


def run(req: dict) -> dict:
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, req["stdin"], os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], wr, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], wr, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions, setpgroup=0)
    killer = threading.Timer(req["timeout"], os.killpg, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return {
        "killed": os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL,
        "rc": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
