"""Spawn-and-wait service for the benchmark's CLI children.

Reads one JSON request per line on stdin ({"argv", "env", "stdout",
"stderr"}), runs the child to completion, and answers one JSON line:
{"exit", "wall_ms", "maxrss_kb"}.

It runs as a process of its own, started before the benchmark grows, because
a child inherits its parent's RSS high-water mark when it execs (posix_spawn
and fork alike), and the benchmark process reaches the size of its largest
in-process op. Children of this small process report their own peak.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time

CHILD_TIMEOUT_S = 150.0


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(
                req["argv"][0],
                req["argv"],
                req["env"],
                file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(pid, 0)
            finally:
                timer.cancel()
            wall_ms = (time.perf_counter() - t0) * 1000.0
        reply = {"exit": os.waitstatus_to_exitcode(status), "wall_ms": wall_ms, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
