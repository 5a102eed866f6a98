#!/usr/bin/env python3
"""Time a fixed ladder of ``posmon probe`` CLI calls, one fresh process each.

Each call runs as ``python -m posmon.cli probe ...`` on the ``src`` tree
beside this script, under a timeout and an address-space cap
(``RLIMIT_AS``) set on that child alone, ``TIMEOUT_S`` and ``CAP_MB``
below.  The child's peak resident set comes from ``os.wait4``.  One JSON
line per call gives its arguments, the host wall time, the exit code
(None when the timeout stopped it), the peak RSS and whether the child
printed a traceback.

Usage (stdlib only, no options):

    python scripts/probe_ladder.py

Run it on two checkouts to compare them, and run it again for repeats;
the exit codes and verdicts should agree, the times and sizes are what
changes.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 20.0
CAP_MB = 1024
LADDER = (
    ("nm:3,5", "HFM", "20000"),
    ("nm:3,5", "HFM", "100000"),
    ("nm:3,5", "LFM", "20000"),
    ("nm:7,9", "LFM", "20000"),
    ("nm:1", "HFM", "20000"),
    ("nm:1", "LFM", "100000"),
    ("cone:NxZ", "HFM", "12,40"),
    ("cone:NxZ", "LFM", "12,40"),
    ("conductive:Z2:a=(1,0)", "HFM", "12,40"),
)


def run(args: list[str], timeout: float, cap_bytes: int) -> dict:
    """Run one CLI call; its wall time, exit code and peak RSS."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # stderr goes to a file, not a pipe: a long traceback could fill a pipe
    # and block the child until the timeout.
    errfile = tempfile.TemporaryFile()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "posmon.cli", *args],
        stdout=subprocess.DEVNULL, stderr=errfile, env=env, preexec_fn=limit,
    )
    deadline = start + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            child.send_signal(signal.SIGKILL)
            pid, status, usage = os.wait4(child.pid, 0)
            timed_out = True
            break
        time.sleep(0.005)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    errfile.seek(0)
    err = errfile.read().decode(errors="replace")
    errfile.close()
    return {
        "args": args,
        "wall_s": round(wall, 3),
        "exit": None if timed_out else child.returncode,
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "traceback": "Traceback" in err,
    }


def main() -> int:
    for instance, prop, bound in LADDER:
        args = ["probe", instance, prop, "--bound", bound]
        print(json.dumps(run(args, TIMEOUT_S, CAP_MB << 20)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
