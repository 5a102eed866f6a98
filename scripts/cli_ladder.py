#!/usr/bin/env python3
"""Time a fixed ladder of ``posmon`` CLI calls, one fresh process each.

Each call runs as ``python -m posmon.cli <argv>`` on the ``src`` tree
beside this script, under a timeout and an address-space cap
(``RLIMIT_AS``) set on that child alone, ``TIMEOUT_S`` and ``CAP_MB``
below.  The child's peak resident set comes from ``os.wait4``.  One JSON
line per call gives its argv, the host wall time, the exit code (None
when the timeout stopped it), the peak RSS and whether the child printed
a traceback.  ``{tmp}`` in an argv names a temporary directory that the
script makes and removes, so a certificate written by one call can be
verified by the next.

Usage (stdlib only, no options):

    python scripts/cli_ladder.py

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
    ("probe", "nm:3,5", "HFM", "--bound", "20000"),
    ("probe", "nm:3,5", "HFM", "--bound", "100000"),
    ("probe", "nm:3,5", "HFM", "--bound", "10000000"),
    ("probe", "nm:3,5,7", "ATM", "--bound", "1000000"),
    ("probe", "nm:3,5", "LFM", "--bound", "20000"),
    ("probe", "nm:7,9", "LFM", "--bound", "20000"),
    ("probe", "nm:1", "HFM", "--bound", "20000"),
    ("probe", "nm:1", "LFM", "--bound", "100000"),
    ("probe", "cone:NxZ", "HFM", "--bound", "12,40"),
    ("probe", "cone:NxZ", "LFM", "--bound", "12,40"),
    ("probe", "conductive:Z2:a=(1,0)", "HFM", "--bound", "12,40"),
    ("atoms", "malphabeta:2/3", "--depth", "60"),
    ("atoms", "malphabeta:2/3", "--depth", "3000"),
    ("atoms", "malphabeta:3/4", "--depth", "3000"),
    ("atoms", "malphabeta:2/3", "--depth", "5000"),
    ("atoms", "nearly", "--depth", "160"),
    ("break", "mq:2/3", "--steps", "400", "-o", "{tmp}/b.json"),
    ("verify", "{tmp}/b.json"),
    ("chain", "mq:2/3", "--depth", "3000", "-o", "{tmp}/c.json"),
    ("verify", "{tmp}/c.json"),
    ("factorize", "m0", "1/3317044064679887385962123"),
    ("lengths", "cone:NxZ", "(1000000000000,0)@prio=0"),
    ("lengths", "nm:7,9,11", "10001"),
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
    with tempfile.TemporaryDirectory() as tmp:
        for argv in LADDER:
            out = run([a.replace("{tmp}", tmp) for a in argv], TIMEOUT_S, CAP_MB << 20)
            print(json.dumps({**out, "args": list(argv)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
