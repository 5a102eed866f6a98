"""posmon benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --deadline-s D --workload NAME --seed N
                             --seconds S --trace 0|1

Workloads (see workloads.py and the "why" lines in BENCHMARK.json):
numerical-grid, lex-plane, certificates, cli-gallery.

All times are scaled to a reference host speed (calibration.py); the
provenance line gives the measured host speed.

--trace 0 measures end to end.  Set-up is timed SETUP_RUNS times, each in
a fresh interpreter up to its first query, and reported as the median.
Then one fresh interpreter issues queries closed-loop, one at a time,
until it has issued at least 100 and was charged S seconds (the
deadline-bound queries bring one deadline each on top).
Every answer is checked against an independent reference; a wrong
answer, an exception or a query past the deadline is a failed query.
A deadline-bound query that reaches the deadline is not failed: that is
its undecided ("unknown") answer, charged the deadline.  A failed query
counts as +inf in the latency percentiles and is charged the whole
deadline in queries_per_s, so failing fast gains nothing.  An exception
or a wrong answer makes the result incorrect.  ok_frac is the share of
queries that did not fail, decided_frac the share with an exact answer.

--trace 1 runs a fixed query prefix twice, untraced and traced, and
reports the per-layer span and cache metrics of the traced run plus the
tracing overhead.  Spans are written to .bench_build/perfbench/.

The last line of standard output is the JSON result; the line before it
records provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

from calibration import Scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("numerical-grid", "lex-plane", "certificates", "cli-gallery")
SETUP_RUNS = 5
# queries a traced run issues per requested second, about what the seed
# commit answers untraced; a fixed count gives both sides identical work
TRACE_QUERIES_PER_S = {
    "numerical-grid": 5000,
    "lex-plane": 200,
    "certificates": 300,
    "cli-gallery": 200,
}
# a run ends within this many seconds, or fails
RUN_TIMEOUT_S = 170
STARTED = time.monotonic()


def _time_left() -> float:
    return max(1.0, RUN_TIMEOUT_S - (time.monotonic() - STARTED))


def _child(args: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=_time_left(),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(lines[-1])


def _setup_seconds(base: list[str]) -> float:
    """Interpreter start, imports and input generation up to the first query."""
    samples = []
    for _ in range(SETUP_RUNS):
        factor = Scale().factor
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), *base, "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append((time.perf_counter() - t0) * factor)
            proc.stdout.read()
            code = proc.wait(timeout=_time_left())
        if line.strip() != "ready" or code != 0:
            raise SystemExit("set-up run failed")
    return statistics.median(samples)


def _percentile(sorted_ms: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_ms[max(0, math.ceil(p * len(sorted_ms)) - 1)]


def end_to_end(report: dict, setup_s: float) -> dict[str, float]:
    lat = report["latencies_ns"]
    failed = set(report["failed"])
    ms = sorted(math.inf if i in failed else x / 1e6 for i, x in enumerate(lat))
    return {
        "queries_per_s": len(lat) / (sum(lat) / 1e9),
        "query_p50_ms": _percentile(ms, 0.5),
        "query_p90_ms": _percentile(ms, 0.9),
        "ok_frac": 1 - len(failed) / len(lat),
        "decided_frac": report["decided"] / len(lat),
        "setup_s": setup_s,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }


def overhead_frac(untraced: dict, traced: dict) -> float:
    """Extra time the spans cost, over the queries both runs answered in
    time."""
    skip = set(chain(untraced["failed"], traced["failed"], untraced["at_deadline"], traced["at_deadline"]))
    pairs = [
        (u, t) for i, (u, t) in enumerate(zip(untraced["latencies_ns"], traced["latencies_ns"])) if i not in skip
    ]
    return sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1


def provenance(workload: str, seed: int, report: dict) -> dict:
    src = ROOT / "src" / "posmon"
    files = sorted(src.glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "host_speed": report["host_speed"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_posmon_lines": sum(len(f.read_text().splitlines()) for f in files),
        "src_posmon_sha256": digest.hexdigest(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # look for a repository in the checkout only, not above it
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline-s", type=float, required=True, help="per-query deadline, reference seconds")
    args = p.parse_args()

    if not (ROOT / "src" / "posmon" / "__init__.py").is_file():
        print(f"no posmon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = ["--workload", args.workload, "--seed", str(args.seed), "--deadline-s", str(args.deadline_s)]

    if args.trace:
        declared = spec["per_layer"]
        count = max(100, round(args.seconds * TRACE_QUERIES_PER_S[args.workload]))
        untraced = _child([*base, "--queries", str(count)])
        spans = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-{args.seed}.bin"
        report = _child([*base, "--queries", str(count), "--trace", str(spans)])
        values = dict(report["layers"], **{"trace.overhead_frac": overhead_frac(untraced, report)})
    else:
        declared = spec["end_to_end"]
        setup_s = _setup_seconds(base)
        report = _child([*base, "--seconds", str(args.seconds)])
        values = end_to_end(report, setup_s)

    for kind, (n, ns) in sorted(report["by_kind"].items()):
        print(f"{kind:>18}: {n:6d} queries, {ns / 1e9:8.3f} s", file=sys.stderr)
    if report["at_deadline"]:
        print(f"undecided at the deadline: {len(report['at_deadline'])} deadline-bound queries", file=sys.stderr)
    for line in report["examples"]:
        print(f"failed query: {line}", file=sys.stderr)
    if not all(math.isfinite(values[m["name"]]) for m in declared):
        print("a metric is unbounded: too many queries failed", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance(args.workload, args.seed, report)}))
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": len(report["latencies_ns"]),
        "failed": len(report["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
