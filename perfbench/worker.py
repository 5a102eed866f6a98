"""One benchmark run in a fresh interpreter: import posmon, generate the
workload from its seed, then issue queries closed-loop (the next query
goes out when the previous one returns) and check every answer.

    python3 perfbench/worker.py --workload NAME --seed N --deadline-s D
        (--setup-only | --seconds S | --queries K) [--trace PATH]

--setup-only prints "ready" once the first query is generated and exits.
Otherwise the run stops after K queries, or once at least MIN_QUERIES
queries were issued and they were charged S seconds, plus one deadline
for each deadline-bound query.  A failed query is charged the deadline.
A deadline-bound query that reaches the deadline is not failed: it
counts as an undecided ("unknown") answer charged the deadline.
Times are in reference nanoseconds (see calibration.py).  The last line
of standard output is a JSON report for run.py.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import workloads  # noqa: E402  (needs the paths above)
from calibration import Scale  # noqa: E402
from tracing import Tracer  # noqa: E402


class Deadline(BaseException):
    """Raised from the interval timer; a BaseException so that no handler
    inside posmon swallows it."""


def run(queries, deadline_s: float, seconds: float | None, count: int | None, tracer: Tracer | None) -> dict:
    budget_ns = None if seconds is None else int(seconds * 1e9)
    deadline_ns = round(deadline_s * 1e9)
    scale = Scale()

    def on_alarm(signum, frame):
        # the deadline is in reference seconds like every other time, so a
        # host that slowed down gets the rest; past the deadline the timer
        # stays armed, should Python drop the raise (inside a finalizer)
        spent, factor = scale.elapsed()
        left = deadline_ns - spent
        signal.setitimer(signal.ITIMER_REAL, max(left / factor / 1e9, 0.01))
        if left <= 0:
            raise Deadline

    signal.signal(signal.SIGALRM, on_alarm)
    # reference ns per query; a failed query, whatever the reason, is
    # charged the whole deadline, in the time budget as in queries_per_s
    latencies: list[int] = []
    failed: list[int] = []  # indices into latencies
    at_deadline: list[int] = []  # deadline-bound queries cut short
    charged_ns = decided = wrong = 0
    by_kind: dict[str, list[int]] = {}  # kind -> [queries, reference ns]
    examples: list[str] = []
    for i, q in enumerate(queries):
        if count is not None and i >= count:
            break
        if count is None:
            if i >= workloads.MIN_QUERIES and charged_ns >= budget_ns:
                break
            if q.deadline_bound:
                budget_ns += deadline_ns
        call = q.call if tracer is None else (lambda q=q: tracer.call(f"query.{q.kind}", q.call))
        problem, bad, exact, cut = None, False, False, False
        scale.tick()
        scale.begin()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s / scale.factor)
            try:
                answer = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            cut = True
        except Exception as exc:  # posmon raising is a wrong answer
            problem, bad = f"{type(exc).__name__}: {exc}", True
        ns = scale.end()
        cut = cut or (problem is None and ns > deadline_ns)
        if cut and q.deadline_bound:
            # reaching the deadline is this query's "unknown" answer:
            # undecided, not failed, and charged the deadline
            ns = deadline_ns
            at_deadline.append(i)
        elif cut:
            problem = f"past the {deadline_s} s deadline"
        elif problem is None:
            try:
                correct, exact = q.check(answer)
            except Exception as exc:  # an answer the check cannot read is wrong
                correct, problem = False, f"check raised {type(exc).__name__}: {exc}"
            if not correct:
                problem, bad = problem or "wrong answer", True
        latencies.append(ns if problem is None else deadline_ns)
        charged_ns += latencies[-1]
        tally = by_kind.setdefault(q.kind, [0, 0])
        tally[0] += 1
        tally[1] += latencies[-1]
        if problem is not None:
            failed.append(i)
            wrong += bad
            examples.append(f"{q.kind}: {problem}")
            continue
        decided += exact
    return {
        "latencies_ns": latencies,
        "failed": failed,
        "by_kind": by_kind,
        "decided": decided,
        "wrong": wrong,
        "at_deadline": at_deadline,
        "examples": examples[:10],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "host_speed": scale.host_speed(),
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--deadline-s", type=float, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--queries", type=int)
    p.add_argument("--trace", type=Path, default=None, help="write spans here")
    args = p.parse_args()

    stream = workloads.WORKLOADS[args.workload](random.Random(args.seed), ROOT)
    first = next(stream)
    if args.setup_only:
        print("ready", flush=True)
        return
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        tracer.install()
    report = run(chain([first], stream), args.deadline_s, args.seconds, args.queries, tracer)
    if tracer is not None:
        report["layers"] = tracer.summary(report["host_speed"])
        tracer.write(args.trace)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
