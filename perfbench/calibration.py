"""Host-speed calibration.

The hosts this benchmark runs on change speed by up to a quarter within
seconds (shared cores), and CPU time drifts with wall time, so neither
clock alone gives steady numbers.  On a 2-core host (CPython 3.11.7),
ten seeds per workload timed with plain perf_counter_ns spread
(IQR/median) by 0.13 to 0.26 in queries_per_s and 0.17 to 0.33 in
query_p50_ms; with this scaling, by 0.06 or less.  A fixed loop
with the same mix as posmon's work (Fraction arithmetic, tuple-keyed
dicts, int arithmetic) is timed alongside the measured work, and every
time is scaled by REFERENCE_NS / (the loop's median time nearby).  Times
are thus reported at a fixed reference speed: the loop's median on the
machine that set REFERENCE_NS (2 cores, CPython 3.11).  No posmon code
runs in the loop and the collector is off during it, so a change to
posmon moves the scale only through state the host shares (CPU caches).

Between queries the loop runs once per PERIOD_NS; during a query a
CPU-time timer runs it once per PERIOD_NS too, and the loop's own time is
taken out of the query's.
"""

from __future__ import annotations

import gc
import signal
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 250_000
PERIOD_NS = 5_000_000
WINDOW = 16  # samples in the running median


def loop_ns() -> int:
    """Time one pass of the fixed calibration loop.  The collector is off
    meanwhile, so that the loop's own allocations never make it sweep
    posmon's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter_ns()
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(1, i)
    d = {}
    for i in range(300):
        d[(i, i % 7)] = i * i
    x = 0
    for i in range(800):
        x = (x * 31 + i) % 1000003
    ns = perf_counter_ns() - t0
    if was_enabled:
        gc.enable()
    return ns


class Scale:
    """Turns host nanoseconds into reference nanoseconds."""

    def __init__(self) -> None:
        self.samples: deque[int] = deque(maxlen=WINDOW)
        self.all: list[int] = []
        self._during: list[int] = []
        self._add([loop_ns() for _ in range(WINDOW)])

    def _add(self, fresh: list[int]) -> None:
        self.samples.extend(fresh)
        self.all.extend(fresh)
        self.factor = REFERENCE_NS / statistics.median(self.samples)
        self._last = perf_counter_ns()

    def tick(self) -> None:
        """Sample between queries, once per period."""
        if perf_counter_ns() - self._last >= PERIOD_NS:
            self._add([loop_ns()])

    def _on_prof(self, signum, frame) -> None:
        self._during.append(loop_ns())

    def begin(self) -> None:
        """Start timing a query."""
        self._during = []
        self._before = self.factor
        self._gc_enabled = gc.isenabled()
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_NS / 1e9, PERIOD_NS / 1e9)
        self._t0 = perf_counter_ns()

    def _factor_now(self) -> float:
        if len(self._during) >= 3:
            return REFERENCE_NS / statistics.median(self._during)
        return self._before

    def elapsed(self) -> tuple[int, float]:
        """Reference nanoseconds of the running query so far, and the
        factor they were scaled by."""
        factor = self._factor_now()
        return round((perf_counter_ns() - self._t0 - sum(self._during)) * factor), factor

    def end(self) -> int:
        """Stop timing; returns the query's reference nanoseconds."""
        host = perf_counter_ns() - self._t0
        signal.setitimer(signal.ITIMER_PROF, 0)
        if self._gc_enabled:
            # a deadline that cut a loop short left the collector off
            gc.enable()
        during = self._during
        host -= sum(during)
        if len(during) >= 3:
            factor = self._factor_now()
            self._add(during)
        elif host >= PERIOD_NS:
            after = [loop_ns() for _ in range(5)]
            factor = (self._before + REFERENCE_NS / statistics.median(after)) / 2
            self._add(during + after)
        else:
            factor = self._before
        return round(host * factor)

    def host_speed(self) -> float:
        """Median host speed over the run, relative to the reference."""
        return REFERENCE_NS / statistics.median(self.all)
