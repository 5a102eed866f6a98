"""Outside-in spans around posmon's public functions.

A span records its name, start, end and parent.  Spans live in flat
arrays while the run lasts and are written out when it ends.  A traced
function is replaced in every posmon module namespace that holds it, so a
call through ``from .monoids import contains`` is traced the same as one
through ``posmon.monoids.contains``.  Self time is a span's duration
minus the durations of its direct children.  Times are reported in
reference seconds (calibration.py); they include the calibration passes
that ran inside a span, about 5% of any query longer than 5 ms.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import wraps
from pathlib import Path
from time import perf_counter_ns

# (defining module, attribute, span name); names follow the metric names
SPANS = (
    ("posmon.monoids", "contains", "monoids.contains"),
    ("posmon.monoids", "generators", "monoids.generators"),
    ("posmon.monoids", "members_within", "monoids.members_within"),
    ("posmon.factor", "atoms", "factor.atoms"),
    ("posmon.factor", "factorizations", "factor.factorizations"),
    ("posmon.factor", "length_set", "factor.length_set"),
    ("posmon.factor", "probe_property", "factor.probe_property"),
    ("posmon.factor", "is_atomic_element", "factor.is_atomic_element"),
    ("posmon.elements", "_triple_sign", "elements.triple_sign"),
    ("posmon.primes", "factorize", "primes.factorize"),
    ("posmon.primes", "first_primes", "primes.first_primes"),
    ("posmon.witness", "mq_chain", "witness.mq_chain"),
    ("posmon.witness", "synthesize_break", "witness.synthesize_break"),
    ("posmon.witness", "prime_sum_refutation", "witness.prime_sum_refutation"),
    ("posmon.witness", "verify_certificate_json", "witness.verify_certificate_json"),
    ("posmon.classify", "classify_known", "classify.classify_known"),
    ("posmon.classify", "classify_conductive", "classify.classify_conductive"),
    ("posmon.cli", "main", "cli.main"),
    ("posmon.gallery", "run_entry", "gallery.run_entry"),
)

# memoized layers, read through cache_info() after a traced run
CACHES = (
    ("posmon.factor", "_atoms_cached", "factor.atoms"),
    ("posmon.monoids", "_window_cached", "monoids.window"),
    ("posmon.monoids", "_lex_box", "monoids.lex_box"),
    ("posmon.monoids", "_mq_solve", "monoids.mq_solve"),
    ("posmon.monoids", "_m0_solve", "monoids.m0_solve"),
    ("posmon.monoids", "alphabeta_domain", "monoids.alphabeta_domain"),
    ("posmon.primes", "first_primes", "primes.first_primes"),
    ("posmon.primes", "primes_below", "primes.primes_below"),
)

GALLERY_IDS = (
    "antimatter-QxQ", "nonatomic-ZxZ", "malphabeta", "mq-2/3", "m0",
    "conductive-Z2-C1", "conductive-Z2-C2", "nearly-not-atomic",
    "almost-not-nearly", "quasi-not-almost", "hfm-NxZ",
    "cone-Z2-secondpriority", "mq-times-N0", "conductive-Z-3",
)


def entry_metric(entry_id: str) -> str:
    """Metric-safe form of a gallery id ('/' is not allowed in names)."""
    return f"gallery.run_entry.{entry_id.replace('/', '_')}.total_s"


class Tracer:
    """Span store plus the result counters the per-layer metrics need.

    A span is one row of ROW int64 fields in `rows`, added by a single
    extend so that a deadline signal cannot leave a row half written.  A
    span the deadline cut short is closed by the deadline, so its time up
    to the deadline is counted.  Only a signal that lands before the
    span's `try` leaves end == 0 (the span is left out) or a row on the
    stack (cleared at the next query).
    """

    ROW = 4  # name id, parent row (-1 for a root), start ns, end ns

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array("q")
        self._stack: list[int] = []
        self.emitted = 0
        self.searches = 0
        self.incomplete = 0
        self.combinations = 0
        self._caches = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self.names.append(name)
            self._ids[name] = len(self.names) - 1
        return self._ids[name]

    def wrap(self, fn, name: str, label=None, after=None):
        """fn inside a span; label(args) names the span per call, and
        after(result) runs once the span is closed."""
        fixed = self._id(name)
        rows, stack, width = self.rows, self._stack, self.ROW

        @wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if label is None else self._id(label(args))
            rows.extend((nid, stack[-1] if stack else -1, perf_counter_ns(), 0))
            i = len(rows) // width - 1
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                rows[i * width + 3] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def call(self, name: str, fn):
        """Run fn() as a root span (one benchmark query)."""
        self._stack.clear()  # a row a deadline left before its `try`
        return self.wrap(fn, name)()

    # -- counters fed from results -----------------------------------------

    def _count_search(self, result) -> None:
        self.searches += 1
        if hasattr(result, "factorizations"):
            self.emitted += len(result.factorizations)
        else:
            self.emitted += len(result.lengths)
        self.incomplete += not result.complete

    def _count_break(self, cert) -> None:
        self.combinations += sum(st.exclusion.combinations_checked for st in cert.steps)

    def install(self) -> None:
        """Patch every SPANS function in every loaded posmon namespace."""
        after = {
            "factor.factorizations": self._count_search,
            "factor.length_set": self._count_search,
            "witness.synthesize_break": self._count_break,
        }
        self._caches = {
            layer: getattr(sys.modules[mod_name], attr) for mod_name, attr, layer in CACHES
        }
        modules = [m for k, m in sys.modules.items() if k == "posmon" or k.startswith("posmon.")]
        for mod_name, attr, name in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            label = None
            if name == "gallery.run_entry":
                label = lambda args: entry_metric(args[0].id)  # noqa: E731
            traced = self.wrap(original, name, label, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    # -- results -------------------------------------------------------------

    def summary(self, host_speed: float) -> dict[str, float]:
        """Per-layer metrics; times in reference seconds (calibration.py)."""
        width = self.ROW
        spans = [tuple(self.rows[j:j + width]) for j in range(0, len(self.rows), width)]
        child = [0] * len(spans)
        for _, parent, begin, end in spans:
            if parent >= 0 and end:
                child[parent] += end - begin
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, (k, _, begin, end) in enumerate(spans):
            if end:
                calls[k] += 1
                total[k] += end - begin
                own[k] += end - begin - child[i]
        s = host_speed / 1e9
        by_name = {name: (calls[k], total[k] * s, own[k] * s) for k, name in enumerate(self.names)}

        out: dict[str, float] = {}
        for _, _, name in SPANS:
            if name == "gallery.run_entry":
                continue
            c, _, s = by_name.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = s
        for entry_id in GALLERY_IDS:
            out[entry_metric(entry_id)] = by_name.get(entry_metric(entry_id), (0, 0.0, 0.0))[1]
        # factorizations plus lengths returned, and the share of those
        # searches that came back without complete=True
        out["factor.emitted"] = self.emitted
        out["factor.truncated_frac"] = self.incomplete / self.searches if self.searches else 0.0
        out["witness.exclusion.combinations"] = self.combinations
        for layer, cached in self._caches.items():
            info = cached.cache_info()
            looked_up = info.hits + info.misses
            out[f"{layer}.cache.size"] = info.currsize
            out[f"{layer}.cache.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans as rows of four little-endian int64 (name id, parent row,
        start ns, end ns) in `path`, with the names beside it as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            self.rows.tofile(fh)
        path.with_suffix(".json").write_text(
            json.dumps({"spans": len(self.rows) // self.ROW, "names": self.names}) + "\n"
        )
