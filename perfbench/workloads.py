"""The benchmark's four workloads.

A workload turns a seeded random generator into a stream of queries.  A
query is one posmon library call, or one ``posmon.cli.main(argv)`` call,
plus a check of its answer against a reference from ``oracles`` (or a
closed-form theorem) that posmon's own search does not produce.  Calls go
through module attributes at call time, so the spans that ``tracing``
installs see them.

A check returns (correct, decided).  Decided means an exact answer: a
complete factorization or length set, an in/out verdict, a consistent or
refuted probe, a replayed certificate, or the expected CLI exit code.
"""

from __future__ import annotations

import atexit
import io
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, product
from math import factorial, gcd, prod
from pathlib import Path
from typing import Callable, Iterable, Iterator

import posmon.cli as cli
import posmon.factor as factor
import posmon.monoids as monoids
import posmon.witness as witness
from posmon.elements import Z2, lexvec, rational, triple

import oracles

HERE = Path(__file__).resolve().parent

# every run issues at least this many queries, and the forced ones (the
# gallery run, the deadline-bound AlphaBeta queries) sit among them
MIN_QUERIES = 100


@dataclass
class Query:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, bool]]
    # expected to run past the deadline: such a query brings one deadline
    # of time budget with it, so whether it answers or not it takes no
    # time from the others, and reaching the deadline is an undecided
    # answer, not a failure
    deadline_bound: bool = False


def _spliced(stream: Iterable[Query], forced: dict[int, Query]) -> Iterator[Query]:
    """stream with forced[i] issued as the i-th query."""
    issued = 0
    for q in stream:
        while issued in forced:
            yield forced[issued]
            issued += 1
        yield q
        issued += 1


def _rounds(make_round: Callable[[], list]) -> Iterator[Query]:
    """Endless shuffled rounds; a round is a list of units, and a unit is
    an iterable of queries issued back to back (a build, then its replay)."""
    while True:
        for unit in make_round():
            yield from unit


def _cycle(rng: random.Random, values) -> Iterator:
    """values over and over, each pass in a fresh seeded order, so that
    any run draws every value about equally often."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _spread_order(rng: random.Random, population: list, cost: Callable, strata: int) -> Iterator:
    """population without repeats, in passes that take one random member
    of each cost stratum; strata are visited in bit-reversed order so
    that any prefix of a pass spans the whole cost range."""
    ranked = sorted(population, key=cost)
    groups = [ranked[len(ranked) * i // strata: len(ranked) * (i + 1) // strata] for i in range(strata)]
    for g in groups:
        rng.shuffle(g)
    bits = (strata - 1).bit_length()
    order = sorted(range(strata), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    while any(groups):
        for i in order:
            if groups[i]:
                yield groups[i].pop()


def _replays(cert, value, zero) -> bool:
    """An `in` certificate sums back to the element (direct summation)."""
    total = zero
    for gen, coeff in cert:
        if coeff < 0:
            return False
        total = total + gen.scale(coeff)
    return total == value


def _check_probe(expected: str, result) -> tuple[bool, bool]:
    if result.verdict == "inconclusive":
        return True, False
    return result.verdict == expected, True


# ---------------------------------------------------------------------------
# numerical-grid: many distinct small numerical monoids, scalar knapsacks


def numerical_grid(rng: random.Random, root: Path) -> Iterator[Query]:
    # roughly the number of factorizations below 40: monoids differ in cost
    # by orders of magnitude, so the sample is drawn evenly across it
    def cost(gens):
        return 40 ** len(gens) / (factorial(len(gens)) * prod(gens))

    sample = _spread_order(rng, oracles.minimal_numerical_monoids(), cost, strata=64)
    return (q for gens in sample for q in _numerical_monoid(gens, rng.randint(30, 50), rng))


def _numerical_monoid(gens: tuple[int, ...], bound: int, rng: random.Random) -> list[Query]:
    m = monoids.numerical(*gens)
    table = oracles.numerical_factorizations(gens, bound)
    zero = rational(0)
    out = []
    for v in range(1, bound + 1):
        x = rational(v)
        out.append(Query(
            "contains",
            lambda x=x: monoids.contains(m, x),
            partial(_check_nm_contains, gens, bool(table[v]), x, zero),
        ))
        if table[v]:
            out.append(Query(
                "factorizations",
                lambda x=x: factor.factorizations(m, x),
                partial(_check_nm_factorizations, gens, table[v]),
            ))
            out.append(Query(
                "length_set",
                lambda x=x: factor.length_set(m, x),
                partial(_check_nm_lengths, {sum(f) for f in table[v]}),
            ))
    for prop in ("ATM", "HFM", "LFM", "UFM"):
        out.append(Query(
            "probe",
            lambda prop=prop: factor.probe_property(m, prop, bound),
            partial(_check_probe, oracles.probe_verdict(table, prop)),
        ))
    rng.shuffle(out)
    return out


def _check_nm_contains(gens, member, x, zero, verdict) -> tuple[bool, bool]:
    if not member:
        return verdict.is_out, True
    return (
        verdict.is_in
        and all(g.value in gens for g, _ in verdict.certificate)
        and _replays(verdict.certificate, x, zero)
    ), True


def _nm_vector(gens, pairs):
    mults = {a.value: c for a, c in pairs}
    if not set(mults) <= set(gens):
        return None
    return tuple(mults.get(g, 0) for g in gens)


def _check_nm_factorizations(gens, expected, search) -> tuple[bool, bool]:
    got = [_nm_vector(gens, f.pairs) for f in search.factorizations]
    if len(set(got)) != len(got):
        return False, False
    if search.complete:
        return set(got) == expected, True
    return set(got) <= expected, False


def _check_nm_lengths(expected, ls) -> tuple[bool, bool]:
    if ls.complete:
        return set(ls.lengths) == expected, True
    return set(ls.lengths) <= expected, False


# ---------------------------------------------------------------------------
# lex-plane: the N x Z cone and conductive monoids of Z^2, caches kept hot

CONE_ATOM_DEPTHS = (8, 12, 16, 20, 25)
CONE_PROBE_BOXES = [(x, y) for x in (2, 3, 4) for y in (4, 6, 8)]


def lex_plane(rng: random.Random, root: Path) -> Iterator[Query]:
    cone = monoids.LexCone(Z2, monoids.FIRST_POSITIVE)
    thresholds = [
        (1, rng.randint(-3, 3)), (1, rng.randint(-3, 3)),
        (2, rng.randint(-3, 3)), (0, rng.randint(1, 3)),
    ]
    conductive = [(a, monoids.Conductive(lexvec(Z2, *a))) for a in thresholds]
    # the costly parameters cycle, so every run meets each about equally
    atom_depths = _cycle(rng, CONE_ATOM_DEPTHS)
    probe_boxes = (
        box
        for _ in count()
        for box in _spread_order(rng, CONE_PROBE_BOXES, lambda b: b[1] ** b[0], strata=len(CONE_PROBE_BOXES))
    )
    probed = _cycle(rng, [(a, c, box) for a, c in conductive for box in product((2, 3), (2, 3, 4))])
    length_leads = _cycle(rng, range(1, 7))
    factor_shapes = _cycle(rng, product(range(1, 5), (6, 8)))

    def make_round() -> list:
        qs = []
        d = next(atom_depths)
        qs.append(Query("atoms", lambda d=d: factor.atoms(cone, d), partial(_check_lex_atoms, [(1, t) for t in range(-d, d + 1)])))
        for _ in range(2):
            x = rng.randint(0, 6)
            v = (x, rng.randint(1 if x == 0 else -20, 20))
            qs.append(_lex_contains(cone, v, x > 0))
        for _ in range(3):
            x = next(length_leads)
            reach = min(10, 8 * x)
            b = lexvec(Z2, x, rng.randint(-reach, reach))
            qs.append(Query("length_set", lambda b=b: factor.length_set(cone, b, 8), partial(_check_cone_lengths, x)))
        for _ in range(3):
            (x, d), y = next(factor_shapes), rng.randint(-6, 6)
            qs.append(Query(
                "factorizations",
                lambda b=lexvec(Z2, x, y), d=d: factor.factorizations(cone, b, d),
                partial(_check_cone_factorizations, oracles.cone_factorizations(x, y, d)),
            ))
        box = next(probe_boxes)
        for prop in ("HFM", "ATM", "LFM"):
            # length is the leading coordinate; (2,0) = 2*(1,0) = (1,1)+(1,-1)
            expected = "refuted" if prop == "LFM" else "consistent"
            qs.append(Query(
                "probe", lambda prop=prop, box=box: factor.probe_property(cone, prop, box), partial(_check_probe, expected)
            ))
        for a, c in rng.sample(conductive, 2):
            d = rng.choice((4, 6, 8))
            qs.append(Query("atoms", lambda c=c, d=d: factor.atoms(c, d), partial(_check_lex_atoms, oracles.conductive_atoms(a, d))))
            x = rng.randint(0, 4)
            v = (x, rng.randint(0 if x == 0 else -8, 8))
            qs.append(_lex_contains(c, v, v == (0, 0) or v >= a))
        a, c, cbox = next(probed)
        # atomic exactly when the conductor sits in the dominant class
        qs.append(Query(
            "probe",
            lambda c=c, cbox=cbox: factor.probe_property(c, "ATM", cbox),
            partial(_check_probe, "consistent" if a[0] else "refuted"),
        ))
        rng.shuffle(qs)
        return [[q] for q in qs]

    return _rounds(make_round)


def _lex_contains(m, v: tuple[int, int], member: bool) -> Query:
    b = lexvec(Z2, *v)
    return Query("contains", lambda: monoids.contains(m, b), partial(_check_lex_contains, b, member))


def _check_lex_contains(b, member, verdict) -> tuple[bool, bool]:
    if not member:
        return verdict.is_out, True
    return verdict.is_in and _replays(verdict.certificate, b, lexvec(Z2, 0, 0)), True


def _check_lex_atoms(expected, atom_set) -> tuple[bool, bool]:
    return [a.value for a in atom_set.atoms] == sorted(expected), atom_set.complete


def _check_cone_lengths(x, ls) -> tuple[bool, bool]:
    return ls.lengths == (x,), ls.complete


def _check_cone_factorizations(expected, search) -> tuple[bool, bool]:
    got = [
        tuple(sorted((a.value[1] for a, c in f.pairs for _ in range(c)), reverse=True))
        for f in search.factorizations
    ]
    if any(a.value[0] != 1 for f in search.factorizations for a, _ in f.pairs):
        return False, False
    if len(set(got)) != len(got):
        return False, False
    if search.truncated:
        return set(got) <= expected, False
    return set(got) == expected, search.complete


# ---------------------------------------------------------------------------
# certificates: Q and sqrt2/sqrt3 families, built and replayed

RATIOS = tuple(Fraction(r) for r in (
    "2/3", "3/4", "2/5", "3/5", "4/5", "5/6", "3/7", "4/7", "5/7",
    "5/8", "7/8", "4/9", "7/9", "7/10", "9/10",
))
PSR_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
AB_RATIOS = (Fraction(2, 3), Fraction(3, 4), Fraction(3, 5))
AB_TARGETS = ((0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0))
NEARLY_TARGETS = ((0, 1, 0), (1, 1, 0), (Fraction(1, 2), 2, 0), (3, 0, 0))
M0_PRIMES = (2, 3, 5, 7, 11, 13)
# is_atomic_element on the gallery's M_(a,b)[2/3] at these depths runs
# into the per-query deadline inside the generic search, for every
# target, and so stay undecided; every run issues each depth once.
# (Ratios 3/4 and 3/5 answer some targets within seconds, which would
# make decided_frac vary.)
ATOMIC_DEPTHS = (4, 5, 6)
ATOMIC_RATIO = Fraction(2, 3)


def certificates(rng: random.Random, root: Path) -> Iterator[Query]:
    positions = sorted(rng.sample(range(MIN_QUERIES), len(ATOMIC_DEPTHS)))
    depths = list(ATOMIC_DEPTHS)
    rng.shuffle(depths)
    forced = {pos: _alphabeta_atomic(rng, d) for pos, d in zip(positions, depths)}
    psr_cache: dict[int, tuple[int, int]] = {}
    units = (
        [_chain_unit] * 2 + [_break_unit, partial(_psr_unit, psr_cache), _mq_atoms]
        + [_m0_contains] * 3 + [_m0_lengths] * 2
        + [_alphabeta_atoms] + [_alphabeta_contains] * 2
        + [_nearly_atoms, _nearly_contains, _not_strongly_atomic, _nearly_atomic]
    )

    def make_round() -> list:
        made = [unit(rng) for unit in units]
        rng.shuffle(made)
        return made

    return _spliced(_rounds(make_round), forced)


def _built_then_replayed(build: Query, kind: str, slot: dict) -> Iterator[Query]:
    """The build query, then (if its answer checked out) the replay of a
    JSON round trip of what it built."""
    yield build
    if "json" in slot:
        obj = slot["json"]
        yield Query(
            "replay",
            lambda: witness.verify_certificate_json(obj),
            lambda got: (got == kind, got == kind),
        )


def _keep_json(slot: dict, cert) -> None:
    slot["json"] = json.loads(json.dumps(cert.to_json()))


def _chain_unit(rng) -> Iterator[Query]:
    q, depth, slot = rng.choice(RATIOS), rng.randint(10, 40), {}

    def check(cert):
        elements, differences = oracles.mq_chain(q, depth)
        ok = list(cert.elements) == elements and list(cert.differences) == differences
        if ok:
            _keep_json(slot, cert)
        return ok, ok

    return _built_then_replayed(Query("build", lambda: witness.mq_chain(q, depth), check), "ascending-chain", slot)


def _break_unit(rng) -> Iterator[Query]:
    q, steps, depth, slot = rng.choice(RATIOS), rng.choice((2, 3)), 60, {}

    def check(cert):
        ok = _break_holds(q, steps, depth, cert)
        if ok:
            _keep_json(slot, cert)
        return ok, ok

    return _built_then_replayed(
        Query("build", lambda: witness.synthesize_break(q, steps, depth=depth), check),
        "hereditary-break", slot,
    )


def _break_holds(q, steps, depth, cert) -> bool:
    """Every recorded identity, re-derived; the head's exclusion from the
    combined differences by an independent exhaustive search."""
    elements, a = oracles.mq_chain(q, depth)
    if list(cert.chain.elements) != elements or list(cert.chain.differences) != a:
        return False
    if len(cert.steps) != steps:
        return False
    s = [Fraction(0)]
    for x in a:
        s.append(s[-1] + x)
    running: list[Fraction] = []
    for st in cert.steps:
        i1, i2 = st.chain_indices
        if not (1 <= i1 < i2 <= depth) or st.combined != a[i1 - 1] + a[i2 - 1]:
            return False
        running.append(st.combined)
        if st.partial_sum != sum(running):
            return False
        leftover = s[st.divides_index] - st.partial_sum
        if leftover < 0 or leftover != sum(a[i - 1] for i in st.leftover_indices):
            return False
        if oracles.generated_by(elements[0], tuple(running)):
            return False
    return True


def _psr_unit(cache: dict, rng) -> Iterator[Query]:
    p, slot = rng.choice(PSR_PRIMES), {}
    q = Fraction(1, p)

    def check(cert):
        if p not in cache:
            cache[p] = oracles.greedy_prime_prefix((p,), q + 2)
        ok = cert.q == q and tuple(cert.excluded) == (p,) and (cert.count, cert.last_prime) == cache[p]
        if ok:
            _keep_json(slot, cert)
        return ok, ok

    return _built_then_replayed(
        Query("build", lambda: witness.prime_sum_refutation(q), check), "prime-sum-refutation", slot
    )


def _mq_atoms(rng) -> list[Query]:
    q, d = rng.choice(RATIOS), rng.choice((10, 20, 30))
    m = monoids.GeometricPuiseux(q)
    expected = sorted(q**i for i in range(d + 1))
    return [Query(
        "atoms",
        lambda: factor.atoms(m, d),
        lambda s: ([a.value for a in s.atoms] == expected, s.complete),
    )]


def _m0_contains(rng) -> list[Query]:
    ps = rng.sample(M0_PRIMES, rng.choice((2, 3)))
    den = prod(ps)
    num = rng.choice([n for n in range(1, 2 * den + 1) if gcd(n, den) == 1])
    x = rational(Fraction(num, den))
    m = monoids.PrimeReciprocal()

    def check(verdict):
        if not oracles.m0_member(x.value):
            return verdict.is_out, True
        ok = verdict.is_in and _replays(verdict.certificate, x, rational(0)) and all(
            g.value.numerator == 1 and oracles.is_prime(g.value.denominator)
            for g, _ in verdict.certificate
        )
        return ok, True

    return [Query("contains", lambda: monoids.contains(m, x), check)]


def _m0_lengths(rng) -> list[Query]:
    depth = rng.choice((4, 5))
    window = oracles.first_primes(depth)
    while True:
        ps = rng.sample(window, 2)
        den = prod(ps)
        x = Fraction(rng.randint(1, 3 * den // 2 - 1), den)
        if x.denominator == den and oracles.m0_member(x):
            break
    m = monoids.PrimeReciprocal()
    b = rational(x)
    return [Query(
        "length_set",
        lambda: factor.length_set(m, b, depth),
        lambda ls: (set(ls.lengths) == oracles.m0_window_lengths(x, window), ls.complete),
    )]


def _alphabeta_atomic(rng, depth: int) -> Query:
    m, el = monoids.AlphaBeta(ATOMIC_RATIO), triple(*rng.choice(AB_TARGETS))

    def check(w):
        if w.status == "yes":
            return _replays(w.factorization.pairs, el, triple(0, 0, 0)), True
        # the family is atomic, so "no" is wrong; "unknown" is honest
        return w.status == "unknown", False

    return Query("is_atomic_element", lambda: factor.is_atomic_element(m, el, depth), check, deadline_bound=True)


def _alphabeta_atoms(rng) -> list[Query]:
    q, d = rng.choice(AB_RATIOS), rng.randint(4, 8)
    m = monoids.AlphaBeta(q)

    def check(s):
        vals = [a.value for a in s.atoms]
        rational_part = sorted(c0 for c0, c1, c2 in vals if c1 == 0 and c2 == 0)
        alpha = {(-c0 / c1, 1 / c1) for c0, c1, c2 in vals if c1 > 0 and c2 == 0}
        beta = {(-c0 / c2, 1 / c2) for c0, c1, c2 in vals if c2 > 0 and c1 == 0}
        ok = (
            rational_part == sorted(q**i for i in range(d + 1))
            and len(vals) == d + 1 + 2 * d
            and alpha == beta
            and len(alpha) == d
            and len({s_ for s_, _ in alpha}) == d
            and len({p for _, p in alpha}) == d
            and all(p.denominator == 1 and oracles.is_prime(int(p)) for _, p in alpha)
            and all(s_ >= 0 and oracles.below_sqrt2(s_) for s_, _ in alpha)
        )
        return ok, s.complete

    return [Query("atoms", lambda: factor.atoms(m, d), check)]


def _triple_contains(m, el, depth) -> Query:
    def check(verdict):
        if verdict.is_unknown:
            return True, False
        return verdict.is_in and _replays(verdict.certificate, el, triple(0, 0, 0)), True

    return Query("contains", lambda: monoids.contains(m, el, depth), check)


def _alphabeta_contains(rng) -> list[Query]:
    q, d = rng.choice(AB_RATIOS), rng.randint(4, 8)
    targets = AB_TARGETS + ((q * rng.randint(1, 5), 0, 0),)
    return [_triple_contains(monoids.AlphaBeta(q), triple(*rng.choice(targets)), d)]


def _nearly_contains(rng) -> list[Query]:
    return [_triple_contains(monoids.NearlyAtomicAlpha(), triple(*rng.choice(NEARLY_TARGETS)), rng.randint(4, 8))]


def _nearly_atoms(rng) -> list[Query]:
    d = rng.randint(4, 10)
    m = monoids.NearlyAtomicAlpha()

    def check(s):
        vals = [a.value for a in s.atoms]
        pairs = {(c0 / c1, 1 / c1) for c0, c1, c2 in vals if c1 > 0 and c2 == 0}
        ok = (
            len(vals) == len(pairs) == d
            and {x for x, _ in pairs} == set(oracles.calkin_wilf(d))
            and len({p for _, p in pairs}) == d
            and all(p.denominator == 1 and oracles.is_prime(int(p)) for _, p in pairs)
        )
        return ok, s.complete

    return [Query("atoms", lambda: factor.atoms(m, d), check)]


def _not_strongly_atomic(rng) -> list[Query]:
    q, depth = rng.choice(AB_RATIOS), rng.choice((8, 10))

    def check(replays):
        ok = len(replays) >= 4 and len({r.divisor for r in replays}) == len(replays) and all(
            1 <= r.exponent <= depth
            and r.shifted == r.divisor + q**r.exponent
            and oracles.below_sqrt2(r.shifted)
            and oracles.is_prime(r.phi)
            for r in replays
        )
        return ok, ok

    return [Query("verify", lambda: witness.verify_not_strongly_atomic(q, depth), check)]


def _nearly_atomic(rng) -> list[Query]:
    depth = rng.randint(6, 10)

    def check(report):
        phis = [d["phi"] for d in report.decompositions]
        ok = (
            len(phis) == depth
            and len(set(phis)) == depth
            and all(oracles.is_prime(p) for p in phis)
            and len(report.rational_obstructions) == depth - 1
        )
        return ok, ok

    return [Query("verify", lambda: witness.verify_nearly_atomic(depth), check)]


# ---------------------------------------------------------------------------
# cli-gallery: the command line, argument parsing to JSON emission

# the gallery's hand-written expectations, fixed here at the seed commit
EXPECTED = {
    "antimatter-QxQ": (("QAM", "Refuted"), ("ATM", "Refuted")),
    "nonatomic-ZxZ": (("ATM", "Refuted"), ("QAM", "Refuted")),
    "malphabeta": (("ATM", "Proved"), ("SAM", "Refuted"), ("NAM", "Proved")),
    "mq-2/3": (("SAM", "Proved"), ("ACCP", "Refuted"), ("BFM", "Refuted"), ("ATM", "Proved")),
    "m0": (("ACCP", "Proved"), ("BFM", "Refuted"), ("SAM", "Proved")),
    "conductive-Z2-C1": (("ATM", "Refuted"), ("QAM", "Refuted"), ("BFM", "Refuted"), ("NAM", "Refuted"), ("AAM", "Refuted")),
    "conductive-Z2-C2": (("BFM", "Proved"), ("FFM", "Refuted"), ("ACCP", "Proved")),
    "nearly-not-atomic": (("NAM", "Proved"), ("ATM", "Refuted"), ("AAM", "Proved")),
    "almost-not-nearly": (("AAM", "Proved"), ("NAM", "Refuted"), ("QAM", "Proved")),
    "quasi-not-almost": (("QAM", "Proved"), ("AAM", "Refuted"), ("NAM", "Refuted")),
    "hfm-NxZ": (("HFM", "Proved"), ("FFM", "Refuted"), ("BFM", "Proved"), ("ATM", "Proved")),
    "cone-Z2-secondpriority": (("ATM", "Refuted"), ("QAM", "Refuted")),
    "mq-times-N0": (("SAM", "Proved"), ("ACCP", "Refuted")),
    "conductive-Z-3": (("FFM", "Proved"), ("LFM", "Refuted"), ("BFM", "Proved")),
    "cone:NxZ": (("HFM", "Proved"), ("FFM", "Refuted"), ("BFM", "Proved"), ("ATM", "Proved")),
}
for _k in range(1, 7):
    # {0} u Z_{>=k}: finite factorization (Z is cyclic); half- and unique
    # factorization only for the full cone k = 1; length-factorial iff k in {1, 2}
    EXPECTED[f"conductive:Z:a={_k}"] = (
        ("FFM", "Proved"),
        ("HFM", "Proved" if _k == 1 else "Refuted"),
        ("LFM", "Proved" if _k <= 2 else "Refuted"),
    )

# documented exit code 64: unknown instance or parse failure
BAD_CALLS = (
    ["classify", "nm:0,x"], ["atoms", "bogus:1"], ["lengths", "mq:3/2", "1"],
    ["chain", "nm:3,5"], ["break", "m0"], ["classify", "conductive:Z:a=0"],
    ["probe", "m0", "HFM", "--bound", "3"], ["lengths", "m0", "1/4"],
    ["atoms", "cone:RxR"], ["factorize", "nm:3,5", "7"],
)
EXIT_OK, EXIT_REFUTED, EXIT_USAGE = 0, 1, 64


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_query(kind: str, argv: list[str], check: Callable[[int, str, str], bool]) -> Query:
    def checked(answer):
        ok = check(*answer)
        return ok, ok

    return Query(kind, lambda: _run_cli(argv), checked)


def cli_gallery(rng: random.Random, root: Path) -> Iterator[Query]:
    expected_gallery = (HERE / "gallery_run_all.json").read_text()
    # chain files of this process; a run can stop between `chain` and `verify`
    scratch = root / ".bench_build" / "perfbench" / f"cli-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    atexit.register(shutil.rmtree, scratch, True)
    small = [g for g in oracles.minimal_numerical_monoids(3, 12) if len(g) > 1]
    gallery = _cli_query(
        "gallery",
        ["gallery", "--run-all", "--json"],
        lambda code, out, err: code == EXIT_OK and out == expected_gallery,
    )
    counter = count()

    def make_round() -> list:
        units = [[_cli_classify(rng)] for _ in range(2)]
        units += [[_cli_conductive_probe(rng)] for _ in range(2)]
        units += [[_cli_nm(rng, small, kind)] for kind in ("probe", "atoms", "factorize", "factorize", "lengths", "lengths", "absent")]
        units += [[_cli_mq_atoms(rng)], [_cli_cone_factorize(rng)]]
        units += [_cli_chain(rng, scratch / f"chain-{next(counter)}.json")]
        units += [[_cli_query("bad", rng.choice(BAD_CALLS), lambda code, out, err: code == EXIT_USAGE)] for _ in range(2)]
        rng.shuffle(units)
        return units

    return _spliced(_rounds(make_round), {rng.randrange(MIN_QUERIES): gallery})


def _cli_classify(rng) -> Query:
    target = rng.choice(sorted(EXPECTED))

    def check(code, out, err):
        report = json.loads(out)
        return code == EXIT_OK and report["chain_ok"] and all(
            report["verdicts"][prop]["status"] == status for prop, status in EXPECTED[target]
        )

    return _cli_query("classify", ["classify", target, "--json"], check)


def _cli_conductive_probe(rng) -> Query:
    k = rng.randint(1, 6)
    bound = rng.randint(3 * k, 60)  # 3k = k+k+k = (k+1)+(2k-1) for k >= 2
    expected = EXIT_REFUTED if k >= 2 else EXIT_OK
    return _cli_query(
        "probe",
        ["probe", f"conductive:Z:a={k}", "HFM", "--bound", str(bound)],
        lambda code, out, err: code == expected,
    )


def _cli_nm(rng, small, kind: str) -> Query:
    gens = rng.choice(small)
    bound = rng.randint(20, 40)
    table = oracles.numerical_factorizations(gens, bound)
    inst = "nm:" + ",".join(map(str, gens))
    members = [v for v in range(1, bound + 1) if table[v]]
    if kind == "probe":
        prop = rng.choice(("HFM", "LFM", "UFM"))
        verdict = oracles.probe_verdict(table, prop)
        code_expected = EXIT_REFUTED if verdict == "refuted" else EXIT_OK
        return _cli_query(
            "probe",
            ["probe", inst, prop, "--bound", str(bound), "--json"],
            lambda code, out, err: code == code_expected and json.loads(out)["verdict"] == verdict,
        )
    if kind == "atoms":
        return _cli_query(
            "atoms",
            ["atoms", inst, "--json"],
            lambda code, out, err: code == EXIT_OK
            and json.loads(out)["atoms"] == [str(g) for g in gens]
            and json.loads(out)["complete"],
        )
    if kind == "absent":
        gaps = [v for v in range(1, bound + 1) if not table[v]]
        return _cli_query("bad", ["factorize", inst, str(rng.choice(gaps))], lambda code, out, err: code == EXIT_USAGE)
    v = rng.choice(members)
    if kind == "factorize":
        def check(code, out, err):
            payload = json.loads(out)
            got = [
                tuple(dict(zip((Fraction(a["value"]) for a in f["atoms"]), f["mults"])).get(g, 0) for g in gens)
                for f in payload["factorizations"]
            ]
            return code == EXIT_OK and payload["complete"] and len(got) == len(set(got)) and set(got) == table[v]

        return _cli_query("factorize", ["factorize", inst, str(v), "--json"], check)
    lengths = sorted({sum(f) for f in table[v]})
    return _cli_query(
        "lengths",
        ["lengths", inst, str(v), "--json"],
        lambda code, out, err: code == EXIT_OK and json.loads(out)["lengths"] == lengths and json.loads(out)["complete"],
    )


def _cli_mq_atoms(rng) -> Query:
    q, d = rng.choice(RATIOS), rng.randint(5, 20)
    expected = [str(x) for x in sorted(q**i for i in range(d + 1))]
    return _cli_query(
        "atoms",
        ["atoms", f"mq:{q}", "--depth", str(d), "--json"],
        lambda code, out, err: code == EXIT_OK and json.loads(out)["atoms"] == expected,
    )


def _cli_cone_factorize(rng) -> Query:
    x, y = rng.randint(1, 3), rng.randint(-5, 5)
    expected = oracles.cone_factorizations(x, y, 6)

    def check(code, out, err):
        got = set()
        for f in json.loads(out)["factorizations"]:
            coords = [tuple(int(c) for c in a["value"].split("@")[0].strip("()").split(",")) for a in f["atoms"]]
            if any(c[0] != 1 for c in coords):
                return False
            got.add(tuple(sorted((c[1] for c, k in zip(coords, f["mults"]) for _ in range(k)), reverse=True)))
        return code == EXIT_OK and got == expected

    return _cli_query("factorize", ["factorize", "cone:NxZ", f"({x},{y})@prio=0", "--depth", "6", "--json"], check)


def _cli_chain(rng, path: Path) -> Iterator[Query]:
    """`chain -o`, then `verify` of the file it wrote."""
    q, depth = rng.choice(RATIOS), rng.randint(5, 30)
    elements, differences = oracles.mq_chain(q, depth)
    written = {}

    def check_chain(code, out, err):
        obj = json.loads(path.read_text())
        ok = code == EXIT_REFUTED and [Fraction(x) for x in obj["elements"]] == elements and [
            Fraction(x) for x in obj["differences"]
        ] == differences
        written["ok"] = ok
        return ok

    def check_verify(code, out, err):
        path.unlink()
        return code == EXIT_OK and out.startswith("OK: ascending-chain")

    def unit():
        yield _cli_query("chain", ["chain", f"mq:{q}", "--depth", str(depth), "-o", str(path)], check_chain)
        if written.get("ok"):
            yield _cli_query("verify", ["verify", str(path)], check_verify)
        elif path.exists():
            path.unlink()

    return unit()


WORKLOADS = {
    "numerical-grid": numerical_grid,
    "lex-plane": lex_plane,
    "certificates": certificates,
    "cli-gallery": cli_gallery,
}
