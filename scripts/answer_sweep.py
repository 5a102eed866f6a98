"""Print one JSON line (sorted keys) per query, for a before/after answer diff.

The queries cover:

- the atom windows of every gallery instance and of every family the
  benchmark workloads query, at depths 1-30;
- the atom windows of conductive monoids whose threshold has coordinates
  in [-2, 2], over Z, Z^2 and Q^2, at depths 1-8;
- the deep atom windows of ``conductive:Z2:a=(1,0)``, ``cone:NxZ``,
  ``cone:ZxZ`` and the second-priority cone ``cone:ZxZp1`` at depths 60
  and 120, of the antimatter cone ``cone:QxQ`` at depth 30, and of
  ``mq:2/3`` at depths 200, 400 and 1000;
- the atom windows of the rays Z[1/p] above t0 for p in {2, 3, 5} and t0
  in {1, 4/3, 7/5, 3}, and of the union of M_0 with its difference group
  above 173/210 (a threshold outside M_0), with ``is_atomic_element`` of
  three of its members, at depths 1-8;
- the rays' atom windows at depths 9-12 as well, and those of the rays
  for p = 7 and of the t0 in {0, 1/100, 5/2} at depths 1-12;
- the monoids generated by two rays with positive thresholds (Z[1/2]
  above 1 with Z[1/3] above 4/3, Z[1/5] above 3/2 with Z[1/2] above 1/2,
  Z[1/3] above 1/2 with Z[1/2] above 5/2) at depths 1-8, with
  ``is_atomic_element`` of 1 and 2;
- membership in M_q on a grid of values, certificate included;
- ascending-chain certificates that must verify or be rejected;
- length sets of N x Z cone and conductive Z^2 targets on a grid at
  depths 4-12, of numerical and M_0 targets, each at max_count 1, 3 and
  the default;
- factorizations (the count, the first three and a digest of all
  vectors in emission order, with the complete/truncated flags) at
  max_count 1, 3 and the default, and the ``is_atomic_element`` witness,
  of the same cone and conductive Z^2 targets, of the numerical targets
  and of sums and differences of generators of the other finitely
  generated monoids;
- property probes over cone and conductive boxes and numerical bounds,
  and a ladder of larger probes: ``nm:3,5`` for every property at bound
  3,000, ``nm:7,9`` LFM at 20,000, ``nm:1`` HFM and LFM at 20,000, and the
  N x Z cone and the conductive Z^2 monoids for HFM, LFM and ATM on the
  boxes (8, 20) and (12, 40);
- every gallery entry run at depths 1, 4, 6, 8 and 12: the ok flag, the
  checks and the report JSON, or the error;
- a digest of the generator windows at depths 1-4 of every family above
  whose atom windows are listed, of the conductive monoids whose threshold
  has coordinates in [-2, 2] and of both lex cones, over Z, Z^2, the
  second-priority Z^2 and Q^2, and of Conductive((1,5)) over Z^2 and
  Conductive((0,3/2)) over Q^2, with the LFM probe of
  Conductive((1,0)) over Q^2 on the box (2, 1), which is refused;
- ``length_set``, ``factorizations`` and ``is_atomic_element`` of the
  inputs on which the three must agree (antimatter monoids, zeros of a
  product and of a foreign group, a member without factorization, a
  non-member) at depths 3 and 8, and the atom windows of the antimatter
  monoid generated by two rays at threshold 0 at depths 1-8;
- the JSON documents (sorted keys) of chain, break, quasi-witness and
  prime-sum certificates at a few parameters, each with its replay
  verdict, of the two near-atomicity reports, of the common-divisor
  replays of M_(a,b)[2/3] at the default depth and of M_(a,b)[q] for q
  in {3/4, 3/5, 5/7} at depths 8, 10 and 12, and of every descriptor
  above, each with whether it decodes back to itself.

Usage (stdlib only):

    PYTHONPATH=src python scripts/answer_sweep.py > sweep.txt

Run it on two checkouts and compare the outputs with ``diff``; any line
that differs is a changed answer.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product

from posmon.elements import Q2, Z, Z2, Z2_SECOND, lexvec, rational, triple
from posmon.factor import (
    DEFAULT_MAX_COUNT,
    PROBEABLE,
    atoms,
    factorizations,
    is_atomic_element,
    length_set,
    probe_property,
)
from posmon.gallery import gallery_list, run_entry
from posmon.classify import classify_known
from posmon.descriptors import (
    AlphaBeta,
    Conductive,
    FIRST_POSITIVE,
    FULL_CONE,
    FiniteGenerated,
    GENERATE,
    GeometricPuiseux,
    LexCone,
    Localized,
    MonoidDescriptor,
    PrimeReciprocal,
    Product,
    ProductElement,
    UnionShift,
    numerical,
)
from posmon.monoids import contains, generators
from posmon.jsonforms import descriptor_from_json, descriptor_to_json
from posmon.witness import (
    ChainCertificate,
    mq_chain,
    prime_sum_refutation,
    synthesize_break,
    verify_almost_not_nearly,
    verify_certificate_json,
    verify_nearly_atomic,
    verify_not_strongly_atomic,
    verify_quasi_witness,
)

RATIOS = tuple(Fraction(r) for r in (
    "2/3", "3/4", "2/5", "3/5", "4/5", "5/6", "3/7", "4/7", "5/7",
    "5/8", "7/8", "4/9", "7/9", "7/10", "9/10",
))
NUMERICAL = (
    (1,), (2, 3), (3, 5), (3, 7), (4, 5, 6), (5, 7, 9), (4, 7, 9, 11),
    (6, 10, 15), (4, 6, 9), (3, 5, 6, 8, 9, 10), (4, 8, 12, 13),
)
EXTRA_FINITE = (
    FiniteGenerated(tuple(rational(Fraction(x)) for x in ("2/3", "1/2", "5/4", "7/6"))),
    FiniteGenerated(tuple(lexvec(Z2, *v) for v in ((0, 1), (1, 2), (2, 3), (1, 3)))),
    FiniteGenerated(tuple(lexvec(Z2, *v) for v in ((1, 0), (2, 0), (3, 0)))),
    FiniteGenerated(tuple(triple(*t) for t in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)))),
)
LEX_THRESHOLDS = [(x, y) for x in (1, 2) for y in range(-3, 4)] + [(0, 1), (0, 2), (0, 3)]
SMALL = range(-2, 3)
CONE = LexCone(Z2, FIRST_POSITIVE)
PLANE_THRESHOLDS = ((1, -2), (1, 1), (2, 0), (0, 2), (3, 1))
UNION_THRESHOLD = Fraction(173, 210)
M0_TARGETS = tuple(Fraction(x) for x in ("1", "5/6", "31/30", "18/77", "2", "71/78", "3/2", "1/4"))
TWO_RAYS_AT_0 = UnionShift(Localized(2, Fraction(0)), Localized(3, Fraction(0)), mode=GENERATE)
AGREEMENT = (
    (LexCone(Q2, FIRST_POSITIVE), lexvec(Q2, 1, 0)),
    (Localized(2, Fraction(0)), rational(1)),
    (Product(GeometricPuiseux(Fraction(2, 3)), Conductive(lexvec(Z, 1))),
     ProductElement(rational(0), lexvec(Z, 0))),
    (numerical(3, 5), lexvec(Z, 0)),
    (Conductive(lexvec(Z2, 0, 2)), lexvec(Z2, 1, 0)),
    (numerical(3, 5), rational(7)),
    (TWO_RAYS_AT_0, rational(1)),
)


def emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def atoms_line(m, depth: int) -> None:
    try:
        s = atoms(m, depth)
        out = {"atoms": [str(a) for a in s.atoms], "complete": s.complete, "note": s.note}
    except Exception as exc:  # the answer under test includes the failure
        out = {"error": error(exc)}
    emit({"query": "atoms", "instance": str(m), "depth": depth, **out})


def atom_windows() -> None:
    families = [e.descriptor for e in gallery_list()]
    families += [GeometricPuiseux(q) for q in RATIOS]
    families += [numerical(*g) for g in NUMERICAL] + list(EXTRA_FINITE)
    families += [AlphaBeta(Fraction(r)) for r in ("3/4", "3/5")]
    families += [Conductive(lexvec(Z2, *a)) for a in LEX_THRESHOLDS]
    for m in families:
        for depth in range(1, 31):
            atoms_line(m, depth)
    small = [Conductive(lexvec(Z, a)) for a in SMALL if a > 0]
    for group in (Z2, Q2):
        small += [Conductive(lexvec(group, *a)) for a in product(SMALL, SMALL) if a > (0, 0)]
    for m in small:
        for depth in range(1, 9):
            atoms_line(m, depth)
    deep = [Conductive(lexvec(Z2, 1, 0)), CONE, LexCone(Z2, FULL_CONE), LexCone(Z2_SECOND, FULL_CONE)]
    for m in deep:
        for depth in (60, 120):
            atoms_line(m, depth)
    atoms_line(LexCone(Q2, FIRST_POSITIVE), 30)
    for depth in (200, 400, 1000):
        atoms_line(GeometricPuiseux(Fraction(2, 3)), depth)
    rays = [Localized(p, Fraction(t0)) for p in (2, 3, 5) for t0 in ("1", "4/3", "7/5", "3")]
    union = UnionShift(PrimeReciprocal(), threshold=UNION_THRESHOLD)
    for depth in range(1, 9):
        for m in [*rays, union]:
            atoms_line(m, depth)
        for x in (UNION_THRESHOLD, UNION_THRESHOLD + Fraction(1, 2), Fraction(1)):
            atomic_line(union, rational(x), depth)
    more_rays = [Localized(p, Fraction(t0)) for p in (2, 3, 5, 7) for t0 in ("0", "1/100", "1", "4/3", "7/5", "3", "5/2")]
    for depth in range(1, 13):
        for m in more_rays:
            if m not in rays or depth > 8:
                atoms_line(m, depth)
    two_rays = [UnionShift(Localized(p, Fraction(t)), Localized(q, Fraction(u)), mode=GENERATE)
                for p, t, q, u in ((2, "1", 3, "4/3"), (5, "3/2", 2, "1/2"), (3, "1/2", 2, "5/2"))]
    for depth in range(1, 9):
        for m in two_rays:
            atoms_line(m, depth)
            for x in (1, 2):
                atomic_line(m, rational(x), depth)


def mq_grid() -> None:
    for q in RATIOS:
        m, d = GeometricPuiseux(q), q.denominator
        dens = sorted({1, d, d**2, d**3, 2, 4, 5, 6, 7, 2 * d, 3 * d})
        for den in dens:
            for k in range(0, 61):
                x = Fraction(k, den)
                v = contains(m, rational(x))
                cert = [[str(g), c] for g, c in v.certificate] if v.is_in else None
                emit({"query": "contains", "instance": str(m), "x": str(x),
                      "verdict": v.status, "certificate": cert})


def verify_line(case: str, q: Fraction, cert: ChainCertificate) -> None:
    try:
        cert.verify()
        verdict = "verified"
    except Exception as exc:  # the rejection message is the answer
        verdict = error(exc)
    try:
        replay = verify_certificate_json(json.loads(json.dumps(cert.to_json())))
    except Exception as exc:
        replay = error(exc)
    emit({"query": "chain-verify", "case": case, "ratio": str(q),
          "depth": cert.depth, "verdict": verdict, "replay": replay})


def chains() -> None:
    for q in RATIOS:
        n, d = q.numerator, q.denominator
        for depth in (0, 1, 2, 5, 12, 30):
            verify_line("built", q, mq_chain(q, depth))
        cert = mq_chain(q, 30)
        els, diffs = list(cert.elements), list(cert.differences)
        # two consecutive steps merged: still a member difference
        verify_line("merged", q, ChainCertificate(q, tuple(els[:3] + els[4:]), tuple(
            diffs[:2] + [diffs[2] + diffs[3]] + diffs[4:])))
        # q_3 shifted by x, both differences beside it adjusted: the chain
        # identities hold, and a_3 - x and a_4 + x decide the verdict
        for x in (Fraction(1, 6), Fraction(1, 5), Fraction(1, 2 * d), q**40, Fraction(1, d)):
            bent = els[:]
            bent[3] += x
            verify_line(f"bent {x}", q, ChainCertificate(q, tuple(bent), tuple(
                diffs[:2] + [diffs[2] - x] + [diffs[3] + x] + diffs[4:])))
        verify_line("tampered", q, ChainCertificate(q, tuple(els), tuple(diffs[:-1] + [diffs[-1] + 1])))
        verify_line("non-positive", q, ChainCertificate(q, tuple([els[0]] * len(els)), tuple([Fraction(0)] * len(diffs))))
        verify_line("short", q, ChainCertificate(q, tuple(els[:-1]), tuple(diffs)))
        small = Fraction(n - 1, d) if n > 2 else Fraction(1, d)
        verify_line("non-member", q, ChainCertificate(q, (small, Fraction(0)), (small,)))
        verify_line("sixth", q, ChainCertificate(q, (Fraction(1, 6), Fraction(0)), (Fraction(1, 6),)))


def length_line(m, b, depth: int) -> None:
    for max_count in (1, 3, DEFAULT_MAX_COUNT):
        try:
            ls = length_set(m, b, depth, max_count)
            out = {"lengths": list(ls.lengths), "complete": ls.complete}
        except Exception as exc:  # NotAMember is the answer for a non-member
            out = {"error": error(exc)}
        emit({"query": "length_set", "instance": str(m), "value": str(b), "depth": depth,
              "max_count": max_count, **out})


def grid_targets():
    """(monoid, target, depth): the N x Z cone and conductive Z^2 grid at
    depths 4-12, then the numerical targets 1-40."""
    for depth in range(4, 13):
        for x, y in product(range(1, 7), range(-10, 11)):
            yield CONE, lexvec(Z2, x, y), depth
        for a in PLANE_THRESHOLDS:
            m = Conductive(lexvec(Z2, *a))
            for x, y in product(range(0, 7), range(-6, 7)):
                if x or y > 0:
                    yield m, lexvec(Z2, x, y), depth
    for gens in NUMERICAL:
        for k in range(1, 41):
            yield numerical(*gens), rational(k), 12


def length_sets() -> None:
    for m, b, depth in grid_targets():
        length_line(m, b, depth)
    for depth in range(4, 9):
        for x in M0_TARGETS:
            length_line(PrimeReciprocal(), rational(x), depth)


def factorization_line(m, b, depth: int) -> None:
    for max_count in (1, 3, DEFAULT_MAX_COUNT):
        try:
            s = factorizations(m, b, depth, max_count)
            vectors = [str(f) for f in s.factorizations]
            digest = hashlib.sha256("\n".join(vectors).encode()).hexdigest()
            out = {"count": len(vectors), "first": vectors[:3], "sha256": digest,
                   "complete": s.complete, "truncated": s.truncated, "note": s.note}
        except Exception as exc:  # NotAMember is the answer for a non-member
            out = {"error": error(exc)}
        emit({"query": "factorizations", "instance": str(m), "value": str(b), "depth": depth,
              "max_count": max_count, **out})
    atomic_line(m, b, depth)


def atomic_line(m, b, depth: int) -> None:
    try:
        w = is_atomic_element(m, b, depth)
        out = {"status": w.status, "note": w.note,
               "factorization": None if w.factorization is None else str(w.factorization)}
    except Exception as exc:
        out = {"error": error(exc)}
    emit({"query": "is_atomic_element", "instance": str(m), "value": str(b), "depth": depth, **out})


def finite_targets(m) -> list:
    """The sums of one to three generators of m and the differences of two."""
    gens = sorted(set(m.generators))
    sums, level = set(gens), set(gens)
    for _ in range(2):
        level = {x + g for x in level for g in gens}
        sums |= level
    return sorted(sums) + [g - h for g in gens for h in gens if g != h]


def factorization_sets() -> None:
    for m, b, depth in grid_targets():
        factorization_line(m, b, depth)
    for m in EXTRA_FINITE:
        for b in finite_targets(m):
            factorization_line(m, b, 12)


def probe_line(m, prop: str, bound, depth=None) -> None:
    try:
        r = probe_property(m, prop, bound, depth)
        element = r.witness["element"] if r.witness else None
        out = {"verdict": r.verdict, "members_checked": r.members_checked, "note": r.note,
               "witness": None if element is None else str(element)}
    except Exception as exc:  # the answer under test includes the failure
        out = {"error": error(exc)}
    emit({"query": "probe", "instance": str(m), "property": prop, "bound": str(bound),
          "depth": depth, **out})


def probes() -> None:
    boxed = [CONE] + [Conductive(lexvec(Z2, *a)) for a in LEX_THRESHOLDS]
    for m in boxed:
        for box in product(range(1, 5), range(1, 9)):
            for prop in PROBEABLE:
                # a shallow window leaves tall boxes inconclusive
                for depth in (None, 3):
                    probe_line(m, prop, box, depth)
    for m in [numerical(*g) for g in NUMERICAL] + [Conductive(lexvec(Z, a)) for a in range(1, 6)]:
        for bound in (0, 5, 12, 30, 60):
            for prop in PROBEABLE:
                probe_line(m, prop, bound)
    for bound in ("0", "7/2", "10/3", "6"):
        for prop in PROBEABLE:
            probe_line(EXTRA_FINITE[0], prop, Fraction(bound))
    for prop in PROBEABLE:
        probe_line(numerical(3, 5), prop, 3000)
    probe_line(numerical(7, 9), "LFM", 20000)
    for prop in ("HFM", "LFM"):
        probe_line(numerical(1), prop, 20000)
    for m in boxed:
        for box in ((8, 20), (12, 40)):
            for prop in ("HFM", "LFM", "ATM"):
                probe_line(m, prop, box)


def gallery_runs() -> None:
    for entry in gallery_list():
        for depth in (1, 4, 6, 8, 12):
            try:
                r = run_entry(entry, depth)
                out = {"ok": r.ok, "checks": [list(c) for c in r.checks],
                       "report": r.report.to_json() if r.report else None}
            except Exception as exc:  # the answer under test includes the failure
                out = {"error": error(exc)}
            emit({"query": "gallery", "id": entry.id, "depth": depth, **out})


def window_families() -> list:
    """The conductive monoids with thresholds in [-2, 2] and the lex cones
    over Z, Z^2, the second-priority Z^2 and Q^2; the thresholds of two old
    window faults, Conductive((1,5)) over Z^2, whose atoms at depth 4 once
    missed its least generator, and Conductive((0,3/2)) over Q^2, whose
    atoms once took only the integer points of the box; then every other
    monoid whose atom windows the sweep lists, each once."""
    families = []
    for group in (Z, Z2, Z2_SECOND, Q2):
        thresholds = [lexvec(group, *a) for a in product(SMALL, repeat=group.rank)]
        families += [Conductive(a) for a in thresholds if a.is_positive]
        families += [LexCone(group, rule) for rule in (FIRST_POSITIVE, FULL_CONE)]
    families += [Conductive(lexvec(Z2, 1, 5)), Conductive(lexvec(Q2, 0, Fraction(3, 2)))]
    families += [e.descriptor for e in gallery_list()]
    families += [GeometricPuiseux(q) for q in RATIOS]
    families += [numerical(*g) for g in NUMERICAL] + list(EXTRA_FINITE)
    families += [AlphaBeta(Fraction(r)) for r in ("3/4", "3/5")]
    families += [Conductive(lexvec(Z2, *a)) for a in LEX_THRESHOLDS]
    families += [Localized(p, Fraction(t0)) for p in (2, 3, 5, 7)
                 for t0 in ("0", "1/100", "1", "4/3", "7/5", "3", "5/2")]
    families += [UnionShift(PrimeReciprocal(), threshold=UNION_THRESHOLD), TWO_RAYS_AT_0]
    families += [UnionShift(Localized(p, Fraction(t)), Localized(q, Fraction(u)), mode=GENERATE)
                 for p, t, q, u in ((2, "1", 3, "4/3"), (5, "3/2", 2, "1/2"), (3, "1/2", 2, "5/2"))]
    return list(dict.fromkeys(families))


def window_digests() -> None:
    for m in window_families():
        for depth in range(1, 5):
            try:
                gens = [str(g) for g in generators(m, depth).generators]
                digest = hashlib.sha256("\n".join(gens).encode()).hexdigest()
                out = {"count": len(gens), "sha256": digest}
            except Exception as exc:
                out = {"error": error(exc)}
            emit({"query": "generators", "instance": str(m), "depth": depth, **out})
    # a box of Q^2 holds infinitely many members, so this probe is refused
    probe_line(Conductive(lexvec(Q2, 1, 0)), "LFM", (2, 1))


def agreement() -> None:
    for m, b in AGREEMENT:
        for depth in (3, 8):
            length_line(m, b, depth)
            factorization_line(m, b, depth)
    for depth in range(1, 9):
        atoms_line(TWO_RAYS_AT_0, depth)


# the kinds ``verify_certificate_json`` replays, spelled out so that the
# script runs unchanged on checkouts from before the JSON codec
CERTIFICATE_KINDS = ("ascending-chain", "hereditary-break", "quasi-witness", "prime-sum-refutation")


def document_line(case: str, build) -> None:
    """The document of what build() returns (a certificate, a report or a
    descriptor), and its replay verdict or whether it decodes back."""
    try:
        obj = build()
        if isinstance(obj, MonoidDescriptor):
            doc = descriptor_to_json(obj)
            back = descriptor_from_json(json.loads(json.dumps(doc))) == obj
        else:
            doc = obj.to_json()
            back = verify_certificate_json(json.loads(json.dumps(doc))) if doc.get("kind") in CERTIFICATE_KINDS else None
        out = {"document": doc, "back": back}
    except Exception as exc:  # the answer under test includes the failure
        out = {"error": error(exc)}
    emit({"query": "json", "case": case, **out})


def json_documents() -> None:
    for q in map(Fraction, ("2/3", "3/5", "5/7", "7/10")):
        for depth in (0, 3, 12):
            document_line(f"chain {q} depth {depth}", lambda: mq_chain(q, depth))
        for steps in (0, 1, 4):
            document_line(f"break {q} steps {steps}", lambda: synthesize_break(q, steps))
        document_line(f"break {q} steps 2 depth 9", lambda: synthesize_break(q, 2, depth=9))
    for q in map(Fraction, ("1/2", "4/3", "7/4", "29/9", "3/8", "40/27")):
        document_line(f"quasi {q}", lambda: verify_quasi_witness(q))
    for q in map(Fraction, ("1/5", "1/7", "3/31", "1/11", "1/13")):
        document_line(f"prime-sum {q}", lambda: prime_sum_refutation(q))
    document_line("near-refutation-report 3", lambda: verify_almost_not_nearly(3))
    for depth in (1, 4, 8):
        document_line(f"nearly-atomic-report {depth}", lambda: verify_nearly_atomic(depth))
    for k, replay in enumerate(verify_not_strongly_atomic(Fraction(2, 3))):
        document_line(f"common-divisor 2/3 #{k}", lambda: replay)
    for q in map(Fraction, ("3/4", "3/5", "5/7")):
        for depth in (8, 10, 12):
            case = f"common-divisor {q} depth {depth}"
            try:
                replays = verify_not_strongly_atomic(q, depth)
            except Exception as exc:  # the answer under test includes the failure
                emit({"query": "json", "case": case, "error": error(exc)})
                continue
            for k, replay in enumerate(replays):
                document_line(f"{case} #{k}", lambda: replay)
    families = [e.descriptor for e in gallery_list()]
    families += [GeometricPuiseux(q) for q in RATIOS]
    families += [numerical(*g) for g in NUMERICAL] + list(EXTRA_FINITE)
    families += [AlphaBeta(Fraction(r)) for r in ("3/4", "3/5")]
    families += [Conductive(lexvec(Z2, *a)) for a in LEX_THRESHOLDS]
    families += [Conductive(lexvec(Q2, *a)) for a in product(SMALL, SMALL) if a > (0, 0)]
    families += [LexCone(group, rule) for group in (Z2, Z2_SECOND, Q2) for rule in (FIRST_POSITIVE, FULL_CONE)]
    families += [Localized(p, Fraction(t0)) for p in (2, 3, 5, 7) for t0 in ("0", "1/100", "4/3", "5/2")]
    families += [UnionShift(PrimeReciprocal(), threshold=UNION_THRESHOLD), TWO_RAYS_AT_0]
    families += [m for m, _ in AGREEMENT]
    for m in families:
        document_line(f"descriptor {m}", lambda: m)
        document_line(f"property-report {m}", lambda: classify_known(m))


if __name__ == "__main__":
    atom_windows()
    mq_grid()
    chains()
    length_sets()
    factorization_sets()
    probes()
    gallery_runs()
    window_digests()
    agreement()
    json_documents()
