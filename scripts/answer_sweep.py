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
- property probes over cone and conductive boxes and numerical bounds;
- every gallery entry run at depths 1, 4, 6, 8 and 12: the ok flag, the
  checks and the report JSON, or the error;
- a digest of the generator windows of the conductive monoids whose
  threshold has coordinates in [-2, 2] and of both lex cones, over Z,
  Z^2, the second-priority Z^2 and Q^2, at depths 1-4.

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
from posmon.monoids import (
    AlphaBeta,
    Conductive,
    FIRST_POSITIVE,
    FULL_CONE,
    FiniteGenerated,
    GeometricPuiseux,
    LexCone,
    Localized,
    PrimeReciprocal,
    UnionShift,
    contains,
    generators,
    numerical,
)
from posmon.witness import ChainCertificate, mq_chain, verify_certificate_json

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


def window_digests() -> None:
    for group in (Z, Z2, Z2_SECOND, Q2):
        thresholds = [lexvec(group, *a) for a in product(SMALL, repeat=group.rank)]
        families = [Conductive(a) for a in thresholds if a.is_positive]
        families += [LexCone(group, rule) for rule in (FIRST_POSITIVE, FULL_CONE)]
        for m in families:
            for depth in range(1, 5):
                try:
                    gens = [str(g) for g in generators(m, depth).generators]
                    digest = hashlib.sha256("\n".join(gens).encode()).hexdigest()
                    out = {"count": len(gens), "sha256": digest}
                except Exception as exc:
                    out = {"error": error(exc)}
                emit({"query": "generators", "instance": str(m), "depth": depth, **out})


if __name__ == "__main__":
    atom_windows()
    mq_grid()
    chains()
    length_sets()
    factorization_sets()
    probes()
    gallery_runs()
    window_digests()
