"""Exact, criterion-backed classification of conductive monoids, the
limit-point bounded-factorization conclusion, and the consistency layer
that every emitted report must pass.

Verdict sources are labeled so a reader can tell what was decided by an
exact criterion ("theorem"), recorded as a known classification of the
family ("known"), certified by a machine-checked witness ("certificate"),
implied along the implication chain ("implied"), or merely supported by a
bounded probe ("probe").

One question is, to our knowledge, open and the classifier takes no
position on it: whether every monoid all of whose submonoids are atomic
must satisfy the chain condition on principal ideals once the
torsion-free hypothesis is dropped.  Reports never claim ACCP from
hereditary atomicity alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .descriptors import (
    AlphaBeta,
    Conductive,
    FiniteGenerated,
    GENERATE,
    GeometricPuiseux,
    LexCone,
    Localized,
    MonoidDescriptor,
    NearlyAtomicAlpha,
    PrimeReciprocal,
    Product,
    UNION,
    UnionShift,
    UnsupportedFamily,
    FULL_CONE,
)
from .elements import GroupElement, arch_valuation, rational
from .factor import length_set, ProbeResult
from .jsonforms import JsonForm, descriptor_to_json
from .monoids import DEFAULT_DEPTH

PROPERTIES = ("UFM", "HFM", "LFM", "FFM", "BFM", "ACCP", "SAM", "ATM", "NAM", "AAM", "QAM")

# X => Y edges of the implication diagram (HFM hangs off the main chain)
CHAIN_EDGES = (
    ("UFM", "LFM"),
    ("LFM", "FFM"),
    ("FFM", "BFM"),
    ("BFM", "ACCP"),
    ("ACCP", "SAM"),
    ("SAM", "ATM"),
    ("ATM", "NAM"),
    ("NAM", "AAM"),
    ("AAM", "QAM"),
    ("UFM", "HFM"),
    ("HFM", "BFM"),
)

PROVED, REFUTED, PROBE_CONSISTENT, UNKNOWN = (
    "Proved",
    "Refuted",
    "ProbeConsistent",
    "Unknown",
)


class InconsistentReport(AssertionError):
    """An emitted report violated the implication chain."""


@dataclass(frozen=True)
class Verdict(JsonForm):
    status: str
    source: str
    witness: Optional[object] = None


@dataclass(frozen=True)
class PropertyReport:
    descriptor: MonoidDescriptor
    verdicts: dict[str, Verdict]
    conductive: bool = False
    notes: tuple[str, ...] = ()

    @property
    def chain_ok(self) -> bool:
        return check_chain_consistency(self)

    def status(self, prop: str) -> str:
        return self.verdicts[prop].status

    def to_json(self) -> dict:
        out = {
            "instance": descriptor_to_json(self.descriptor),
            "verdicts": {p: self.verdicts[p].to_json() for p in PROPERTIES},
            "chain_ok": self.chain_ok,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _implies() -> dict[str, frozenset[str]]:
    """Transitive closure of the implication edges."""
    reach = {p: {q for x, q in CHAIN_EDGES if x == p} for p in PROPERTIES}
    changed = True
    while changed:
        changed = False
        for p in PROPERTIES:
            extra = set()
            for q in reach[p]:
                extra |= reach[q]
            if not extra <= reach[p]:
                reach[p] |= extra
                changed = True
    return {p: frozenset(r) for p, r in reach.items()}


_IMPLIES = _implies()


def check_chain_consistency(report: PropertyReport) -> bool:
    """No property may be Proved while a (transitively) weaker one is
    Refuted; conductive reports additionally honor UFM <=> HFM and
    BFM <=> QAM."""
    v = report.verdicts
    for x in PROPERTIES:
        if v[x].status != PROVED:
            continue
        for y in _IMPLIES[x]:
            if v[y].status == REFUTED:
                return False
    if report.conductive:
        for x, y in (("UFM", "HFM"), ("BFM", "QAM")):
            sx, sy = v[x].status, v[y].status
            if {sx, sy} == {PROVED, REFUTED}:
                return False
    return True


def _propagate(verdicts: dict[str, Verdict], conductive: bool) -> dict[str, Verdict]:
    """Close a partial verdict map under the implication chain: Proved
    flows to weaker properties, Refuted flows to stronger ones."""
    v = dict(verdicts)
    changed = True
    while changed:
        changed = False
        for x, y in CHAIN_EDGES:
            if x in v and v[x].status == PROVED and y not in v:
                v[y] = Verdict(PROVED, f"implied({x}=>{y})")
                changed = True
            if y in v and v[y].status == REFUTED and x not in v:
                v[x] = Verdict(REFUTED, f"implied({x}=>{y})")
                changed = True
        if conductive:
            for x, y in (("UFM", "HFM"), ("BFM", "QAM")):
                for a, b in ((x, y), (y, x)):
                    if a in v and b not in v and v[a].status in (PROVED, REFUTED):
                        v[b] = Verdict(v[a].status, f"implied({x}<=>{y})")
                        changed = True
    for p in PROPERTIES:
        v.setdefault(p, Verdict(UNKNOWN, "undetermined"))
    return v


def _finalize(
    descriptor: MonoidDescriptor,
    verdicts: dict[str, Verdict],
    conductive: bool = False,
    notes: tuple[str, ...] = (),
) -> PropertyReport:
    report = PropertyReport(descriptor, _propagate(verdicts, conductive), conductive, notes)
    if not check_chain_consistency(report):
        raise InconsistentReport(f"inconsistent report for {descriptor}")
    return report


# ---------------------------------------------------------------------------
# conductive classification


def classify_conductive(a: GroupElement) -> PropertyReport:
    """Exact classification of M_a = {0} u G_{>=a}.

    BFM through QAM hold jointly iff the valuation of a is the minimum of
    the value set (for lex groups: the priority coordinate of a is
    nonzero).  FFM iff the group is cyclic.  LFM iff the group is cyclic
    with generator b and a is b or 2b.  UFM iff HFM iff the group is
    cyclic and M_a is the whole positive cone (a = b).
    """
    if not a.is_positive:
        raise ValueError("the conducting element must be positive")
    g = a.group
    m = Conductive(a)
    dominant = g.is_archimedean or arch_valuation(a).level == 0
    verdicts: dict[str, Verdict] = {}
    bf_tag = "conductive-bf-valuation-criterion"
    if dominant:
        verdicts["BFM"] = Verdict(PROVED, bf_tag)
        verdicts["QAM"] = Verdict(PROVED, bf_tag)
    else:
        verdicts["QAM"] = Verdict(REFUTED, bf_tag, witness=str(a))
        verdicts["BFM"] = Verdict(REFUTED, bf_tag)
    if g.is_cyclic:
        verdicts["FFM"] = (
            Verdict(PROVED, "conductive-ff-cyclic-criterion")
        )
        lead = a.value[0]
        verdicts["LFM"] = Verdict(
            PROVED if lead in (1, 2) else REFUTED, "conductive-lf-two-step-criterion"
        )
        uf = PROVED if lead == 1 else REFUTED
        verdicts["UFM"] = Verdict(uf, "conductive-uf-hf-full-cone-criterion")
        verdicts["HFM"] = Verdict(uf, "conductive-uf-hf-full-cone-criterion")
    else:
        verdicts["FFM"] = Verdict(REFUTED, "conductive-ff-cyclic-criterion")
        verdicts["UFM"] = Verdict(REFUTED, "conductive-uf-hf-full-cone-criterion")
        verdicts["HFM"] = Verdict(REFUTED, "conductive-uf-hf-full-cone-criterion")
    return _finalize(m, verdicts, conductive=True)


# ---------------------------------------------------------------------------
# limit-point criterion


@dataclass(frozen=True)
class LimitPointVerdict:
    descriptor: MonoidDescriptor
    applicable: bool
    infimum_positive: bool
    bfm_proved: bool
    reason: str
    infimum_witness: Optional[GroupElement] = None


def limit_point_bfm(m: MonoidDescriptor) -> LimitPointVerdict:
    """When 0 is not a limit point of the nonzero members of an Archimedean
    positive monoid, the monoid is a BFM.  Reports non-applicability when
    0 is a limit point; raises for non-Archimedean families."""
    if isinstance(m, FiniteGenerated):
        if not m.group.is_archimedean:
            raise UnsupportedFamily(
                "non-Archimedean family: use the conductive classifier or probes"
            )
        smallest = min(m.generators)
        return LimitPointVerdict(
            m, True, True, True, "finitely many generators; infimum is the least",
            smallest,
        )
    if isinstance(m, Conductive):
        if not m.group.is_archimedean:
            raise UnsupportedFamily(
                "non-Archimedean family: use the conductive classifier or probes"
            )
        return LimitPointVerdict(
            m, True, True, True, "members are 0 or at least the conductor", m.threshold
        )
    if isinstance(m, Localized):
        if m.min_nonzero > 0:
            return LimitPointVerdict(
                m, True, True, True, "ray threshold is positive",
                rational(m.min_nonzero),
            )
        return LimitPointVerdict(
            m, False, False, False, "0 is a limit point: 1/p^k -> 0"
        )
    if isinstance(m, GeometricPuiseux):
        return LimitPointVerdict(m, False, False, False, "0 is a limit point: q^n -> 0")
    if isinstance(m, PrimeReciprocal):
        return LimitPointVerdict(m, False, False, False, "0 is a limit point: 1/p -> 0")
    if isinstance(m, UnionShift):
        reason = (
            "0 is a limit point: the base contains 1/p -> 0"
            if m.mode == UNION
            else "0 is a limit point: the dyadic ray accumulates at 0"
        )
        return LimitPointVerdict(m, False, False, False, reason)
    if isinstance(m, (AlphaBeta, NearlyAtomicAlpha)):
        return LimitPointVerdict(
            m, False, False, False, "0 is a limit point of the rational members"
        )
    raise UnsupportedFamily(
        "non-Archimedean family: use the conductive classifier or probes"
    )


# ---------------------------------------------------------------------------
# known classifications for the gallery families


def classify_known(
    m: MonoidDescriptor,
    probes: tuple[ProbeResult, ...] = (),
    depth: int = DEFAULT_DEPTH,
) -> PropertyReport:
    """Attach recorded classifications for the gallery families, merge any
    probe results, and enforce chain consistency."""
    verdicts: dict[str, Verdict] = {}
    notes: list[str] = []
    conductive = False
    if isinstance(m, Conductive):
        verdicts = dict(classify_conductive(m.threshold).verdicts)
        conductive = True
    elif isinstance(m, GeometricPuiseux):
        verdicts["SAM"] = Verdict(PROVED, "known:geometric-strongly-atomic")
        verdicts["ACCP"] = Verdict(
            REFUTED,
            "certificate:ascending-chain",
            witness={"chain": f"d*q^n with ratio {m.q}"},
        )
    elif isinstance(m, PrimeReciprocal):
        verdicts["ACCP"] = Verdict(PROVED, "known:prime-reciprocal-accp")
        lengths = length_set(m, GroupElement(m.group, Fraction(1)), depth=min(depth, 8))
        verdicts["BFM"] = Verdict(
            REFUTED,
            "certificate:length-set-growth",
            witness={"element": "1", "lengths": list(lengths.lengths)},
        )
    elif isinstance(m, FiniteGenerated):
        # the limit-point criterion needs an Archimedean group; FFM holds anyway
        if m.group.is_archimedean and limit_point_bfm(m).bfm_proved:
            verdicts["BFM"] = Verdict(PROVED, "limit-point-criterion")
        verdicts["FFM"] = Verdict(PROVED, "known:finitely-generated-ffm")
    elif isinstance(m, LexCone):
        verdicts = _lexcone_known(m, notes)
    elif isinstance(m, Localized):
        if m.min_nonzero == 0:
            verdicts["QAM"] = Verdict(
                REFUTED, "known:antimatter-halving", witness="no atoms; members halve"
            )
            notes.append("antimatter")
        else:
            verdicts["BFM"] = Verdict(PROVED, "limit-point-criterion")
    elif isinstance(m, UnionShift) and m.mode == UNION:
        verdicts["AAM"] = Verdict(PROVED, "known:atom-group-covers-members")
        verdicts["NAM"] = Verdict(REFUTED, "certificate:prime-sum-refutation")
    elif isinstance(m, UnionShift) and m.mode == GENERATE:
        verdicts["QAM"] = Verdict(PROVED, "certificate:quasi-witness-family")
        verdicts["AAM"] = Verdict(
            REFUTED,
            "certificate:atom-group-obstruction",
            witness={"element": "1/2", "outside": "Z[1/3]"},
        )
    elif isinstance(m, AlphaBeta):
        verdicts["ATM"] = Verdict(PROVED, "known:alphabeta-atomic")
        verdicts["SAM"] = Verdict(
            REFUTED, "certificate:common-divisor-identities"
        )
    elif isinstance(m, NearlyAtomicAlpha):
        verdicts["NAM"] = Verdict(
            PROVED, "known:universal-companion-sqrt2",
            witness={"companion": "sqrt2"},
        )
        verdicts["ATM"] = Verdict(
            REFUTED, "known:rational-members-not-atomic",
            witness={"element": "1"},
        )
    elif isinstance(m, Product):
        left = classify_known(m.left, depth=depth)
        verdicts = _product_known(m, left)
        notes.append("verdicts inherited from the left factor (divisor-closed)")
    else:
        raise UnsupportedFamily(f"no recorded classification for {m.family}")
    for probe in probes:
        if probe.descriptor != m:
            raise ValueError("probe result for a different instance")
        if probe.refuted and probe.property not in verdicts:
            verdicts[probe.property] = Verdict(
                REFUTED, f"probe(bound={probe.bound})", witness=_probe_witness(probe)
            )
        elif probe.consistent and probe.property not in verdicts:
            verdicts[probe.property] = Verdict(
                PROBE_CONSISTENT, f"probe(bound={probe.bound})"
            )
    return _finalize(m, verdicts, conductive, tuple(notes))


def _lexcone_known(m: LexCone, notes: list[str]) -> dict[str, Verdict]:
    if m.lex_group.rational_coords:
        notes.append("antimatter")
        return {
            "QAM": Verdict(
                REFUTED, "known:antimatter-halving", witness="members halve in the cone"
            )
        }
    if m.rule == FULL_CONE:
        g = m.lex_group
        atom_coords = [0] * g.rank
        atom_coords[g.priority_order[-1]] = 1
        unreachable = [0] * g.rank
        unreachable[g.priority] = 1
        return {
            "QAM": Verdict(
                REFUTED,
                "known:single-atom-cannot-reach-dominant-class",
                witness={
                    "atom": str(GroupElement(g, tuple(atom_coords))),
                    "unreachable": str(GroupElement(g, tuple(unreachable))),
                },
            )
        }
    # the first-positive integer cone: half-factorial via the leading
    # coordinate, not an FFM (infinitely many factorizations)
    return {
        "HFM": Verdict(PROVED, "known:leading-coordinate-length"),
        "ATM": Verdict(PROVED, "known:leading-coordinate-length"),
        "FFM": Verdict(
            REFUTED,
            "known:infinitely-many-factorizations",
            witness={"element": "(2,0)"},
        ),
    }


def _product_known(m: Product, left: PropertyReport) -> dict[str, Verdict]:
    right = m.right
    right_is_n0 = (
        isinstance(right, Conductive)
        and right.group.is_cyclic
        and right.threshold.value == (1,)
    )
    if not right_is_n0:
        raise UnsupportedFamily(
            "product classifications are recorded for cofactor N_0 only"
        )
    out: dict[str, Verdict] = {}
    for prop in ("SAM", "ACCP", "ATM"):
        lv = left.verdicts[prop]
        if lv.status == PROVED and prop in ("SAM", "ATM"):
            out[prop] = Verdict(PROVED, f"inherited-left:{lv.source}")
        if lv.status == REFUTED and prop in ("ACCP", "SAM"):
            out[prop] = Verdict(REFUTED, f"divisor-closed-left:{lv.source}")
    return out


def _probe_witness(probe: ProbeResult):
    w = probe.witness or {}
    out = {}
    if "element" in w:
        out["element"] = str(w["element"])
    if "factorizations" in w:
        out["factorizations"] = [str(f) for f in w["factorizations"]]
    if "reason" in w:
        out["reason"] = w["reason"]
    return out
