"""The instance library: every example monoid with its expected
classification fragments and a verification recipe.

An entry is data: an id, a descriptor, a headline and its expectations.
``run_entry`` classifies the entry's descriptor and checks those
expectations, and the entry's recipe adds the checks particular to its
monoid; a computed verdict or a recipe check that disagrees fails loudly.
The entries are built once at import and share no mutable state, so
independent entries may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .classify import (
    PropertyReport,
    classify_known,
    check_chain_consistency,
    limit_point_bfm,
)
from .descriptors import (
    AlphaBeta,
    Conductive,
    FIRST_POSITIVE,
    FULL_CONE,
    GeometricPuiseux,
    LexCone,
    MonoidDescriptor,
    NearlyAtomicAlpha,
    PrimeReciprocal,
    Product,
    ProductElement,
    UnionShift,
    almost_not_nearly_instance,
    quasi_not_almost_instance,
)
from .elements import (
    GroupElement,
    Q2,
    Z,
    Z2,
    Z2_SECOND,
    lexvec,
    rational,
    triple,
    zero,
)
from .factor import atoms, factorizations, is_atomic_element, length_function_check, probe_property
from .monoids import contains, gp_membership
from .primes import first_primes
from .witness import (
    mq_chain,
    prime_sum_refutation,
    synthesize_break,
    verify_nearly_atomic,
    verify_not_strongly_atomic,
    verify_quasi_witness,
)

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class RecipeResult:
    report: Optional[PropertyReport]
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


@dataclass(frozen=True)
class GalleryEntry:
    id: str
    descriptor: MonoidDescriptor
    headline: str
    expected: tuple[tuple[str, str], ...]  # (property, status) fragments
    recipe: Callable[[MonoidDescriptor, int], list[Check]]


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return (name, bool(passed), detail)


def _expected_checks(report: PropertyReport, expected) -> list[Check]:
    out = [
        _check(
            f"expected {prop} {status}",
            report.status(prop) == status,
            f"computed {report.status(prop)}",
        )
        for prop, status in expected
    ]
    out.append(_check("chain consistent", check_chain_consistency(report)))
    return out


# ---------------------------------------------------------------------------
# recipes: each takes the entry's descriptor and the depth, and returns the
# checks that go beyond the expected verdicts


def _recipe_antimatter(m: LexCone, depth: int) -> list[Check]:
    sample = []
    for num in range(1, min(depth, 4) + 1):
        for den in (1, 2, 3):
            for y in (Fraction(-3, 2), Fraction(0), Fraction(5, 4)):
                sample.append(GroupElement(Q2, (Fraction(num, den), y)))
    halves = all(
        contains(m, GroupElement(Q2, (b.value[0] / 2, b.value[1] / 2))).is_in
        for b in sample
    )
    window = atoms(m, min(depth, 4))
    return [
        _check("every window member halves", halves, f"{len(sample)} members"),
        _check("no atoms", window.atoms == () and window.complete),
    ]


def _full_cone_recipe(atom: tuple[int, int], other: tuple[int, int]):
    """A full lex cone over Z^2 has the one atom ``atom``, and ``other``
    is provably not atomic."""

    def recipe(m: LexCone, depth: int) -> list[Check]:
        window = atoms(m, min(depth, 8))
        w = is_atomic_element(m, lexvec(m.lex_group, *other), min(depth, 8))
        return [
            _check(
                "atoms = {(%d,%d)}" % atom,
                [a.value for a in window.atoms] == [atom] and window.complete,
            ),
            _check("(%d,%d) provably not atomic" % other, w.status == "no", w.note or ""),
        ]

    return recipe


def _recipe_alphabeta(m: AlphaBeta, depth: int) -> list[Check]:
    d = min(depth, 10)
    window = atoms(m, d)
    replays = verify_not_strongly_atomic(m.q, depth=max(d, 8))
    return [
        _check("atom window re-verifies", len(window.atoms) > 0, f"{len(window.atoms)} atoms"),
        _check("alpha is a member", contains(m, triple(0, 1, 0), d).is_in),
        _check("beta is a member", contains(m, triple(0, 0, 1), d).is_in),
        _check(
            "common-divisor identities replay",
            len(replays) >= 4,
            f"{len(replays)} divisors checked",
        ),
    ]


def _recipe_mq(m: GeometricPuiseux, depth: int) -> list[Check]:
    q = m.q
    cert = mq_chain(q, max(depth, 20))
    window = atoms(m, min(depth, 10))
    expect = sorted(q**i for i in range(min(depth, 10) + 1))
    lp = limit_point_bfm(m)
    # cross-check for the hereditary direction: the chain failure comes
    # with a synthesized submonoid obstruction (head excluded from the
    # combined differences), exactly what a hereditarily atomic monoid
    # cannot have
    br = synthesize_break(q, 2, depth=30)
    return [
        _check("ascending chain replays", True, f"depth {cert.depth}, head {cert.elements[0]}"),
        _check("atoms are the ratio powers", [a.value for a in window.atoms] == expect),
        _check("limit-point criterion not applicable", not lp.applicable, lp.reason),
        _check(
            "hereditary obstruction synthesized",
            len(br.steps) == 2,
            f"head {br.chain.elements[0]} excluded from combined differences",
        ),
    ]


def _prime_reciprocal_check(m: MonoidDescriptor, depth: int) -> Check:
    window = atoms(m, depth)
    expect = sorted(Fraction(1, p) for p in first_primes(depth))
    return _check("atoms are the prime reciprocals", [a.value for a in window.atoms] == expect)


def _recipe_m0(m: PrimeReciprocal, depth: int) -> list[Check]:
    d = min(depth, 8)
    checks = [_prime_reciprocal_check(m, d)]
    lens = set(factorizations(m, rational(1), d).lengths())
    checks.append(
        _check(
            "lengths of 1 are the window primes",
            lens == set(first_primes(d)),
            f"L(1) contains {sorted(lens)}",
        )
    )
    lp = limit_point_bfm(m)
    checks.append(_check("limit-point criterion not applicable", not lp.applicable, lp.reason))
    return checks


def _recipe_conductive_c1(m: Conductive, depth: int) -> list[Check]:
    w = is_atomic_element(m, lexvec(Z2, 1, 0), min(depth, 8))
    return [_check("(1,0) provably not atomic", w.status == "no", w.note or "")]


def _recipe_conductive_c2(m: Conductive, depth: int) -> list[Check]:
    ok = length_function_check(m, lambda v: v.value[0], samples=1000, bound=(3, 8))
    probe = probe_property(m, "ATM", (3, 8), depth=12)
    return [
        _check("first coordinate is a length function", ok),
        _check("atomicity probe consistent", probe.consistent, probe.verdict),
    ]


def _recipe_nearly(m: NearlyAtomicAlpha, depth: int) -> list[Check]:
    rep = verify_nearly_atomic(min(depth, 8))
    return [
        _check(
            "companion decompositions replay",
            len(rep.decompositions) >= 4,
            f"{len(rep.decompositions)} members",
        ),
        _check("rational members obstructed", len(rep.rational_obstructions) >= 3),
    ]


def _recipe_almost(m: UnionShift, depth: int) -> list[Check]:
    checks = []
    for q in (Fraction(1, 5), Fraction(1, 7)):
        cert = prime_sum_refutation(q)
        checks.append(
            _check(
                f"prime-sum refutation for q={q}",
                True,
                f"{cert.count} primes up to {cert.last_prime}",
            )
        )
    checks.append(_prime_reciprocal_check(m, min(depth, 8)))
    return checks


def _recipe_quasi(m: UnionShift, depth: int) -> list[Check]:
    checks = []
    for q in (Fraction(1, 2), Fraction(5, 4), Fraction(2), Fraction(17, 6)):
        w = verify_quasi_witness(q)
        checks.append(
            _check(
                f"quasi witness for q={q}",
                True,
                f"b={w.companion}, b+q={w.atomic_value}={w.multiplicity}*(4/3)",
            )
        )
    half = rational(Fraction(1, 2))
    checks.append(_check("1/2 is a member", contains(m, half).is_in))
    checks.append(_check("1/2 outside the atom group Z[1/3]", not gp_membership(m, half)))
    w = is_atomic_element(m, rational(4), min(depth, 6))
    checks.append(_check("4 is an atomic element", w.status == "yes", str(w.factorization)))
    return checks


def _recipe_hfm_cone(m: LexCone, depth: int) -> list[Check]:
    probe = probe_property(m, "HFM", (4, 20), depth=25)
    search = factorizations(m, lexvec(Z2, 2, 0), depth=25)
    return [
        _check("half-factorial probe consistent", probe.consistent, probe.verdict),
        _check(
            ">= 10 factorizations of (2,0)",
            len(search.factorizations) >= 10 and not search.complete,
            f"{len(search.factorizations)} found, incomplete window",
        ),
        _check(
            "all factorizations of (2,0) have length 2",
            all(f.length == 2 for f in search.factorizations),
        ),
    ]


def _recipe_product(m: Product, depth: int) -> list[Check]:
    cert = mq_chain(m.left.q, min(depth, 10))
    embedded = all(
        contains(m, ProductElement(rational(a), zero(Z))).is_in
        for a in cert.differences
    )
    return [_check("chain embeds in the left factor", embedded)]


def _recipe_conductive_z3(m: Conductive, depth: int) -> list[Check]:
    window = atoms(m)
    probe = probe_property(m, "HFM", 60)
    return [
        _check("atoms = {3,4,5}", [x.value for x in window.atoms] == [(3,), (4,), (5,)]),
        _check(
            "half-factoriality refuted by probe",
            probe.refuted and probe.witness["element"].value == (9,),
            "9 = 3+3+3 = 4+5",
        ),
    ]


# ---------------------------------------------------------------------------
# the entries, in a fixed deterministic order

_ENTRIES: tuple[GalleryEntry, ...] = (
    GalleryEntry(
        "antimatter-QxQ",
        LexCone(Q2, FIRST_POSITIVE),
        "a positive cone of the rational lex plane with no atoms at all",
        (("QAM", "Refuted"), ("ATM", "Refuted")),
        _recipe_antimatter,
    ),
    GalleryEntry(
        "nonatomic-ZxZ",
        LexCone(Z2, FULL_CONE),
        "the full integer lex cone: one atom, yet not even quasi-atomic",
        (("ATM", "Refuted"), ("QAM", "Refuted")),
        _full_cone_recipe((0, 1), (1, 0)),
    ),
    GalleryEntry(
        "malphabeta",
        AlphaBeta(Fraction(2, 3)),
        "atomic but not strongly atomic (two irrational directions)",
        (("ATM", "Proved"), ("SAM", "Refuted"), ("NAM", "Proved")),
        _recipe_alphabeta,
    ),
    GalleryEntry(
        "mq-2/3",
        GeometricPuiseux(Fraction(2, 3)),
        "strongly atomic but with a non-stabilizing chain of principal ideals",
        (("SAM", "Proved"), ("ACCP", "Refuted"), ("BFM", "Refuted"), ("ATM", "Proved")),
        _recipe_mq,
    ),
    GalleryEntry(
        "m0",
        PrimeReciprocal(),
        "ascending chains stabilize, yet length sets are unbounded",
        (("ACCP", "Proved"), ("BFM", "Refuted"), ("SAM", "Proved")),
        _recipe_m0,
    ),
    GalleryEntry(
        "conductive-Z2-C1",
        Conductive(lexvec(Z2, 0, 1)),
        "conductive monoid conducted from the infinitesimal class: nothing holds",
        (("ATM", "Refuted"), ("QAM", "Refuted"), ("BFM", "Refuted"), ("NAM", "Refuted"),
         ("AAM", "Refuted")),
        _recipe_conductive_c1,
    ),
    GalleryEntry(
        "conductive-Z2-C2",
        Conductive(lexvec(Z2, 1, 0)),
        "conductive monoid conducted from the dominant class: bounded but not finite factorizations",
        (("BFM", "Proved"), ("FFM", "Refuted"), ("ACCP", "Proved")),
        _recipe_conductive_c2,
    ),
    GalleryEntry(
        "nearly-not-atomic",
        NearlyAtomicAlpha(),
        "a single companion makes every element atomic, yet the monoid is not atomic",
        (("NAM", "Proved"), ("ATM", "Refuted"), ("AAM", "Proved")),
        _recipe_nearly,
    ),
    GalleryEntry(
        "almost-not-nearly",
        almost_not_nearly_instance(),
        "almost atomic, but no single companion works (prime-sum refutation)",
        (("AAM", "Proved"), ("NAM", "Refuted"), ("QAM", "Proved")),
        _recipe_almost,
    ),
    GalleryEntry(
        "quasi-not-almost",
        quasi_not_almost_instance(),
        "quasi-atomic via the 4 n(q) companion, but the atom group misses 1/2",
        (("QAM", "Proved"), ("AAM", "Refuted"), ("NAM", "Refuted")),
        _recipe_quasi,
    ),
    GalleryEntry(
        "hfm-NxZ",
        LexCone(Z2, FIRST_POSITIVE),
        "half-factorial (length = leading coordinate) without finite factorization",
        (("HFM", "Proved"), ("FFM", "Refuted"), ("BFM", "Proved"), ("ATM", "Proved")),
        _recipe_hfm_cone,
    ),
    GalleryEntry(
        "cone-Z2-secondpriority",
        LexCone(Z2_SECOND, FULL_CONE),
        "the lex cone with priority in the second coordinate: a group's cone need not be atomic",
        (("ATM", "Refuted"), ("QAM", "Refuted")),
        _full_cone_recipe((1, 0), (0, 1)),
    ),
    GalleryEntry(
        "mq-times-N0",
        Product(GeometricPuiseux(Fraction(2, 3)), Conductive(lexvec(Z, 1))),
        "product with the free rank-one monoid inherits the chain failure",
        (("SAM", "Proved"), ("ACCP", "Refuted")),
        _recipe_product,
    ),
    GalleryEntry(
        "conductive-Z-3",
        Conductive(lexvec(Z, 3)),
        "a numerical conductive monoid: finite factorizations, lengths collide",
        (("FFM", "Proved"), ("LFM", "Refuted"), ("BFM", "Proved")),
        _recipe_conductive_z3,
    ),
)

_BY_ID: dict[str, GalleryEntry] = {e.id: e for e in _ENTRIES}


def gallery_list() -> tuple[GalleryEntry, ...]:
    """All entries, in a fixed deterministic order."""
    return _ENTRIES


def by_id(entry_id: str) -> GalleryEntry:
    return _BY_ID[entry_id]


def run_entry(entry: GalleryEntry, depth: int = 12) -> RecipeResult:
    """Classify the entry's descriptor, check its expected verdicts, then
    run its recipe.  The classification uses ``classify_known``'s own
    default depth, whatever the recipe depth."""
    report = classify_known(entry.descriptor)
    checks = _expected_checks(report, entry.expected) + entry.recipe(entry.descriptor, depth)
    return RecipeResult(report, tuple(checks))
