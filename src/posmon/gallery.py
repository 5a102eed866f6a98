"""The instance library: every example monoid with its expected
classification fragments and a verification recipe that reproduces them.

Each entry is self-describing; ``run_entry`` executes the recipe and
fails loudly when a computed verdict or a recipe check disagrees with the
expectation.  Entries share no mutable state, so independent entries may
run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .classify import (
    PropertyReport,
    classify_conductive,
    classify_known,
    check_chain_consistency,
    limit_point_bfm,
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
from .monoids import (
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
    almost_not_nearly_instance,
    contains,
    gp_membership,
    quasi_not_almost_instance,
)
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
    recipe: Callable[[int], RecipeResult]


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
# recipes


def _recipe_antimatter(depth: int) -> RecipeResult:
    m = LexCone(Q2, FIRST_POSITIVE)
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["antimatter-QxQ"])
    sample = []
    for num in range(1, min(depth, 4) + 1):
        for den in (1, 2, 3):
            for y in (Fraction(-3, 2), Fraction(0), Fraction(5, 4)):
                sample.append(GroupElement(Q2, (Fraction(num, den), y)))
    halves = all(
        contains(m, GroupElement(Q2, (b.value[0] / 2, b.value[1] / 2))).is_in
        for b in sample
    )
    checks.append(_check("every window member halves", halves, f"{len(sample)} members"))
    window = atoms(m, min(depth, 4))
    checks.append(_check("no atoms", window.atoms == () and window.complete))
    return RecipeResult(report, tuple(checks))


def _recipe_nonatomic_cone(depth: int) -> RecipeResult:
    m = LexCone(Z2, FULL_CONE)
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["nonatomic-ZxZ"])
    window = atoms(m, min(depth, 8))
    checks.append(
        _check(
            "atoms = {(0,1)}",
            [a.value for a in window.atoms] == [(0, 1)] and window.complete,
        )
    )
    w = is_atomic_element(m, lexvec(Z2, 1, 0), min(depth, 8))
    checks.append(_check("(1,0) provably not atomic", w.status == "no", w.note or ""))
    return RecipeResult(report, tuple(checks))


def _recipe_second_priority_cone(depth: int) -> RecipeResult:
    m = LexCone(Z2_SECOND, FULL_CONE)
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["cone-Z2-secondpriority"])
    window = atoms(m, min(depth, 8))
    checks.append(
        _check(
            "atoms = {(1,0)}",
            [a.value for a in window.atoms] == [(1, 0)] and window.complete,
        )
    )
    w = is_atomic_element(m, lexvec(Z2_SECOND, 0, 1), min(depth, 8))
    checks.append(_check("(0,1) provably not atomic", w.status == "no", w.note or ""))
    return RecipeResult(report, tuple(checks))


def _recipe_alphabeta(depth: int) -> RecipeResult:
    q = Fraction(2, 3)
    m = AlphaBeta(q)
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["malphabeta"])
    d = min(depth, 10)
    window = atoms(m, d)
    checks.append(
        _check("atom window re-verifies", len(window.atoms) > 0, f"{len(window.atoms)} atoms")
    )
    checks.append(_check("alpha is a member", contains(m, triple(0, 1, 0), d).is_in))
    checks.append(_check("beta is a member", contains(m, triple(0, 0, 1), d).is_in))
    replays = verify_not_strongly_atomic(q, depth=max(d, 8))
    checks.append(
        _check(
            "common-divisor identities replay",
            len(replays) >= 4,
            f"{len(replays)} divisors checked",
        )
    )
    return RecipeResult(report, tuple(checks))


def _recipe_mq(depth: int) -> RecipeResult:
    q = Fraction(2, 3)
    m = GeometricPuiseux(q)
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["mq-2/3"])
    cert = mq_chain(q, max(depth, 20))
    checks.append(
        _check("ascending chain replays", True, f"depth {cert.depth}, head {cert.elements[0]}")
    )
    window = atoms(m, min(depth, 10))
    expect = sorted(q**i for i in range(min(depth, 10) + 1))
    checks.append(
        _check("atoms are the ratio powers", [a.value for a in window.atoms] == expect)
    )
    lp = limit_point_bfm(m)
    checks.append(_check("limit-point criterion not applicable", not lp.applicable, lp.reason))
    # cross-check for the hereditary direction: the chain failure comes
    # with a synthesized submonoid obstruction (head excluded from the
    # combined differences), exactly what a hereditarily atomic monoid
    # cannot have
    br = synthesize_break(q, 2, depth=30)
    checks.append(
        _check(
            "hereditary obstruction synthesized",
            len(br.steps) == 2,
            f"head {br.chain.elements[0]} excluded from combined differences",
        )
    )
    return RecipeResult(report, tuple(checks))


def _recipe_m0(depth: int) -> RecipeResult:
    m = PrimeReciprocal()
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["m0"])
    d = min(depth, 8)
    window = atoms(m, d)
    expect = sorted(Fraction(1, p) for p in first_primes(d))
    checks.append(
        _check("atoms are the prime reciprocals", [a.value for a in window.atoms] == expect)
    )
    search = factorizations(m, rational(1), d)
    lens = set(search.lengths())
    checks.append(
        _check(
            "lengths of 1 are the window primes",
            lens == set(first_primes(d)),
            f"L(1) contains {sorted(lens)}",
        )
    )
    lp = limit_point_bfm(m)
    checks.append(_check("limit-point criterion not applicable", not lp.applicable, lp.reason))
    return RecipeResult(report, tuple(checks))


def _recipe_conductive_c1(depth: int) -> RecipeResult:
    a = lexvec(Z2, 0, 1)
    report = classify_conductive(a, min(depth, 8))
    checks = _expected_checks(report, _EXPECTED["conductive-Z2-C1"])
    m = Conductive(a)
    w = is_atomic_element(m, lexvec(Z2, 1, 0), min(depth, 8))
    checks.append(_check("(1,0) provably not atomic", w.status == "no", w.note or ""))
    return RecipeResult(report, tuple(checks))


def _recipe_conductive_c2(depth: int) -> RecipeResult:
    a = lexvec(Z2, 1, 0)
    report = classify_conductive(a, min(depth, 8))
    checks = _expected_checks(report, _EXPECTED["conductive-Z2-C2"])
    m = Conductive(a)
    ok = length_function_check(m, lambda v: v.value[0], samples=1000, bound=(3, 8))
    checks.append(_check("first coordinate is a length function", ok))
    probe = probe_property(m, "ATM", (3, 8), depth=12)
    checks.append(_check("atomicity probe consistent", probe.consistent, probe.verdict))
    return RecipeResult(report, tuple(checks))


def _recipe_nearly(depth: int) -> RecipeResult:
    m = NearlyAtomicAlpha()
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["nearly-not-atomic"])
    rep = verify_nearly_atomic(min(depth, 8))
    checks.append(
        _check(
            "companion decompositions replay",
            len(rep.decompositions) >= 4,
            f"{len(rep.decompositions)} members",
        )
    )
    checks.append(
        _check(
            "rational members obstructed",
            len(rep.rational_obstructions) >= 3,
        )
    )
    return RecipeResult(report, tuple(checks))


def _recipe_almost(depth: int) -> RecipeResult:
    m = almost_not_nearly_instance()
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["almost-not-nearly"])
    for q in (Fraction(1, 5), Fraction(1, 7)):
        cert = prime_sum_refutation(q)
        checks.append(
            _check(
                f"prime-sum refutation for q={q}",
                True,
                f"{cert.count} primes up to {cert.last_prime}",
            )
        )
    window = atoms(m, min(depth, 8))
    expect = sorted(Fraction(1, p) for p in first_primes(min(depth, 8)))
    checks.append(
        _check("atoms are the prime reciprocals", [a.value for a in window.atoms] == expect)
    )
    return RecipeResult(report, tuple(checks))


def _recipe_quasi(depth: int) -> RecipeResult:
    m = quasi_not_almost_instance()
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["quasi-not-almost"])
    for q in (Fraction(1, 2), Fraction(5, 4), Fraction(2), Fraction(17, 6)):
        w = verify_quasi_witness(q)
        checks.append(
            _check(
                f"quasi witness for q={q}",
                True,
                f"b={w.companion}, b+q={w.atomic_value}={w.multiplicity}*(4/3)",
            )
        )
    checks.append(_check("1/2 is a member", contains(m, rational(Fraction(1, 2))).is_in))
    checks.append(
        _check(
            "1/2 outside the atom group Z[1/3]",
            not gp_membership(m, rational(Fraction(1, 2))),
        )
    )
    w = is_atomic_element(m, rational(4), min(depth, 6))
    checks.append(
        _check("4 is an atomic element", w.status == "yes", str(w.factorization))
    )
    return RecipeResult(report, tuple(checks))


def _recipe_hfm_cone(depth: int) -> RecipeResult:
    m = LexCone(Z2, FIRST_POSITIVE)
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["hfm-NxZ"])
    probe = probe_property(m, "HFM", (4, 20), depth=25)
    checks.append(_check("half-factorial probe consistent", probe.consistent, probe.verdict))
    search = factorizations(m, lexvec(Z2, 2, 0), depth=25)
    checks.append(
        _check(
            ">= 10 factorizations of (2,0)",
            len(search.factorizations) >= 10 and not search.complete,
            f"{len(search.factorizations)} found, incomplete window",
        )
    )
    all_len_two = all(f.length == 2 for f in search.factorizations)
    checks.append(_check("all factorizations of (2,0) have length 2", all_len_two))
    return RecipeResult(report, tuple(checks))


def _recipe_product(depth: int) -> RecipeResult:
    q = Fraction(2, 3)
    m = Product(GeometricPuiseux(q), Conductive(lexvec(Z, 1)))
    report = classify_known(m)
    checks = _expected_checks(report, _EXPECTED["mq-times-N0"])
    cert = mq_chain(q, min(depth, 10))
    embedded = all(
        contains(m, ProductElement(rational(a), zero(Z))).is_in
        for a in cert.differences
    )
    checks.append(_check("chain embeds in the left factor", embedded))
    return RecipeResult(report, tuple(checks))


def _recipe_conductive_z3(depth: int) -> RecipeResult:
    a = lexvec(Z, 3)
    report = classify_conductive(a)
    checks = _expected_checks(report, _EXPECTED["conductive-Z-3"])
    window = atoms(Conductive(a))
    checks.append(
        _check("atoms = {3,4,5}", [x.value for x in window.atoms] == [(3,), (4,), (5,)])
    )
    probe = probe_property(Conductive(a), "HFM", 60)
    checks.append(
        _check(
            "half-factoriality refuted by probe",
            probe.refuted and probe.witness["element"].value == (9,),
            "9 = 3+3+3 = 4+5",
        )
    )
    return RecipeResult(report, tuple(checks))


# ---------------------------------------------------------------------------
# the entries

_EXPECTED: dict[str, tuple[tuple[str, str], ...]] = {
    "antimatter-QxQ": (("QAM", "Refuted"), ("ATM", "Refuted")),
    "nonatomic-ZxZ": (("ATM", "Refuted"), ("QAM", "Refuted")),
    "malphabeta": (("ATM", "Proved"), ("SAM", "Refuted"), ("NAM", "Proved")),
    "mq-2/3": (("SAM", "Proved"), ("ACCP", "Refuted"), ("BFM", "Refuted"), ("ATM", "Proved")),
    "m0": (("ACCP", "Proved"), ("BFM", "Refuted"), ("SAM", "Proved")),
    "conductive-Z2-C1": (
        ("ATM", "Refuted"),
        ("QAM", "Refuted"),
        ("BFM", "Refuted"),
        ("NAM", "Refuted"),
        ("AAM", "Refuted"),
    ),
    "conductive-Z2-C2": (("BFM", "Proved"), ("FFM", "Refuted"), ("ACCP", "Proved")),
    "nearly-not-atomic": (("NAM", "Proved"), ("ATM", "Refuted"), ("AAM", "Proved")),
    "almost-not-nearly": (("AAM", "Proved"), ("NAM", "Refuted"), ("QAM", "Proved")),
    "quasi-not-almost": (("QAM", "Proved"), ("AAM", "Refuted"), ("NAM", "Refuted")),
    "hfm-NxZ": (("HFM", "Proved"), ("FFM", "Refuted"), ("BFM", "Proved"), ("ATM", "Proved")),
    "cone-Z2-secondpriority": (("ATM", "Refuted"), ("QAM", "Refuted")),
    "mq-times-N0": (("SAM", "Proved"), ("ACCP", "Refuted")),
    "conductive-Z-3": (("FFM", "Proved"), ("LFM", "Refuted"), ("BFM", "Proved")),
}


def gallery_list() -> tuple[GalleryEntry, ...]:
    """All entries, in a fixed deterministic order."""
    return (
        GalleryEntry(
            "antimatter-QxQ",
            LexCone(Q2, FIRST_POSITIVE),
            "a positive cone of the rational lex plane with no atoms at all",
            _EXPECTED["antimatter-QxQ"],
            _recipe_antimatter,
        ),
        GalleryEntry(
            "nonatomic-ZxZ",
            LexCone(Z2, FULL_CONE),
            "the full integer lex cone: one atom, yet not even quasi-atomic",
            _EXPECTED["nonatomic-ZxZ"],
            _recipe_nonatomic_cone,
        ),
        GalleryEntry(
            "malphabeta",
            AlphaBeta(Fraction(2, 3)),
            "atomic but not strongly atomic (two irrational directions)",
            _EXPECTED["malphabeta"],
            _recipe_alphabeta,
        ),
        GalleryEntry(
            "mq-2/3",
            GeometricPuiseux(Fraction(2, 3)),
            "strongly atomic but with a non-stabilizing chain of principal ideals",
            _EXPECTED["mq-2/3"],
            _recipe_mq,
        ),
        GalleryEntry(
            "m0",
            PrimeReciprocal(),
            "ascending chains stabilize, yet length sets are unbounded",
            _EXPECTED["m0"],
            _recipe_m0,
        ),
        GalleryEntry(
            "conductive-Z2-C1",
            Conductive(lexvec(Z2, 0, 1)),
            "conductive monoid conducted from the infinitesimal class: nothing holds",
            _EXPECTED["conductive-Z2-C1"],
            _recipe_conductive_c1,
        ),
        GalleryEntry(
            "conductive-Z2-C2",
            Conductive(lexvec(Z2, 1, 0)),
            "conductive monoid conducted from the dominant class: bounded but not finite factorizations",
            _EXPECTED["conductive-Z2-C2"],
            _recipe_conductive_c2,
        ),
        GalleryEntry(
            "nearly-not-atomic",
            NearlyAtomicAlpha(),
            "a single companion makes every element atomic, yet the monoid is not atomic",
            _EXPECTED["nearly-not-atomic"],
            _recipe_nearly,
        ),
        GalleryEntry(
            "almost-not-nearly",
            almost_not_nearly_instance(),
            "almost atomic, but no single companion works (prime-sum refutation)",
            _EXPECTED["almost-not-nearly"],
            _recipe_almost,
        ),
        GalleryEntry(
            "quasi-not-almost",
            quasi_not_almost_instance(),
            "quasi-atomic via the 4 n(q) companion, but the atom group misses 1/2",
            _EXPECTED["quasi-not-almost"],
            _recipe_quasi,
        ),
        GalleryEntry(
            "hfm-NxZ",
            LexCone(Z2, FIRST_POSITIVE),
            "half-factorial (length = leading coordinate) without finite factorization",
            _EXPECTED["hfm-NxZ"],
            _recipe_hfm_cone,
        ),
        GalleryEntry(
            "cone-Z2-secondpriority",
            LexCone(Z2_SECOND, FULL_CONE),
            "the lex cone with priority in the second coordinate: a group's cone need not be atomic",
            _EXPECTED["cone-Z2-secondpriority"],
            _recipe_second_priority_cone,
        ),
        GalleryEntry(
            "mq-times-N0",
            Product(GeometricPuiseux(Fraction(2, 3)), Conductive(lexvec(Z, 1))),
            "product with the free rank-one monoid inherits the chain failure",
            _EXPECTED["mq-times-N0"],
            _recipe_product,
        ),
        GalleryEntry(
            "conductive-Z-3",
            Conductive(lexvec(Z, 3)),
            "a numerical conductive monoid: finite factorizations, lengths collide",
            _EXPECTED["conductive-Z-3"],
            _recipe_conductive_z3,
        ),
    )


def by_id(entry_id: str) -> GalleryEntry:
    for e in gallery_list():
        if e.id == entry_id:
            return e
    raise KeyError(entry_id)


def run_entry(entry: GalleryEntry, depth: int = 12) -> RecipeResult:
    return entry.recipe(depth)
