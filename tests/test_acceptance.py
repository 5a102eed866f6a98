"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Tolerances are exact (integer/rational
arithmetic throughout); runtime budgets are asserted where stated.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines.
"""

import json
import random
import time
from fractions import Fraction

from oracles import brute_force_membership, minimal_numerical_monoids
from posmon.classify import check_chain_consistency, classify_conductive
from posmon.elements import (
    GroupElement,
    Z,
    Z2,
    arch_valuation,
    lexvec,
    rational,
    triple,
)
from posmon.factor import atoms, factorizations, length_set, probe_property
from posmon.gallery import gallery_list, run_entry
from posmon.descriptors import (
    Conductive,
    FIRST_POSITIVE,
    LexCone,
    PrimeReciprocal,
    numerical,
    quasi_not_almost_instance,
)
from posmon.monoids import contains, gp_membership
from posmon.primes import first_primes
from posmon.witness import mq_chain, synthesize_break, verify_quasi_witness

PROBE_PROPS = ("ATM", "BFM", "FFM", "HFM", "LFM", "UFM")


def _report(criterion: str, detail: str, elapsed: float) -> None:
    print(f"PASS {criterion}: {detail} ({elapsed:.2f}s)")


def test_criterion_1_conductive_classification_table():
    start = time.monotonic()
    expectations = {
        1: {"UFM": "Proved", "HFM": "Proved", "LFM": "Proved", "FFM": "Proved"},
        2: {"UFM": "Refuted", "HFM": "Refuted", "LFM": "Proved", "FFM": "Proved"},
    }
    for a in range(3, 7):
        expectations[a] = {
            "UFM": "Refuted",
            "HFM": "Refuted",
            "LFM": "Refuted",
            "FFM": "Proved",
        }
    for a, table in expectations.items():
        report = classify_conductive(lexvec(Z, a))
        for prop, status in table.items():
            assert report.status(prop) == status, (a, prop)
        assert report.status("BFM") == "Proved", a
        assert report.status("ACCP") == "Proved", a
        # probes at bound 30a agree on every probe-decidable property
        for prop in PROBE_PROPS:
            probe = probe_property(Conductive(lexvec(Z, a)), prop, 30 * a)
            if report.status(prop) == "Proved":
                assert probe.consistent, (a, prop)
            else:
                assert probe.refuted, (a, prop)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(
        "criterion 1",
        "conductive table for a=1..6 exact; 36 probes at bound 30a agree",
        elapsed,
    )


def test_criterion_2_conductive_atom_interval():
    start = time.monotonic()
    for a in range(1, 9):
        window = atoms(Conductive(lexvec(Z, a)))
        assert window.complete
        assert [x.value for x in window.atoms] == [(k,) for k in range(a, 2 * a)]
    box = [
        GroupElement(Z2, (x, y))
        for x in range(-3, 4)
        for y in range(-10, 11)
    ]
    conductors = [a for a in box if a.is_positive]
    assert len(conductors) == 73
    for a in conductors:
        m = Conductive(a)
        window = atoms(m, depth=10)
        two_a = a + a
        got = sorted(
            v.value
            for v in window.atoms
            if abs(v.value[0]) <= 3 and abs(v.value[1]) <= 10
        )
        expected = sorted(v.value for v in box if a <= v < two_a)
        assert got == expected, a
    elapsed = time.monotonic() - start
    _report(
        "criterion 2",
        "A(M_a) = [a,2a) per element: Z for a<=8, Z^2 over the (3,10) box",
        elapsed,
    )


def test_criterion_3_chain_certificate_depth_twenty():
    start = time.monotonic()
    q = Fraction(2, 3)
    cert = mq_chain(q, 20)
    cert.verify()
    assert cert.elements[0] == 3
    d, n = q.denominator, q.numerator
    for k in range(20):
        assert cert.differences[k] == (d - n) * q**k
        assert cert.differences[k] > 0
    blob = json.loads(json.dumps(cert.to_json()))
    from posmon.witness import ChainCertificate

    ChainCertificate.from_json(blob).verify()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 3", "chain for ratio 2/3 to depth 20 replays exactly", elapsed)


def test_criterion_4_prime_reciprocal_atoms_and_lengths():
    start = time.monotonic()
    m = PrimeReciprocal()
    window = atoms(m, depth=25)
    primes_to_97 = first_primes(25)
    assert primes_to_97[-1] == 97
    assert [x.value for x in window.atoms] == sorted(
        Fraction(1, p) for p in primes_to_97
    )
    ls = length_set(m, rational(1), depth=15)
    primes_to_47 = first_primes(15)
    assert primes_to_47[-1] == 47
    assert list(ls.lengths) == list(primes_to_47)
    assert not ls.complete
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        "criterion 4",
        "atoms 1/p for p<=97 re-verified; L(1) over the window <=47 is exactly the primes",
        elapsed,
    )


def test_criterion_5_hereditary_break_five_steps():
    start = time.monotonic()
    cert = synthesize_break(Fraction(2, 3), 5, depth=60)
    assert len(cert.steps) == 5
    cert.verify()  # gcd exclusion proofs and divisibility replays
    a = cert.chain.differences
    prefix = [Fraction(0)]
    for x in a:
        prefix.append(prefix[-1] + x)
    for k, step in enumerate(cert.steps, 1):
        assert step.exclusion.head == Fraction(3)
        generators = [st.combined for st in cert.steps[:k]]
        assert not brute_force_membership(generators, Fraction(3))
        leftover = prefix[step.divides_index] - step.partial_sum
        assert leftover == sum((a[i - 1] for i in step.leftover_indices), Fraction(0))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        "criterion 5",
        "five construction steps; each exclusion certified by gcd, cross-checked by brute force",
        elapsed,
    )


def test_criterion_6_quasi_witnesses():
    start = time.monotonic()
    quasi = quasi_not_almost_instance()
    rng = random.Random(2024)
    count = 0
    while count < 100:
        u = Fraction(rng.randint(0, 96), 2 ** rng.randint(0, 5))
        v = rng.choice([Fraction(0), Fraction(rng.randint(36, 162), 3 ** rng.randint(1, 4))])
        q = u + v
        if q == 0 or v != 0 and v < Fraction(4, 3):
            continue
        count += 1
        assert contains(quasi, rational(q)).is_in
        w = verify_quasi_witness(q)
        d, n = q.denominator, q.numerator
        assert w.companion == (4 * d - 1) * q
        assert w.companion + q == 4 * n == w.atomic_value
        assert w.multiplicity == 3 * n and w.atom == Fraction(4, 3)
        assert w.multiplicity * w.atom == w.atomic_value
    assert not gp_membership(quasi, rational(Fraction(1, 2)))
    assert contains(quasi, rational(Fraction(1, 2))).is_in
    elapsed = time.monotonic() - start
    _report(
        "criterion 6",
        "100 random members: (4d-1)q + q = 4n factors as 3n*[4/3]; 1/2 outside Z[1/3]",
        elapsed,
    )


def test_criterion_7_half_factorial_cone():
    start = time.monotonic()
    m = LexCone(Z2, FIRST_POSITIVE)
    for mm in range(1, 5):
        for nn in range(-20, 21):
            b = lexvec(Z2, mm, nn)
            ls = length_set(m, b, depth=25, max_count=100_000)
            assert ls.lengths == (mm,), (mm, nn)
    two_zero = factorizations(m, lexvec(Z2, 2, 0), depth=25)
    assert len(two_zero.factorizations) >= 10
    for f in two_zero.factorizations:
        assert f.length == 2
    elapsed = time.monotonic() - start
    _report(
        "criterion 7",
        "every factorization over the box has length = leading coordinate; "
        f"{len(two_zero.factorizations)} factorizations of (2,0)",
        elapsed,
    )


def test_criterion_8_valuation_fuzz():
    start = time.monotonic()
    rng = random.Random(123457)

    def random_element(kind: str) -> GroupElement:
        if kind == "Q":
            return rational(Fraction(rng.randint(-400, 400), rng.randint(1, 60)))
        if kind == "lex":
            return lexvec(Z2, rng.randint(-50, 50), rng.randint(-50, 50))
        return triple(
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
        )

    violations = 0
    for kind in ("Q", "lex", "sqrt23"):
        done = 0
        while done < 10_000:
            g = random_element(kind)
            h = random_element(kind)
            s = g + h
            if g.is_zero or h.is_zero or s.is_zero:
                continue
            done += 1
            vg, vh, vs = arch_valuation(g), arch_valuation(h), arch_valuation(s)
            low = vg if vg < vh else vh
            if not low <= vs:
                violations += 1
            if (vg != vh or (g.is_positive and h.is_positive)) and vs != low:
                violations += 1
    assert violations == 0
    elapsed = time.monotonic() - start
    _report(
        "criterion 8",
        "30000 random pairs satisfy valuation superadditivity and the equality rule",
        elapsed,
    )


def test_criterion_9_oracle_equivalence():
    start = time.monotonic()
    monoids = minimal_numerical_monoids(max_gens=4, max_gen=20)
    checked_monoids = 0
    checked_values = 0
    for gens in monoids:
        m = numerical(*gens)
        checked_monoids += 1
        buckets: dict[int, set] = {}
        for vec, value in _oracle_sweep(gens, 100):
            buckets.setdefault(value, set()).add(vec)
        for b, expected in buckets.items():
            if b == 0:
                continue
            checked_values += 1
            search = factorizations(m, rational(b), max_count=200_000)
            assert search.complete and not search.truncated, (gens, b)
            got = set()
            for f in search.factorizations:
                mult = {a.value: c for a, c in f.pairs}
                got.add(tuple(mult.get(g, 0) for g in gens))
            assert got == expected, (gens, b)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        "criterion 9",
        f"{checked_monoids} numerical monoids, {checked_values} members: "
        "enumeration equals the nested-loop oracle",
        elapsed,
    )


def _oracle_sweep(gens, bound):
    """Nested-loop enumeration of all coefficient vectors with value <= bound."""
    out = []

    def rec(i, acc, vec):
        if i == len(gens):
            out.append((vec, acc))
            return
        c = 0
        while acc + c * gens[i] <= bound:
            rec(i + 1, acc + c * gens[i], vec + (c,))
            c += 1

    rec(0, 0, ())
    return out


def test_criterion_10_gallery_consistency_and_exit_code(capsys):
    start = time.monotonic()
    reports = 0
    for entry in gallery_list():
        result = run_entry(entry, 12)
        failures = [(n, d) for n, ok, d in result.checks if not ok]
        assert result.ok, (entry.id, failures)
        if result.report is not None:
            reports += 1
            assert check_chain_consistency(result.report), entry.id
    from posmon.cli import main

    code = main(["gallery", "--run-all"])
    capsys.readouterr()
    assert code == 0
    elapsed = time.monotonic() - start
    _report(
        "criterion 10",
        f"{reports} gallery reports chain-consistent; gallery --run-all exits 0",
        elapsed,
    )
