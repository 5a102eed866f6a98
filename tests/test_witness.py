"""Witness lab: chain certificates, the hereditary-break synthesis, the
quasi/almost/nearly separating witnesses, and certificate replay."""

import json
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from oracles import (
    ALL_RATIOS,
    brute_force_membership,
    greedy_prime_prefix,
    prime_sum_by_fractions,
    verify_nearly_atomic_by_fractions,
    verify_not_strongly_atomic_by_fractions,
)
from posmon.descriptors import NotAMember, quasi_not_almost_instance
from posmon.monoids import _mq_rep, _prime_sum, contains
from posmon import witness
from posmon.phi import EnumerationCapExceeded
from posmon.elements import rational
from posmon.witness import (
    BreakStep,
    CertificateError,
    ChainCertificate,
    ExclusionTranscript,
    HereditaryBreakCertificate,
    PrimeCapExceeded,
    PrimeSumCertificate,
    mq_chain,
    prime_sum_refutation,
    synthesize_break,
    verify_almost_not_nearly,
    verify_certificate_json,
    verify_nearly_atomic,
    verify_not_strongly_atomic,
    verify_quasi_witness,
)


class TestChain:
    def test_two_thirds_depth_three(self):
        c = mq_chain(Fraction(2, 3), 3)
        assert c.elements == (Fraction(3), Fraction(2), Fraction(4, 3), Fraction(8, 9))
        assert c.differences == (Fraction(1), Fraction(2, 3), Fraction(4, 9))

    def test_three_fifths_depth_one(self):
        c = mq_chain(Fraction(3, 5), 1)
        assert c.elements == (Fraction(5), Fraction(3))
        assert c.differences == (Fraction(2),)

    def test_integer_inverse_ratio_rejected(self):
        with pytest.raises(ValueError):
            mq_chain(Fraction(1, 2), 3)

    def test_depth_twenty_replays(self):
        c = mq_chain(Fraction(2, 3), 20)
        c.verify()
        assert c.depth == 20

    def test_tampered_chain_detected(self):
        c = mq_chain(Fraction(2, 3), 4)
        broken = ChainCertificate(
            c.ratio, c.elements, c.differences[:-1] + (Fraction(1, 5),)
        )
        with pytest.raises(CertificateError):
            broken.verify()

    def test_difference_outside_the_denominator_support_rejected(self):
        # 1/6 has the prime 2 outside d(2/3) = 3
        a = Fraction(1, 6)
        c = ChainCertificate(Fraction(2, 3), (a, Fraction(0)), (a,))
        with pytest.raises(CertificateError, match="not a member"):
            c.verify()

    def test_non_member_difference_rejected(self):
        # 1/3 = c_0 + c_1 * 2/3 forces c_1 = 2, which leaves c_0 < 0
        a = Fraction(1, 3)
        assert not brute_force_membership([Fraction(2, 3) ** i for i in range(6)], a)
        c = ChainCertificate(Fraction(2, 3), (a, Fraction(0)), (a,))
        with pytest.raises(CertificateError, match="difference 1 is not a member"):
            c.verify()

    @pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(3, 4), Fraction(5, 8)], ids=str)
    def test_merged_steps_verify(self, q):
        # a_2 + a_3 is a member but not a single canonical power multiple
        c = mq_chain(q, 6)
        els, diffs = c.elements, c.differences
        merged = ChainCertificate(q, els[:2] + els[3:], diffs[:1] + (diffs[1] + diffs[2],) + diffs[3:])
        merged.verify()
        assert verify_certificate_json(json.loads(json.dumps(merged.to_json()))) == "ascending-chain"

    def test_deep_chain_is_fast(self):
        start = time.perf_counter()
        c = mq_chain(Fraction(2, 3), 400)
        assert c.depth == 400
        assert time.perf_counter() - start < 2.0

    def test_depth_three_thousand_builds_and_replays_fast(self):
        # the replay starts from a cold solver cache, as a fresh `verify` does
        start = time.perf_counter()
        c = mq_chain(Fraction(2, 3), 3000)
        _mq_rep.cache_clear()
        c.verify()
        assert time.perf_counter() - start < 3.0

    @pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(3, 4), Fraction(4, 9), Fraction(7, 10)], ids=str)
    def test_running_powers_give_the_chain(self, q):
        d, n = q.denominator, q.numerator
        c = mq_chain(q, 30)
        assert c.elements == tuple(d * q**k for k in range(31))
        assert c.differences == tuple((d - n) * q**k for k in range(30))

    def test_json_roundtrip(self):
        c = mq_chain(Fraction(4, 7), 6)
        blob = json.dumps(c.to_json(), sort_keys=True)
        again = ChainCertificate.from_json(json.loads(blob))
        assert again == c
        again.verify()


class TestBreakSynthesis:
    def test_empty(self):
        cert = synthesize_break(Fraction(2, 3), 0, depth=10)
        assert cert.steps == ()

    def test_first_step_minimal_choice(self):
        # derived: i = 2 is the first index past the head difference with
        # 3 not an integer multiple of 1 + 2/3
        cert = synthesize_break(Fraction(2, 3), 1, depth=20)
        step = cert.steps[0]
        assert step.combined == Fraction(5, 3)
        assert step.chain_indices == (1, 2)
        assert step.partial_sum == Fraction(5, 3)
        assert (Fraction(3) / step.combined).denominator != 1

    def test_five_steps_replay(self):
        cert = synthesize_break(Fraction(2, 3), 5, depth=60)
        assert len(cert.steps) == 5
        cert.verify()
        # partial sums divide recorded chain prefix sums exactly
        a = cert.chain.differences
        prefix = [Fraction(0)]
        for x in a:
            prefix.append(prefix[-1] + x)
        for step in cert.steps:
            leftover = prefix[step.divides_index] - step.partial_sum
            assert leftover == sum(
                (a[i - 1] for i in step.leftover_indices), Fraction(0)
            )
            assert leftover >= 0

    def test_exclusions_are_exhaustive(self):
        # every gcd-certified exclusion, re-checked by brute-force membership
        # over the step's prefix a'_1..a'_k
        for q in (Fraction(2, 3), Fraction(3, 4), Fraction(3, 5)):
            n, d = q.numerator, q.denominator
            cert = synthesize_break(q, 5, depth=10)
            obstructions = list(cert.obstructions())
            for k, step in enumerate(cert.steps, 1):
                prefix = [st.combined for st in cert.steps[:k]]
                assert step.exclusion.head == d
                assert not brute_force_membership(prefix, step.exclusion.head)
                den, g, target = obstructions[k - 1]
                assert den == lcm(*(x.denominator for x in prefix))
                assert g == gcd(*(x.numerator * (den // x.denominator) for x in prefix))
                assert g == d * d - n * n and target == d * den and target % g != 0
                assert step.chain_indices == (2 * k - 1, 2 * k)
                assert step.leftover_indices == ()

    def test_generated_head_rejected(self):
        # a'_1 = 1/2 + 1/2 generates the head 3; the chain is taken as given
        chain = ChainCertificate(
            Fraction(2, 3), (Fraction(3), Fraction(5, 2), Fraction(2)), (Fraction(1, 2), Fraction(1, 2))
        )
        step = BreakStep(Fraction(1), (1, 2), Fraction(1), 2, (), ExclusionTranscript(Fraction(3), 0))
        cert = HereditaryBreakCertificate(Fraction(2, 3), chain, (step,))
        with pytest.raises(CertificateError, match="exclusion not certified"):
            cert.verify_steps()

    def test_four_hundred_steps_stay_small_and_fast(self):
        # step k names its prefix instead of listing it: the document grows
        # as the partial sums do, not cubically in the steps
        start = time.monotonic()
        text = json.dumps(synthesize_break(Fraction(2, 3), 400).to_json())
        assert len(text) <= 2_000_000
        assert verify_certificate_json(json.loads(text)) == "hereditary-break"
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize("q", [Fraction(2, 3), Fraction(2, 5)], ids=str)
    def test_twelve_steps_build_and_replay_fast(self, q):
        start = time.monotonic()
        cert = synthesize_break(q, 12, depth=60)
        blob = json.loads(json.dumps(cert.to_json()))
        assert verify_certificate_json(blob) == "hereditary-break"
        assert len(cert.steps) == 12
        assert time.monotonic() - start < 2.0

    def test_default_depth_is_twice_the_steps(self):
        assert synthesize_break(Fraction(2, 3), 4).chain.depth == 8
        with pytest.raises(ValueError):
            synthesize_break(Fraction(2, 3), 4, depth=7)

    def test_other_ratio(self):
        cert = synthesize_break(Fraction(3, 5), 3, depth=60)
        cert.verify()
        assert len(cert.steps) == 3

    def test_json_roundtrip_and_tamper(self):
        cert = synthesize_break(Fraction(2, 3), 2, depth=30)
        blob = json.loads(json.dumps(cert.to_json()))
        HereditaryBreakCertificate.from_json(blob).verify()
        blob["steps"][1]["partial_sum"] = "9/2"
        with pytest.raises(CertificateError):
            HereditaryBreakCertificate.from_json(blob).verify()
        blob = json.loads(json.dumps(cert.to_json()))
        blob["steps"][1]["exclusion"]["head"] = "2"
        with pytest.raises(CertificateError, match="wrong target"):
            HereditaryBreakCertificate.from_json(blob).verify()

    def test_build_replays_the_chain_once(self, monkeypatch):
        calls = []
        replay = ChainCertificate.verify
        monkeypatch.setattr(ChainCertificate, "verify", lambda c: calls.append(c) or replay(c))
        cert = synthesize_break(Fraction(2, 3), 3)
        assert len(calls) == 1
        # a document read back still replays its chain: an element off the
        # chain identity, which no step reads, is caught
        blob = json.loads(json.dumps(cert.to_json()))
        blob["chain"]["elements"][3] = "1/7"
        with pytest.raises(CertificateError):
            verify_certificate_json(blob)
        assert len(calls) == 2


class TestQuasiWitness:
    @pytest.mark.parametrize(
        "q,companion,value,mult",
        [
            (Fraction(1, 2), Fraction(7, 2), Fraction(4), 3),
            (Fraction(5, 4), Fraction(75, 4), Fraction(20), 15),
            (Fraction(2), Fraction(6), Fraction(8), 6),
        ],
    )
    def test_examples(self, q, companion, value, mult):
        w = verify_quasi_witness(q)
        assert w.companion == companion
        assert w.atomic_value == value
        assert w.multiplicity == mult

    def test_identity_on_random_members(self):
        rng = random.Random(99)
        quasi = quasi_not_almost_instance()
        for _ in range(1000):
            u = Fraction(rng.randint(0, 64), 2 ** rng.randint(0, 5))
            v = rng.choice([Fraction(0), Fraction(rng.randint(36, 100), 27)])
            q = u + v
            if q == 0:
                continue
            assert contains(quasi, rational(q)).is_in
            w = verify_quasi_witness(q)
            d, n = q.denominator, q.numerator
            assert (4 * d - 1) * q + q == 4 * n
            assert w.multiplicity * w.atom == w.atomic_value

    def test_non_member_rejected(self):
        with pytest.raises(NotAMember):
            verify_quasi_witness(Fraction(1, 5))
        with pytest.raises(NotAMember):
            verify_quasi_witness(Fraction(0))


class TestPrimeSumRefutation:
    def test_small_candidate_matches_independent_oracle(self):
        q = Fraction(1, 7)
        cert = prime_sum_refutation(q)
        primes, total = greedy_prime_prefix({7}, q + 2)
        assert cert.count == len(primes)
        assert cert.last_prime == primes[-1]
        assert total > q + 2

    def test_certificate_replays(self):
        cert = prime_sum_refutation(Fraction(1, 5))
        cert.verify()
        assert 5 not in set(_greedy(cert))
        blob = json.loads(json.dumps(cert.to_json()))
        PrimeSumCertificate.from_json(blob).verify()

    def test_tampered_certificate_detected(self):
        cert = prime_sum_refutation(Fraction(1, 5))
        blob = json.loads(json.dumps(cert.to_json()))
        blob["count"] = blob["count"] - 1
        with pytest.raises(CertificateError):
            PrimeSumCertificate.from_json(blob).verify()

    def test_zero_candidate_rejected(self):
        with pytest.raises(ValueError):
            verify_almost_not_nearly(2, candidates=[Fraction(0)])

    def test_default_report_skips_expensive_candidates(self):
        rep = verify_almost_not_nearly(3)
        certified = {str(c.q) for c in rep.certificates}
        skipped = {c for c, _ in rep.skipped}
        assert "1/2" in skipped
        assert {"1/3", "1/5"} <= certified

    def test_non_member_candidate_rejected(self):
        with pytest.raises(NotAMember):
            prime_sum_refutation(Fraction(5, 4))

    def test_far_candidate_raises_at_once(self):
        # q = 5 needs a reciprocal sum above 7: the primes up to about
        # e^(e^6.7), which no sieve holds
        start = time.monotonic()
        with pytest.raises(PrimeCapExceeded):
            prime_sum_refutation(Fraction(5))
        assert time.monotonic() - start < 1

    def test_cap_stops_the_prime_scan(self, monkeypatch):
        # the estimate (1,940 for 1/7) overshoots the last prime (1,889)
        # here, so only a smaller estimate lets the scan reach the cap
        with pytest.raises(PrimeCapExceeded):
            prime_sum_refutation(Fraction(1, 7), prime_cap=1_888)
        monkeypatch.setattr(witness, "_crossover_estimate", lambda q: 0)
        with pytest.raises(PrimeCapExceeded, match="above the cap 1888"):
            prime_sum_refutation(Fraction(1, 7), prime_cap=1_888)
        assert prime_sum_refutation(Fraction(1, 7), prime_cap=1_889).last_prime == 1_889

    def test_report_skips_a_candidate_past_its_cap(self):
        rep = verify_almost_not_nearly(1, candidates=[Fraction(5), Fraction(1, 7)], prime_cap=2_000)
        assert [c.q for c in rep.certificates] == [Fraction(1, 7)]
        assert [c for c, _ in rep.skipped] == ["5"]


def _greedy(cert):
    from posmon.witness import _greedy_primes

    return _greedy_primes(cert.excluded, cert.count, cert.last_prime)


class TestNearlyAtomic:
    def test_report(self):
        rep = verify_nearly_atomic(8)
        assert len(rep.decompositions) == 8
        assert rep.decompositions[0]["phi"] == 2  # phi(0) is the first prime
        assert len(rep.rational_obstructions) == 7

    def test_alpha_decomposition_head(self):
        rep = verify_nearly_atomic(2)
        assert rep.decompositions[0]["q0"] == "0"


class TestNotStronglyAtomic:
    def test_replays(self):
        out = verify_not_strongly_atomic(Fraction(2, 3), depth=10)
        assert len(out) >= 4
        for r in out:
            assert (r.divisor + Fraction(2, 3) ** r.exponent) == r.shifted
            assert r.shifted.numerator**2 < 2 * r.shifted.denominator**2

    def test_a_shifted_value_past_the_phi_cap_raises_the_typed_error(self):
        """At depth 40 a divisor's shifted value d + q^k is not among the
        first 8,192 discovered elements; the search took 2.7 s through the
        Fraction enumeration and takes about 0.05 s in ints."""
        start = time.perf_counter()
        with pytest.raises(EnumerationCapExceeded) as info:
            verify_not_strongly_atomic(Fraction(3, 4), 40)
        assert isinstance(info.value, RuntimeError)
        assert info.value.cap == 8192
        assert str(info.value.value) in str(info.value) and "8192" in str(info.value)
        assert time.perf_counter() - start < 2.0

    def test_no_exponent_within_the_depth_names_the_divisor(self):
        with pytest.raises(EnumerationCapExceeded) as info:
            verify_not_strongly_atomic(Fraction(2, 3), 4)
        assert (info.value.value, info.value.cap) == (Fraction(4, 3), 4)
        assert "4/3" in str(info.value) and "depth 4" in str(info.value)


def _answer(call):
    """What call() returns, or the exception it raises."""
    try:
        return call()
    except Exception as exc:  # the answer under test includes the failure
        return exc


def _documents(answer) -> str:
    if isinstance(answer, Exception):
        return f"{type(answer).__name__}: {answer}"
    rows = answer if isinstance(answer, tuple) else (answer,)
    return json.dumps([r.to_json() for r in rows], sort_keys=True)


class TestReportsMatchTheFractionReferences:
    """The int replays of both sqrt2/sqrt3 reports give the reports of the
    Fraction references, JSON bytes and exceptions included, and an atom
    that does not fit its identity still makes them fail."""

    @pytest.mark.parametrize("q", ALL_RATIOS, ids=str)
    def test_not_strongly_atomic(self, q):
        for depth in range(1, 13):
            want = _answer(lambda: verify_not_strongly_atomic_by_fractions(q, depth))
            got = _answer(lambda: verify_not_strongly_atomic(q, depth))
            assert type(got) is type(want), depth
            assert _documents(got) == _documents(want), depth
            if not isinstance(want, Exception):
                assert got == want

    def test_nearly_atomic(self):
        for depth in range(1, 61):
            want, got = verify_nearly_atomic_by_fractions(depth), verify_nearly_atomic(depth)
            assert got == want
            assert _documents(got) == _documents(want), depth

    @pytest.mark.parametrize("wrong", [
        lambda num, den, p: (num + 1, den, den * p),  # the atom's rational part is off
        lambda num, den, p: (num, den, den * (p + 2)),  # the atom carries another prime than phi
    ], ids=["atom", "phi"])
    def test_a_wrong_atom_fails_both_replays(self, monkeypatch, wrong):
        monkeypatch.setattr(witness, "_atom_ints", wrong)
        with pytest.raises(CertificateError, match="common-divisor identity fails"):
            verify_not_strongly_atomic(Fraction(2, 3), 10)
        with pytest.raises(CertificateError, match="decomposition fails"):
            verify_nearly_atomic(8)


class TestPrimeSum:
    """``monoids._prime_sum`` in ints equals the Fraction reference, key
    order included."""

    DENOMINATORS = (1, 2, 3, 6, 30, 210, 77, 2 * 3 * 5 * 7 * 11 * 13, 4, 12, 9, 50, 8 * 3, 49 * 5)

    @pytest.mark.parametrize("den", DENOMINATORS)
    def test_matches_the_reference(self, den):
        nums = range(-3 * den, 4 * den + 1)
        if den > 250:
            nums = random.Random(den).sample(nums, 1000)
        for num in nums:
            x = Fraction(num, den)
            for spare in (2, 3, 5):
                got, want = _prime_sum(x, spare), prime_sum_by_fractions(x, spare)
                assert got == want and (got is None or list(got) == list(want)), (x, spare)


class TestVerifyDispatch:
    def test_kinds(self):
        chain = mq_chain(Fraction(2, 3), 5)
        assert verify_certificate_json(chain.to_json()) == "ascending-chain"
        br = synthesize_break(Fraction(2, 3), 2, depth=30)
        assert verify_certificate_json(br.to_json()) == "hereditary-break"
        w = verify_quasi_witness(Fraction(1, 2))
        assert verify_certificate_json(w.to_json()) == "quasi-witness"
        ps = prime_sum_refutation(Fraction(1, 5))
        assert verify_certificate_json(ps.to_json()) == "prime-sum-refutation"

    def test_unknown_kind(self):
        with pytest.raises(CertificateError):
            verify_certificate_json({"kind": "nonsense"})
