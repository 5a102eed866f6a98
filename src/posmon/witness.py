"""Construction and machine-checking of explicit witnesses: non-stabilizing
chains of principal ideals, the hereditary-break synthesis (a sequence of
pairwise-combined differences whose generated submonoid provably excludes
the chain head), and the witnesses separating the quasi/almost/nearly
atomic classes.

Every certificate replays: its ``verify`` routine re-checks all recorded
identities in exact arithmetic, and a hereditary break proves the
exclusion at every step by one gcd carried across the steps.  A
certificate document is its ``KIND`` and its fields (``jsonforms.JsonForm``),
so adding or renaming a field changes the format, and a key that names no
field is ignored; the CLI ``verify`` subcommand re-checks any certificate
file.

Construction is deterministic: wherever an existential step permits a
choice, the minimal admissible index is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, takewhile
from math import exp, gcd, lcm
from typing import Iterable, Iterator, Optional

from .descriptors import (
    GeometricPuiseux,
    NotAMember,
    almost_not_nearly_instance,
    quasi_not_almost_instance,
)
from .elements import rational
from .jsonforms import JsonForm
from .monoids import DEFAULT_DEPTH, _mq_rep, contains
from .phi import EnumerationCapExceeded, _atom_ints, alphabeta_domain, alphabeta_phi
from .primes import calkin_wilf, first_primes, iter_primes, prime_support


class CertificateError(AssertionError):
    """A certificate failed to replay."""


class PrimeCapExceeded(ValueError):
    """A greedy prime set would need primes beyond the cap."""


# ---------------------------------------------------------------------------
# ascending chains


@dataclass(frozen=True)
class ChainCertificate(JsonForm):
    """Witness that (q_n + M) ascends strictly to depth N:
    q_n = q_{n+1} + a_{n+1} with every a_{n+1} a nonzero member."""

    KIND = "ascending-chain"
    ratio: Fraction
    elements: tuple[Fraction, ...]  # q_0 ... q_N
    differences: tuple[Fraction, ...]  # a_1 ... a_N

    @property
    def depth(self) -> int:
        return len(self.differences)

    def verify(self) -> None:
        """Replays every chain identity q_i == q_(i+1) + a by integer
        cross-multiplication, and decides each difference a by its
        canonical representation (``monoids._mq_rep``), re-summed in ints:
        with j its top index, sum c_i n^i d^(j-i) == d^j a.  The
        representation is taken at the least K with den(a) | d^K, found by
        a binary search below ``den(a).bit_length()`` (K is at most log2 of
        the denominator when such a K exists), so a chain difference
        (d - n) q^k costs O(log k) modular powers and one digit level."""
        q = self.ratio
        GeometricPuiseux(q)  # validates the ratio
        if len(self.elements) != len(self.differences) + 1:
            raise CertificateError("chain length mismatch")
        n, d = q.numerator, q.denominator
        for i, a in enumerate(self.differences):
            e, f = self.elements[i], self.elements[i + 1]
            an, ad = a.numerator, a.denominator
            # e == f + a, over the common denominator e.den * f.den * a.den
            if e.numerator * f.denominator * ad != (f.numerator * ad + an * f.denominator) * e.denominator:
                raise CertificateError(f"chain identity fails at step {i}")
            if an <= 0:
                raise CertificateError(f"difference {i + 1} is not positive")
            rep = _mq_rep(n, d, an, ad)
            if rep is None:
                raise CertificateError(f"difference {i + 1} is not a member")
            top = rep[-1][0]
            total = sum(c * n**j * d ** (top - j) for j, c in rep)
            if total * ad != an * d**top:
                raise CertificateError(f"membership certificate {i + 1} broken")


def mq_chain(q: Fraction, depth: int) -> ChainCertificate:
    """The canonical non-stabilizing chain of M_q:
    q_k = d(q) q^k and a_(k+1) = (d(q) - n(q)) q^k, built from the running
    powers n^k and d^k."""
    q = Fraction(q)
    GeometricPuiseux(q)  # validates 0 < q < 1 and n(q) >= 2
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n, d = q.numerator, q.denominator
    elements, differences = [Fraction(d)], []
    nk, dk = 1, 1
    for _ in range(depth):
        differences.append(Fraction((d - n) * nk, dk))
        nk *= n
        dk *= d
        elements.append(Fraction(d * nk, dk))
    cert = ChainCertificate(q, tuple(elements), tuple(differences))
    cert.verify()
    return cert


# ---------------------------------------------------------------------------
# hereditary break synthesis


@dataclass(frozen=True)
class ExclusionTranscript(JsonForm):
    """The head, excluded from <a'_1..a'_k>, step k's prefix; the
    certificate's ``obstructions`` proves it.  ``combinations_checked``
    stays for the document format (builds write 0, older documents the
    size of a retired exhaustive search); replay ignores it, and the
    prefix and bounds that older documents list per step."""

    head: Fraction
    combinations_checked: int


@dataclass(frozen=True)
class BreakStep(JsonForm):
    combined: Fraction  # a'_k
    chain_indices: tuple[int, int]  # the two chain differences summed (1-based)
    partial_sum: Fraction  # s'_k
    divides_index: int  # m(k): s'_k divides s_{m(k)}
    leftover_indices: tuple[int, ...]  # witness: s_{m(k)} - s'_k = sum a_idx
    exclusion: ExclusionTranscript


@dataclass(frozen=True)
class HereditaryBreakCertificate(JsonForm):
    """Transcript of the constructive half of the chain-vs-hereditary
    atomicity equivalence: combined differences a'_k with (1) the head
    excluded from <a'_1..a'_k> by a subgroup gcd (``obstructions``), (2)
    every a'_k in the head's Archimedean class, (3) s'_k dividing a chain
    partial sum.  Step k names its prefix: its generators are the combined
    elements of steps 1..k, so no step repeats them."""

    KIND = "hereditary-break"
    ratio: Fraction
    chain: ChainCertificate
    steps: tuple[BreakStep, ...]

    def verify(self) -> None:
        self.chain.verify()
        self.verify_steps()

    def obstructions(self) -> Iterator[tuple[int, int, int]]:
        """(D, g, D * head) for each step k, in one pass: D is the lcm of
        the denominators of the head and a'_1..a'_k, and g = gcd(D a'_1,
        ..., D a'_k).  Every element of the group generated by the prefix,
        and so of the monoid, is D^-1 g times an integer; hence g not
        dividing D * head excludes the head.  Both carry from one step to
        the next: when D grows by a factor f, g grows by f too."""
        head = self.chain.elements[0]
        den, g = head.denominator, 0
        for step in self.steps:
            x = step.combined
            grow = lcm(den, x.denominator) // den
            den *= grow
            g = gcd(g * grow, x.numerator * (den // x.denominator))
            yield den, g, head.numerator * (den // head.denominator)

    def verify_steps(self) -> None:
        """Check every step against the chain, taking the chain as verified."""
        q0 = self.chain.elements[0]
        a = self.chain.differences  # a_1 ... (index shift: a[i-1] = a_i)
        s = [Fraction(0)]  # the chain prefix sums s_0 ..., as far as a step reads
        partial = Fraction(0)
        for k, (step, (den, g, target)) in enumerate(zip(self.steps, self.obstructions()), start=1):
            i1, i2 = step.chain_indices
            if not (1 <= i1 < i2 <= len(a)):
                raise CertificateError(f"step {k}: bad chain indices")
            if step.combined != a[i1 - 1] + a[i2 - 1]:
                raise CertificateError(f"step {k}: combined element mismatch")
            if step.combined <= 0:
                raise CertificateError(f"step {k}: combined element not positive")
            partial += step.combined
            if step.partial_sum != partial:
                raise CertificateError(f"step {k}: partial sum mismatch")
            mk = step.divides_index
            if not 0 <= mk <= len(a):
                raise CertificateError(f"step {k}: divides index {mk} outside 0..{len(a)}")
            if not all(1 <= i <= len(a) for i in step.leftover_indices):
                raise CertificateError(f"step {k}: a leftover index is outside 1..{len(a)}")
            while len(s) <= mk:
                s.append(s[-1] + a[len(s) - 1])
            leftover = s[mk] - step.partial_sum
            if leftover != sum((a[i - 1] for i in step.leftover_indices), Fraction(0)):
                raise CertificateError(f"step {k}: divisibility witness mismatch")
            if leftover < 0:
                raise CertificateError(f"step {k}: negative divisibility leftover")
            if step.exclusion.head != q0:
                raise CertificateError(f"step {k}: exclusion transcript wrong target")
            if target % g == 0:  # g > 0, as every a'_i is positive
                raise CertificateError(
                    f"step {k}: exclusion not certified: gcd {g} of {den} * a'_1..a'_{k}"
                    f" divides {den} * {q0}"
                )


def synthesize_break(
    q: Fraction, steps: int, depth: Optional[int] = None
) -> HereditaryBreakCertificate:
    """Run the constructive synthesis for the chain of M_q.

    Step 1 combines the first difference with the earliest later one whose
    sum fails to generate the head; step k+1 combines the difference just
    past the current divisibility index with the earliest admissible later
    one.  For q = n/d the earliest one is always admissible: the head is
    q0 = d, the differences are a_i = (d - n) q^(i-1), and

        a_(2k-1) + a_(2k) = (d - n)(d + n) n^(2k-2) / d^(2k-1)

    lies in the subgroup (d^2 - n^2) Z[1/d], which misses d because
    d^2 - n^2 > 1 is coprime to d.  So step k combines chain indices
    (2k-1, 2k), its partial sum is the chain prefix sum s_(2k) with no
    leftover, and each exclusion is certified by that subgroup's gcd.

    ``depth`` is the chain depth; it defaults to 2 * steps, the least that
    holds every combined index.
    """
    q = Fraction(q)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if depth is None:
        depth = 2 * steps
    if depth < 2 * steps:
        raise ValueError(
            f"chain depth {depth} cannot hold {steps} steps; it needs {2 * steps}"
        )
    chain = mq_chain(q, depth)
    a, q0 = chain.differences, chain.elements[0]
    built: list[BreakStep] = []
    partial = Fraction(0)
    for k in range(1, steps + 1):
        combined = a[2 * k - 2] + a[2 * k - 1]
        partial += combined
        built.append(
            BreakStep(
                combined=combined,
                chain_indices=(2 * k - 1, 2 * k),
                partial_sum=partial,
                divides_index=2 * k,
                leftover_indices=(),
                exclusion=ExclusionTranscript(q0, 0),
            )
        )
    cert = HereditaryBreakCertificate(q, chain, tuple(built))
    cert.verify_steps()  # mq_chain verified the chain
    return cert


# ---------------------------------------------------------------------------
# quasi-atomic witnesses


@dataclass(frozen=True)
class SubatomicWitness(JsonForm):
    """A per-element witness for one of the weakened atomicity notions."""

    KIND = "quasi-witness"
    element: Fraction
    companion: Fraction
    atomic_value: Fraction
    atom: Fraction
    multiplicity: int

    def verify(self) -> None:
        m = quasi_not_almost_instance()
        q = self.element
        if q <= 0 or not contains(m, rational(q)).is_in:
            raise CertificateError("witness element is not a nonzero member")
        d, n = q.denominator, q.numerator
        if self.companion != (4 * d - 1) * q:
            raise CertificateError("companion is not (4 d(q) - 1) q")
        if self.atomic_value != self.companion + q or self.atomic_value != 4 * n:
            raise CertificateError("companion sum is not 4 n(q)")
        if self.atom != Fraction(4, 3) or self.multiplicity != 3 * n:
            raise CertificateError("factorization is not 3 n(q) copies of 4/3")
        if self.multiplicity * self.atom != self.atomic_value:
            raise CertificateError("factorization does not replay")


def verify_quasi_witness(q: Fraction) -> SubatomicWitness:
    """For a nonzero member q of the dyadic/triadic union, the companion
    b = (4 d(q) - 1) q makes b + q = 4 n(q), which factors into 3 n(q)
    copies of the atom 4/3."""
    q = Fraction(q)
    m = quasi_not_almost_instance()
    if q <= 0:
        raise NotAMember("the witness element must be a nonzero member")
    if not contains(m, rational(q)).is_in:
        raise NotAMember(f"{q} is not a member of the dyadic/triadic union")
    d, n = q.denominator, q.numerator
    w = SubatomicWitness(
        element=q,
        companion=(4 * d - 1) * q,
        atomic_value=Fraction(4 * n),
        atom=Fraction(4, 3),
        multiplicity=3 * n,
    )
    w.verify()
    return w


# ---------------------------------------------------------------------------
# almost-but-not-nearly: exact prime-sum refutations


@dataclass(frozen=True)
class PrimeSumCertificate(JsonForm):
    """For candidate q, a finite prime set S disjoint from the support of
    d(q) with sum of reciprocals exceeding q + 2 exactly, plus the element
    r = 1 + prod 1/p.  Any atomic decomposition of q + r would contain S
    and thus exceed q + 2, while q + r < q + 2."""

    KIND = "prime-sum-refutation"
    q: Fraction
    excluded: tuple[int, ...]
    count: int
    last_prime: int
    sum_num_digest: str
    sum_den_digest: str

    def verify(self) -> None:
        if self.q <= 0:
            raise CertificateError("candidate must be a positive member")
        m = almost_not_nearly_instance()
        if not contains(m, rational(self.q)).is_in:
            raise CertificateError("candidate is not a member")
        if tuple(prime_support(self.q.denominator)) != self.excluded:
            raise CertificateError("excluded set is not the denominator support")
        if self.count < 1:
            raise CertificateError(f"prime count {self.count} is not positive")
        primes = _greedy_primes(self.excluded, self.count, self.last_prime)
        if len(primes) != self.count or primes[-1] != self.last_prime:
            raise CertificateError("prime set does not replay")
        num, den = _sum_reciprocals(primes)
        threshold = self.q + 2
        if not num * threshold.denominator > threshold.numerator * den:
            raise CertificateError("sum does not exceed q + 2")
        if self.count > 1:
            # dropping the last term must fall back below the threshold
            num2 = num - den // primes[-1]
            if num2 * threshold.denominator > threshold.numerator * den:
                raise CertificateError("prime set is not the minimal greedy prefix")
        if _digest(num) != self.sum_num_digest or _digest(den) != self.sum_den_digest:
            raise CertificateError("exact sum digest mismatch")
        # r = 1 + 1/prod(S) is a member below 2 structurally: the primes in
        # S are distinct, so the denominator is squarefree and r >= 1 lies
        # in the group tail (running the generic membership test would
        # trial-factor a denominator with millions of digits)
        if len(set(primes)) != len(primes):
            raise CertificateError("replayed prime set has repetitions")
        if den <= 1:
            raise CertificateError("companion element r is not below 2")


def _digest(n: int) -> str:
    """Hex form for small integers, a hash beyond that (hex conversion is
    linear-time and exempt from the interpreter's str-digit limit)."""
    h = hex(n)
    if len(h) <= 66:
        return h
    # imported here: hashlib loads OpenSSL, a few MB of resident memory
    # that a process which never digests a long sum should not carry
    import hashlib

    return "sha256:" + hashlib.sha256(h.encode()).hexdigest()


def _sum_reciprocals(primes: list[int]) -> tuple[int, int]:
    """Exact numerator/denominator of sum(1/p), by balanced tree summation.

    The result is already in lowest terms: the denominator is the product
    of the distinct primes and the numerator is a unit modulo each.
    """
    def rec(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            return (1, primes[lo])
        mid = (lo + hi) // 2
        n1, d1 = rec(lo, mid)
        n2, d2 = rec(mid, hi)
        return (n1 * d2 + n2 * d1, d1 * d2)

    return rec(0, len(primes))


def _greedy_primes(excluded: Iterable[int], count: int, last: int) -> list[int]:
    """The first count primes outside excluded, or fewer when the primes
    pass last first."""
    skip = set(excluded)
    return list(islice(takewhile(lambda p: p <= last, (p for p in iter_primes() if p not in skip)), count))


def prime_sum_refutation(q: Fraction, prime_cap: int = 10_000_000) -> PrimeSumCertificate:
    """Construct the greedy refuting prime set for candidate q: the minimal
    prefix of the primes outside the support of d(q) whose reciprocal sum
    exceeds q + 2, verified by exact rational arithmetic.

    A float scan locates the crossover; the boundary is then confirmed
    exactly with balanced tree sums.  The construction for small q needs
    millions of primes (q = 1/2 ends at 5,195,977), so it raises
    PrimeCapExceeded when the crossover estimate exceeds the cap, or the
    float scan reaches a prime past it.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("candidates must be nonzero members")
    m = almost_not_nearly_instance()
    if not contains(m, rational(q)).is_in:
        raise NotAMember(f"{q} is not a member")
    est = _crossover_estimate(q)
    if est > prime_cap:
        raise PrimeCapExceeded(f"estimated crossover near prime {est:d} exceeds the cap")
    excluded = prime_support(q.denominator)
    threshold = q + 2
    tfloat = float(threshold)
    primes: list[int] = []
    approx = 0.0
    stream = (p for p in iter_primes() if p not in excluded)
    for p in stream:
        if p > prime_cap:
            raise PrimeCapExceeded(f"the reciprocal sum needs primes above the cap {prime_cap}")
        primes.append(p)
        approx += 1.0 / p
        if approx > tfloat + 1e-7:
            break
    # exact confirmation at the float crossover, stepping as needed
    num, den = _sum_reciprocals(primes)
    while not num * threshold.denominator > threshold.numerator * den:
        nxt = next(stream)
        primes.append(nxt)
        num = num * nxt + den
        den = den * nxt
    while len(primes) > 1:
        num2 = num - den // primes[-1]
        if num2 * threshold.denominator > threshold.numerator * den:
            dropped = primes.pop()
            num, den = num2 // dropped, den // dropped
        else:
            break
    cert = PrimeSumCertificate(
        q=q,
        excluded=excluded,
        count=len(primes),
        last_prime=primes[-1],
        sum_num_digest=_digest(num),
        sum_den_digest=_digest(den),
    )
    cert.verify()
    return cert


@dataclass(frozen=True)
class NearRefutationReport(JsonForm):
    KIND = "near-atomicity-refutation-report"
    certificates: tuple[PrimeSumCertificate, ...]
    skipped: tuple[tuple[str, str], ...]  # (candidate, reason)


def verify_almost_not_nearly(
    prime_window: int,
    candidates: Optional[Iterable[Fraction]] = None,
    prime_cap: int = 200_000,
) -> NearRefutationReport:
    """Refute near-atomicity for candidate companions q whose denominator
    support lies in the first ``prime_window`` primes.

    Candidates whose greedy prime set would exceed ``prime_cap`` (the
    crossover grows like exp(exp(q + 2 - sum of excluded reciprocals)))
    are reported as skipped rather than silently truncated; pass a larger
    cap to certify them; the cap also bounds ``prime_sum_refutation``.
    """
    if candidates is None:
        candidates = [Fraction(1, p) for p in first_primes(prime_window)]
    done: list[PrimeSumCertificate] = []
    skipped: list[tuple[str, str]] = []
    for q in candidates:
        q = Fraction(q)
        if q == 0:
            raise ValueError("the candidate must be a nonzero member")
        try:
            done.append(prime_sum_refutation(q, prime_cap))
        except PrimeCapExceeded as exc:
            skipped.append((str(q), str(exc)))
    return NearRefutationReport(tuple(done), tuple(skipped))


def _crossover_estimate(q: Fraction) -> int:
    """Rough location of the prime where the reciprocal sum outside the
    support of d(q) passes q + 2 (Mertens asymptotics).  It saturates at
    exp(exp(4)), about 5 * 10^23, far above any cap, so no float overflows."""
    mertens = 0.26149721
    lost = sum(1.0 / p for p in prime_support(q.denominator))
    target = float(q) + 2.0 - mertens + lost
    return int(exp(exp(min(target, 4.0)))) + 1


# ---------------------------------------------------------------------------
# nearly-atomic verification


@dataclass(frozen=True)
class NearlyAtomicReport(JsonForm):
    KIND = "nearly-atomic-report"
    decompositions: tuple[dict, ...]
    rational_obstructions: tuple[dict, ...]


def verify_nearly_atomic(depth: int = DEFAULT_DEPTH) -> NearlyAtomicReport:
    """For members r = q0 + (atoms) of the nearly-atomic instance, verify
    the exact atomic decomposition of alpha + r as phi(q0) copies of
    (alpha + q0)/phi(q0) plus the atoms; and certify that no nonzero
    rational member decomposes into window atoms (every atom contributes
    a positive alpha-coordinate).

    Each identity is replayed in ints: the extra atoms stand on both
    sides, so it holds exactly when alpha + q0 == p * head, with the head
    (c0 + c1 alpha)/c (``phi._atom_ints``); that is p c0 b == a c and
    p c1 == c for q0 = a/b."""
    qs = calkin_wilf(depth)
    decomps: list[dict] = []
    extra = 1 if len(qs) > 1 else 0
    for q0, p in zip(qs, first_primes(depth)):
        a, b = q0.numerator, q0.denominator
        c0, c1, c = _atom_ints(a, b, p)
        if p * c0 * b != a * c or p * c1 != c:
            raise CertificateError(f"decomposition fails for q0 = {q0}")
        decomps.append(
            {
                "q0": str(q0),
                "phi": p,
                "extra_atoms": extra,
                "identity": f"alpha + r = {p}*[(alpha+{q0})/{p}] + extras",
            }
        )
    obstructions: list[dict] = []
    for x in qs:
        if x == 0:
            continue
        # a decomposition of the rational x into atoms needs the atoms'
        # alpha-coordinates to sum to 0; each is 1/phi(q) > 0
        obstructions.append(
            {
                "member": str(x),
                "alpha_coordinate": "0",
                "conclusion": "no decomposition: every atom adds 1/phi(q) > 0",
            }
        )
    return NearlyAtomicReport(tuple(decomps), tuple(obstructions))


# ---------------------------------------------------------------------------
# failure of strong atomicity for the two-direction construction


@dataclass(frozen=True)
class CommonDivisorReplay(JsonForm):
    divisor: Fraction
    exponent: int
    shifted: Fraction  # divisor + q^k
    phi: int


def verify_not_strongly_atomic(
    q: Fraction, depth: int = DEFAULT_DEPTH
) -> tuple[CommonDivisorReplay, ...]:
    """For candidate common divisors d of alpha and beta (elements of the
    rational window), find k <= depth with d + q^k still below alpha, and
    replay the identities showing q^k is a nonzero common divisor of
    alpha - d and beta - d.  Reports are per-divisor; a missing k within
    the depth raises EnumerationCapExceeded (the construction gives no
    a-priori bound on k).

    Everything runs in ints over the denominator D = b m^k of d + q^k, for
    d = a/b and q = n/m: the exponent search tests (a m^k + b n^k)^2 <
    2 D^2 on the running powers n^k and m^k, and with the atom (alpha -
    u)/p = (c0 + c1 alpha)/c (``phi._atom_ints``), u = d + q^k and p =
    phi(u), the identity alpha - d == p (alpha - u)/p + q^k is (p c0 m^k +
    n^k c) b == -a c m^k and p c1 == c.  The beta identity has the same
    coordinates in the sqrt3 place, so the same two equations replay it."""
    q = Fraction(q)
    n, m = q.numerator, q.denominator
    out = []
    for d in alphabeta_domain(q, depth)[: max(4, depth // 2)]:
        a, b = d.numerator, d.denominator
        nk = mk = 1
        for k in range(1, depth + 1):
            nk *= n
            mk *= m
            num, den = a * mk + b * nk, b * mk
            if num * num < 2 * den * den:
                break
        else:
            raise EnumerationCapExceeded(
                f"no exponent within depth {depth} keeps {d} + q^k below alpha", d, depth
            )
        u = Fraction(num, den)
        p = alphabeta_phi(q, u)
        c0, c1, c = _atom_ints(-num, den, p)
        if (p * c0 * mk + nk * c) * b != -a * c * mk or p * c1 != c:
            raise CertificateError(f"common-divisor identity fails at d = {d}")
        out.append(CommonDivisorReplay(d, k, u, p))
    return tuple(out)


# ---------------------------------------------------------------------------
# certificate file verification


_CERTIFICATES = {
    cls.KIND: cls
    for cls in (ChainCertificate, HereditaryBreakCertificate, SubatomicWitness, PrimeSumCertificate)
}


def verify_certificate_json(obj: dict) -> str:
    """Re-check a serialized certificate; returns its kind on success.  A
    document that is not an object, names no known kind, misses a field or
    has fields of the wrong type or value raises CertificateError."""
    if not isinstance(obj, dict):
        raise CertificateError("a certificate is a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _CERTIFICATES:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    try:
        _CERTIFICATES[kind].from_json(obj).verify()
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed {kind} certificate: {exc!r}") from exc
    return kind
