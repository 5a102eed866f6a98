"""Construction and machine-checking of explicit witnesses: non-stabilizing
chains of principal ideals, the hereditary-break synthesis (a sequence of
pairwise-combined differences whose generated submonoid provably excludes
the chain head), and the witnesses separating the quasi/almost/nearly
atomic classes.

Every certificate replays: its ``verify`` routine re-checks all recorded
identities in exact arithmetic and proves each recorded exclusion from
its own head and generators by one gcd.  A certificate document is its
``KIND`` and its fields, with full transcripts (``monoids.JsonForm``), so
adding or renaming a field changes the format; the CLI ``verify``
subcommand re-checks any certificate file.

Construction is deterministic: wherever an existential step permits a
choice, the minimal admissible index is taken.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, takewhile
from math import exp, gcd, lcm
from typing import Iterable, Optional

from .elements import rational, triple, zero
from .monoids import (
    DEFAULT_DEPTH,
    GeometricPuiseux,
    JsonForm,
    NotAMember,
    _mq_solve,
    _sqrt2_floor_check,
    almost_not_nearly_instance,
    alphabeta_atom,
    alphabeta_domain,
    alphabeta_phi,
    contains,
    nearly_atom,
    nearly_phi,
    quasi_not_almost_instance,
)
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
        """Replays every chain identity, and decides each difference a by
        its canonical representation (``_mq_solve``), re-summed in ints:
        with j its top index, sum c_i n^i d^(j-i) == d^j a."""
        q = self.ratio
        GeometricPuiseux(q)  # validates the ratio
        if len(self.elements) != len(self.differences) + 1:
            raise CertificateError("chain length mismatch")
        n, d = q.numerator, q.denominator
        for i, a in enumerate(self.differences):
            if self.elements[i] != self.elements[i + 1] + a:
                raise CertificateError(f"chain identity fails at step {i}")
            if a <= 0:
                raise CertificateError(f"difference {i + 1} is not positive")
            rep = _mq_solve(q, a)
            if rep is None:
                raise CertificateError(f"difference {i + 1} is not a member")
            top = rep[-1][0]
            total = sum(c * n**j * d ** (top - j) for j, c in rep)
            if total * a.denominator != a.numerator * d**top:
                raise CertificateError(f"membership certificate {i + 1} broken")


def mq_chain(q: Fraction, depth: int) -> ChainCertificate:
    """The canonical non-stabilizing chain of M_q:
    q_n = d(q) q^n and a_{n+1} = (d(q) - n(q)) q^n."""
    q = Fraction(q)
    GeometricPuiseux(q)  # validates 0 < q < 1 and n(q) >= 2
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n, d = q.numerator, q.denominator
    elements = tuple(d * q**k for k in range(depth + 1))
    differences = tuple((d - n) * q**k for k in range(depth))
    cert = ChainCertificate(q, elements, differences)
    cert.verify()
    return cert


# ---------------------------------------------------------------------------
# hereditary break synthesis


@dataclass(frozen=True)
class ExclusionTranscript(JsonForm):
    """Record that the head is not generated by the combined elements.

    The proof is one gcd.  Let D clear every denominator of the head and
    the generators, and let g = gcd(D * generators).  Every element of the
    generated group, and so of the generated monoid, is D^-1 g times an
    integer; hence g not dividing D * head excludes the head.  ``bounds``
    records int(head / generator) per generator.  ``combinations_checked``
    is kept for the document format: builds write 0 there, and older
    documents carry the size of the exhaustive search that used to stand in
    for the gcd; ``verify`` does not read it.
    """

    head: Fraction
    generators: tuple[Fraction, ...]
    bounds: tuple[int, ...]
    combinations_checked: int

    def obstruction(self) -> tuple[int, int, int]:
        """(D, g, D * head), with D the common denominator of the head and
        the generators and g = gcd(D * generators)."""
        den = lcm(self.head.denominator, *(x.denominator for x in self.generators))
        g = gcd(*((x * den).numerator for x in self.generators))
        return den, g, (self.head * den).numerator

    def verify(self) -> None:
        if self.bounds != _bounds(self.head, self.generators):
            raise CertificateError("exclusion bounds do not match the head")
        den, g, target = self.obstruction()
        if (target % g == 0) if g else target == 0:
            raise CertificateError(
                f"exclusion not certified: gcd {g} of the generators times {den}"
                f" divides {den} * {self.head}"
            )


def _bounds(head: Fraction, generators: tuple[Fraction, ...]) -> tuple[int, ...]:
    return tuple(int(head / g) for g in generators)


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
    excluded from <a'_1..a'_k> by a subgroup gcd, (2) every a'_k in the
    head's Archimedean class, (3) s'_k dividing a chain partial sum."""

    KIND = "hereditary-break"
    ratio: Fraction
    chain: ChainCertificate
    steps: tuple[BreakStep, ...]

    def verify(self) -> None:
        self.chain.verify()
        self.verify_steps()

    def verify_steps(self) -> None:
        """Check every step against the chain, taking the chain as verified."""
        q0 = self.chain.elements[0]
        a = self.chain.differences  # a_1 ... (index shift: a[i-1] = a_i)
        s = [Fraction(0)]
        for x in a:
            s.append(s[-1] + x)
        running: list[Fraction] = []
        for k, step in enumerate(self.steps, start=1):
            i1, i2 = step.chain_indices
            if not (1 <= i1 < i2 <= len(a)):
                raise CertificateError(f"step {k}: bad chain indices")
            if step.combined != a[i1 - 1] + a[i2 - 1]:
                raise CertificateError(f"step {k}: combined element mismatch")
            if step.combined <= 0:
                raise CertificateError(f"step {k}: combined element not positive")
            running.append(step.combined)
            expected = sum(running, Fraction(0))
            if step.partial_sum != expected:
                raise CertificateError(f"step {k}: partial sum mismatch")
            mk = step.divides_index
            leftover = s[mk] - step.partial_sum
            if leftover != sum((a[i - 1] for i in step.leftover_indices), Fraction(0)):
                raise CertificateError(f"step {k}: divisibility witness mismatch")
            if leftover < 0:
                raise CertificateError(f"step {k}: negative divisibility leftover")
            if step.exclusion.head != q0 or step.exclusion.generators != tuple(running):
                raise CertificateError(f"step {k}: exclusion transcript wrong target")
            step.exclusion.verify()


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
    running: list[Fraction] = []
    for k in range(1, steps + 1):
        running.append(a[2 * k - 2] + a[2 * k - 1])
        gens = tuple(running)
        built.append(
            BreakStep(
                combined=running[-1],
                chain_indices=(2 * k - 1, 2 * k),
                partial_sum=sum(running, Fraction(0)),
                divides_index=2 * k,
                leftover_indices=(),
                exclusion=ExclusionTranscript(q0, gens, _bounds(q0, gens), 0),
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
    a positive alpha-coordinate)."""
    alpha = triple(0, 1, 0)
    qs = calkin_wilf(depth)
    decomps: list[dict] = []
    for idx, q0 in enumerate(qs):
        p = nearly_phi(q0)
        head = nearly_atom(q0)
        extra = [nearly_atom(qs[(idx + 1) % len(qs)])] if len(qs) > 1 else []
        r = triple(q0, 0, 0) + sum(extra, zero(head.group))
        lhs = alpha + r
        rhs = head.scale(p)
        for at in extra:
            rhs = rhs + at
        if lhs != rhs:
            raise CertificateError(f"decomposition fails for q0 = {q0}")
        decomps.append(
            {
                "q0": str(q0),
                "phi": p,
                "extra_atoms": len(extra),
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
    the depth raises (the construction gives no a-priori bound on k)."""
    q = Fraction(q)
    out = []
    domain = alphabeta_domain(q, depth)
    alpha = triple(0, 1, 0)
    beta = triple(0, 0, 1)
    for d in domain[: max(4, depth // 2)]:
        k = None
        for kk in range(1, depth + 1):
            if _sqrt2_floor_check(d + q**kk):
                k = kk
                break
        if k is None:
            raise RuntimeError(
                f"no exponent within depth {depth} keeps {d} + q^k below alpha"
            )
        u = d + q**k
        p = alphabeta_phi(q, u)
        lhs_a = alpha - triple(d, 0, 0)
        rhs_a = alphabeta_atom(q, u, "alpha").scale(p) + triple(q**k, 0, 0)
        lhs_b = beta - triple(d, 0, 0)
        rhs_b = alphabeta_atom(q, u, "beta").scale(p) + triple(q**k, 0, 0)
        if lhs_a != rhs_a or lhs_b != rhs_b:
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
