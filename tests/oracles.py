"""Independent reference oracles for the test suite.

These deliberately avoid the package's search machinery: factorizations
by plain nested loops, signs by mpmath interval refinement or exact
squaring, membership by unstructured brute force, atoms by a window scan
over ``contains``, primes by trial division, the Calkin-Wilf order by
Stern's diatomic sequence, and the sqrt2 discovery order as first written.
They stay independent of the code paths they check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from posmon.elements import triple, zero
from posmon.monoids import contains
from posmon.phi import _GRADE_CAP, _PHI_CAP, EnumerationCapExceeded
from posmon.witness import CertificateError, CommonDivisorReplay, NearlyAtomicReport


# every ratio the benchmark workloads query
ALL_RATIOS = [Fraction(r) for r in (
    "2/3", "3/4", "2/5", "3/5", "4/5", "5/6", "3/7", "4/7", "5/7",
    "5/8", "7/8", "4/9", "7/9", "7/10", "9/10",
)]


def brute_force_factorizations(gens: tuple[int, ...], b: int) -> set[tuple[int, ...]]:
    """All coefficient vectors over gens summing to b, by nested loops."""
    out: set[tuple[int, ...]] = set()

    def rec(i: int, rem: int, acc: tuple[int, ...]):
        if i == len(gens):
            if rem == 0:
                out.add(acc)
            return
        c = 0
        while c * gens[i] <= rem:
            rec(i + 1, rem - c * gens[i], acc + (c,))
            c += 1

    rec(0, b, ())
    return out


def brute_force_vector_factorizations(
    atoms: list[tuple[int, ...]], b: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All coefficient vectors over integer atom vectors summing to b, in
    ascending order, by nested loops.

    Each multiplicity c runs while c times the atom's leading (first
    nonzero) coordinate stays at most the residual there.  That bound is
    exact when no atom is negative at any atom's leading coordinate, which
    is checked.
    """
    leads = [next(k for k, v in enumerate(a) if v) for a in atoms]
    if any(a[k] < 0 for a in atoms for k in leads):
        raise ValueError("an atom is negative at a leading coordinate")
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: tuple[int, ...], acc: tuple[int, ...]):
        if i == len(atoms):
            if not any(rem):
                out.append(acc)
            return
        a, k = atoms[i], leads[i]
        c = 0
        while c * a[k] <= rem[k]:
            rec(i + 1, tuple(r - c * v for r, v in zip(rem, a)), acc + (c,))
            c += 1

    rec(0, tuple(b), ())
    return sorted(out)


def exact_real_sign(a: int, b: int, c: int) -> int:
    """Sign of a + b sqrt2 + c sqrt3 for ints, by exact squaring."""

    def sign2(p: int, q: int) -> int:
        # p + q sqrt2; with opposite signs the larger square wins
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp * sq >= 0:
            return sp or sq
        return sp if p * p > 2 * q * q else sq

    sx, sy = sign2(a, b), (c > 0) - (c < 0)
    if sx * sy >= 0:
        return sx or sy
    # (a + b sqrt2)^2 - 3 c^2 = a^2 + 2 b^2 - 3 c^2 + 2ab sqrt2, never 0
    return sx if sign2(a * a + 2 * b * b - 3 * c * c, 2 * a * b) > 0 else sy


def brute_force_triple_factorizations(
    atoms: list[tuple[Fraction, Fraction, Fraction]], b: tuple[Fraction, Fraction, Fraction]
) -> list[tuple[int, ...]]:
    """All coefficient vectors over (1, sqrt2, sqrt3) coefficient triples
    summing to b, in ascending order, by nested loops.

    Each multiplicity c runs while c times the atom's real value stays at
    most the residual's (atoms are positive), decided by exact_real_sign
    after clearing denominators.
    """
    den = lcm(*(Fraction(x).denominator for v in (*atoms, b) for x in v))
    ints = [tuple(int(Fraction(x) * den) for x in v) for v in atoms]
    if any(exact_real_sign(*a) <= 0 for a in ints):
        raise ValueError("atoms must be positive")
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: tuple[int, ...], acc: tuple[int, ...]):
        if i == len(ints):
            if not any(rem):
                out.append(acc)
            return
        a = ints[i]
        c = 0
        while exact_real_sign(*(r - c * v for r, v in zip(rem, a))) >= 0:
            rec(i + 1, tuple(r - c * v for r, v in zip(rem, a)), acc + (c,))
            c += 1

    rec(0, tuple(int(Fraction(x) * den) for x in b), ())
    return sorted(out)


def brute_force_membership(gens: list[Fraction], x: Fraction) -> bool:
    """x in <gens> by bounded nested search (gens positive rationals), in
    ints once the common denominator is cleared."""
    den = lcm(Fraction(x).denominator, *(Fraction(g).denominator for g in gens))
    ints = sorted((int(g * den) for g in gens), reverse=True)

    def rec(i: int, rem: int) -> bool:
        if rem == 0:
            return True
        if i == len(ints) or rem < 0:
            return False
        for k in range(rem // ints[i], -1, -1):
            if rec(i + 1, rem - k * ints[i]):
                return True
        return False

    return rec(0, int(x * den))


def no_window_decomposition(m, t, window, depth: int) -> bool:
    """True when no window generator g yields t = g + (nonzero member):
    the definition of an atom read literally over the window, one
    ``contains`` query per generator, which the closed-form split rules
    of ``factor._atom_rule`` are checked against."""
    for g in window:
        if not g < t:
            continue  # t - g is zero or negative
        if contains(m, t - g, depth).is_in:
            return False
    return True


def mq_members_below(q: Fraction, max_index: int, max_coeff: int, bound: Fraction):
    """Values of sum c_i q^i with indices <= max_index, coefficients
    <= max_coeff, value <= bound (a finite under-approximation of M_q)."""
    vals = {Fraction(0)}
    for i in range(max_index + 1):
        p = q**i
        vals = {v + c * p for v in vals for c in range(max_coeff + 1) if v + c * p <= bound}
    return sorted(vals)


def mq_solve_by_gcd_steps(q: Fraction, x: Fraction):
    """The canonical representation ((i, c_i), ...) of x in M_q, or None,
    by the earlier algorithm: the least K with den(x) | d^K one gcd per
    exponent (each step strips from den(x) the primes it shares with d),
    then every canonical coefficient c_K..c_0 forced by its residue mod d
    in a dense list, zeros included."""
    if x < 0:
        return None
    n, d = q.numerator, q.denominator
    k, den = 0, x.denominator
    while den > 1:
        g = gcd(den, d)
        if g == 1:
            return None
        den //= g
        k += 1
    big = x.numerator * (d**k // x.denominator)
    digits = [0] * (k + 1)
    inv = pow(n, -1, d)
    step = pow(inv, k, d)
    power = n**k
    for i in range(k, 0, -1):
        if big <= 0:
            break
        c = big % d * step % d
        big = (big - c * power) // d
        digits[i] = c
        power //= n
        step = step * n % d
    if big < 0:
        return None
    digits[0] = big
    return tuple((i, c) for i, c in enumerate(digits) if c > 0)


def interval_sign(c0: Fraction, c1: Fraction, c2: Fraction) -> int:
    """Sign of c0 + c1 sqrt2 + c2 sqrt3 by mpmath interval refinement."""
    if c0 == 0 and c1 == 0 and c2 == 0:
        return 0
    from mpmath import iv

    prec = 64
    while True:
        iv.prec = prec
        x = (
            iv.mpf(c0.numerator) / c0.denominator
            + iv.mpf(c1.numerator) / c1.denominator * iv.sqrt(2)
            + iv.mpf(c2.numerator) / c2.denominator * iv.sqrt(3)
        )
        if x > 0:
            return 1
        if x < 0:
            return -1
        prec *= 2
        if prec > 1 << 16:
            raise RuntimeError("interval oracle failed to separate from zero")


def minimal_numerical_monoids(max_gens: int = 4, max_gen: int = 20):
    """All numerical monoids with at most max_gens generators bounded by
    max_gen, as their unique minimal generating sets (gcd one)."""

    def reachable(gens, top):
        reach = bytearray(top + 1)
        reach[0] = 1
        for g in gens:
            for v in range(g, top + 1):
                if reach[v - g]:
                    reach[v] = 1
        return reach

    def is_minimal(S):
        for g in S:
            others = [h for h in S if h != g]
            if others and reachable(others, g)[g]:
                return False
        return True

    out = [(1,)]
    for k in range(2, max_gens + 1):
        for S in combinations(range(2, max_gen + 1), k):
            if gcd(*S) != 1:
                continue
            if not is_minimal(S):
                continue
            out.append(S)
    return out


def is_prime_by_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_by_trial(count: int) -> list[int]:
    """The first count primes, by trial division."""
    out: list[int] = []
    n = 2
    while len(out) < count:
        if is_prime_by_trial(n):
            out.append(n)
        n += 1
    return out


def greedy_prime_prefix(excluded, threshold: Fraction):
    """Same construction as the library, written independently: trial
    division primality, direct Fraction summation."""
    total = Fraction(0)
    out = []
    n = 2
    while total <= threshold:
        if is_prime_by_trial(n) and n not in excluded:
            out.append(n)
            total += Fraction(1, n)
        n += 1
    return out, total


def stern_calkin_wilf(count: int) -> list[Fraction]:
    """The first count terms of 0, 1, 1/2, 2, 1/3, 3/2, ...: term n is
    fusc(n)/fusc(n + 1) for Stern's diatomic sequence, fusc(0) = 0,
    fusc(1) = 1, fusc(2n) = fusc(n), fusc(2n + 1) = fusc(n) + fusc(n + 1)."""
    fusc = [0, 1]
    while len(fusc) <= count:
        n = len(fusc)
        fusc.append(fusc[n // 2] + fusc[n // 2 + 1] if n % 2 else fusc[n // 2])
    return [Fraction(fusc[n], fusc[n + 1]) for n in range(count)]


# The discovery enumeration of {s in M_q : s < sqrt2} as the library first
# wrote it: each grade lists every coefficient vector of grade at most g,
# and ``seen`` drops the values already found at a lower grade.


def _sqrt2_floor_check(value: Fraction) -> bool:
    """value < sqrt2, exactly (value assumed >= 0)."""
    return value.numerator**2 < 2 * value.denominator**2


@lru_cache(maxsize=None)
def alphabeta_domain_by_le_grade(q: Fraction, count: int) -> tuple[Fraction, ...]:
    """First `count` elements of S = {s in M_q : s < sqrt2}, in discovery order.

    Discovery order: representations c_0 + c_1 q + ... + c_K q^K are
    enumerated by increasing grade K + sum(c_i) and lexicographic
    coefficient order inside a grade; a value joins S the first time it
    appears.  The order is fixed so that phi (n-th element -> n-th prime)
    is reproducible across runs.
    """
    q = Fraction(q)
    found: list[Fraction] = []
    seen: set[Fraction] = set()
    grade = 0
    while len(found) < count:
        for value in _le_graded_values(q, grade):
            if value in seen or not _sqrt2_floor_check(value):
                continue
            seen.add(value)
            found.append(value)
            if len(found) == count:
                break
        grade += 1
        if grade > 200:
            raise RuntimeError("discovery enumeration exceeded its safety cap")
    return tuple(found)


def _le_graded_values(q: Fraction, grade: int):
    """Values of coefficient vectors whose top index K and coefficient sum
    satisfy K + sum(c) <= grade, top coefficient nonzero (except the empty
    vector at grade 0)."""
    powers = [q**i for i in range(grade + 1)]
    out: list[Fraction] = []
    for top_index in range(grade + 1):
        budget = grade - top_index
        if top_index == 0:
            for c in range(budget + 1):
                if grade == 0 or c >= 1:
                    out.append(powers[0] * c)
            continue

        def rec(idx: int, budget_: int, acc: Fraction):
            if idx > top_index:
                out.append(acc)
                return
            lo = 1 if idx == top_index else 0
            for c in range(lo, budget_ + 1):
                rec(idx + 1, budget_ - c, acc + powers[idx] * c)

        rec(0, budget, Fraction(0))
    return out


# The Fraction forms of the sqrt2/sqrt3 reports, of the discovery
# enumeration and of the prime-sum solver, as the library wrote them before
# it moved them to ints: every value a Fraction, every identity an equation
# of GroupElement triples, phi a scan of the enumeration tuple.  The caps
# and their messages are the library's, so the exceptions compare too.


def graded_values_by_fractions(q: Fraction, grade: int) -> list[Fraction]:
    """Values of coefficient vectors whose top index K and coefficient sum
    satisfy K + sum(c) == grade, top coefficient nonzero (except the empty
    vector at grade 0), by K and then lexicographically in c."""
    if grade == 0:
        return [Fraction(0)]
    powers = [q**i for i in range(grade + 1)]
    out: list[Fraction] = []

    def rec(idx: int, top: int, budget: int, acc: Fraction):
        if idx == top:  # the top coefficient takes what is left
            out.append(acc + powers[idx] * budget)
            return
        for c in range(budget):
            rec(idx + 1, top, budget - c, acc + powers[idx] * c)

    for top in range(grade):
        rec(0, top, grade - top, Fraction(0))
    return out


@lru_cache(maxsize=None)
def alphabeta_domain_by_fractions(q: Fraction, count: int) -> tuple[Fraction, ...]:
    """The discovery order over ``graded_values_by_fractions``."""
    q = Fraction(q)
    found: list[Fraction] = []
    seen: set[Fraction] = set()
    grade = 0
    while len(found) < count:
        for value in graded_values_by_fractions(q, grade):
            if value in seen or not _sqrt2_floor_check(value):
                continue
            seen.add(value)
            found.append(value)
            if len(found) == count:
                break
        grade += 1
        if grade > _GRADE_CAP:
            raise EnumerationCapExceeded(
                f"the first {count} elements below sqrt2 for q = {q} run past"
                f" the safety cap, grade {_GRADE_CAP}",
                count, _GRADE_CAP,
            )
    return tuple(found)


@lru_cache(maxsize=None)
def _primes_by_trial_cached(count: int) -> tuple[int, ...]:
    return tuple(primes_by_trial(count))


def alphabeta_phi_by_scan(q: Fraction, s: Fraction) -> int:
    """phi(s) by a scan of the enumeration prefixes of 16, 32, ... elements."""
    count = 16
    while True:
        dom = alphabeta_domain_by_fractions(q, count)
        if s in dom:
            return _primes_by_trial_cached(len(dom))[dom.index(s)]
        if count >= _PHI_CAP:
            raise EnumerationCapExceeded(
                f"{s} not discovered within the enumeration cap, {_PHI_CAP} elements",
                s, _PHI_CAP,
            )
        count *= 2


def verify_not_strongly_atomic_by_fractions(q: Fraction, depth: int):
    """The common-divisor replays with Fraction triples."""
    q = Fraction(q)
    out = []
    domain = alphabeta_domain_by_fractions(q, depth)
    alpha = triple(0, 1, 0)
    beta = triple(0, 0, 1)
    for d in domain[: max(4, depth // 2)]:
        k = None
        for kk in range(1, depth + 1):
            if _sqrt2_floor_check(d + q**kk):
                k = kk
                break
        if k is None:
            raise EnumerationCapExceeded(
                f"no exponent within depth {depth} keeps {d} + q^k below alpha", d, depth
            )
        u = d + q**k
        p = alphabeta_phi_by_scan(q, u)
        lhs_a = alpha - triple(d, 0, 0)
        rhs_a = triple(-u / p, Fraction(1, p), 0).scale(p) + triple(q**k, 0, 0)
        lhs_b = beta - triple(d, 0, 0)
        rhs_b = triple(-u / p, 0, Fraction(1, p)).scale(p) + triple(q**k, 0, 0)
        if lhs_a != rhs_a or lhs_b != rhs_b:
            raise CertificateError(f"common-divisor identity fails at d = {d}")
        out.append(CommonDivisorReplay(d, k, u, p))
    return tuple(out)


def verify_nearly_atomic_by_fractions(depth: int):
    """The nearly-atomic report with Fraction triples, over Stern's order
    and primes by trial division."""
    alpha = triple(0, 1, 0)
    qs = stern_calkin_wilf(depth)
    ps = primes_by_trial(depth)
    atoms = [triple(x / p, Fraction(1, p), 0) for x, p in zip(qs, ps)]
    decomps: list[dict] = []
    for idx, (q0, p, head) in enumerate(zip(qs, ps, atoms)):
        extra = [atoms[(idx + 1) % len(qs)]] if len(qs) > 1 else []
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
    obstructions = [
        {
            "member": str(x),
            "alpha_coordinate": "0",
            "conclusion": "no decomposition: every atom adds 1/phi(q) > 0",
        }
        for x in qs
        if x != 0
    ]
    return NearlyAtomicReport(tuple(decomps), tuple(obstructions))


def _factor_by_trial(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_sum_by_fractions(x: Fraction, spare: int):
    """Multiplicities {p: c_p} with sum c_p / p == x over distinct primes,
    or None, with the leftover kept as a Fraction."""
    den = x.denominator
    fac = _factor_by_trial(den)
    if any(e > 1 for e in fac.values()):
        return None
    coeffs: dict[int, int] = {}
    rest = x
    for p in sorted(fac):
        a = (x.numerator * pow(den // p, -1, p)) % p
        coeffs[p] = a
        rest -= Fraction(a, p)
    if rest.denominator != 1 or rest < 0:
        return None
    if rest > 0:
        coeffs[spare] = coeffs.get(spare, 0) + spare * int(rest)
    return coeffs
