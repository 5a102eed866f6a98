"""Reference answers for the benchmark, computed without posmon.

Every routine here uses plain loops, direct summation or a closed-form
theorem, so a defect in posmon's own search engines cannot hide behind a
reference that shares their code.  Values are Python ints and Fractions;
lex vectors are plain tuples compared lexicographically.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt


# -- numerical monoids ---------------------------------------------------------


def minimal_numerical_monoids(max_gens: int = 4, max_gen: int = 20) -> list[tuple[int, ...]]:
    """Minimal generating sets (gcd one) with at most max_gens generators,
    each at most max_gen, plus (1,): the sweep of acceptance criterion 9."""

    def generated(gens, top):
        reach = bytearray(top + 1)
        reach[0] = 1
        for g in gens:
            for v in range(g, top + 1):
                if reach[v - g]:
                    reach[v] = 1
        return reach

    out = [(1,)]
    for k in range(2, max_gens + 1):
        for gens in combinations(range(2, max_gen + 1), k):
            if gcd(*gens) != 1:
                continue
            if all(not generated([h for h in gens if h != g], g)[g] for g in gens):
                out.append(gens)
    return out


def numerical_factorizations(gens: tuple[int, ...], top: int) -> list[set[tuple[int, ...]]]:
    """table[v] = every coefficient vector over gens summing to v, for
    0 <= v <= top, built one generator at a time by nested loops."""
    table: list[set[tuple[int, ...]]] = [set() for _ in range(top + 1)]
    table[0].add(())
    for g in gens:
        grown: list[set[tuple[int, ...]]] = [set() for _ in range(top + 1)]
        for v in range(top + 1):
            for c in range(v // g + 1):
                for f in table[v - c * g]:
                    grown[v].add(f + (c,))
        table = grown
    return table


def probe_verdict(table: list[set[tuple[int, ...]]], prop: str) -> str:
    """Verdict of a bounded property probe over the members in the table."""
    for facts in table[1:]:
        if not facts:
            continue
        lengths = [sum(f) for f in facts]
        if prop == "HFM" and len(set(lengths)) > 1:
            return "refuted"
        if prop == "LFM" and len(set(lengths)) < len(lengths):
            return "refuted"
        if prop == "UFM" and len(facts) > 1:
            return "refuted"
    return "consistent"


# -- the lex plane -------------------------------------------------------------


def box(size: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(-size, size + 1) for y in range(-size, size + 1)]


def conductive_atoms(a: tuple[int, int], size: int) -> list[tuple[int, int]]:
    """Atoms of {0} u (Z^2)_{>=a} in the box |coords| <= size: the lex
    interval [a, 2a).  A conductor in the last Archimedean class gives the
    finite ladder a + t*e_2 whatever the box."""
    two_a = (2 * a[0], 2 * a[1])
    if a[0] == 0:
        return [(0, a[1] + t) for t in range(a[1])]
    return sorted(v for v in box(size) if a <= v < two_a)


def cone_factorizations(x: int, y: int, size: int) -> set[tuple[int, ...]]:
    """Factorizations of (x, y) in the N x Z cone over the atoms (1, t),
    |t| <= size: multisets of x second coordinates summing to y, written
    as non-increasing tuples."""
    out: set[tuple[int, ...]] = set()

    def rec(k: int, rest: int, top: int, acc: tuple[int, ...]) -> None:
        if k == 0:
            if rest == 0:
                out.add(acc)
            return
        for t in range(top, -size - 1, -1):
            if (k - 1) * t < rest - t or -(k - 1) * size > rest - t:
                continue
            rec(k - 1, rest - t, t, acc + (t,))

    rec(x, y, size, ())
    return out


# -- rationals, primes and certificates ----------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def prime_divisors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in prime_divisors(n))


def first_primes(count: int) -> list[int]:
    out, n = [], 2
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def m0_member(x: Fraction) -> bool:
    """x in <1/p : p prime>: some c_p >= 0 over the primes of the
    denominator leave a nonnegative integer (which 2*(1/2) generates)."""
    if x < 0 or not squarefree(x.denominator):
        return False
    ps = prime_divisors(x.denominator)

    def rec(i: int, rest: Fraction) -> bool:
        if i == len(ps):
            return rest.denominator == 1
        p = ps[i]
        return any(rec(i + 1, rest - Fraction(c, p)) for c in range(int(rest * p) + 1))

    return rec(0, x)


def m0_window_lengths(x: Fraction, primes: list[int]) -> set[int]:
    """Lengths of all factorizations of x over the atoms 1/p, p in primes."""
    out: set[int] = set()

    def rec(i: int, rest: Fraction, length: int) -> None:
        if rest == 0:
            out.add(length)
            return
        if i == len(primes):
            return
        p = primes[i]
        for c in range(int(rest * p) + 1):
            rec(i + 1, rest - Fraction(c, p), length + c)

    rec(0, x, 0)
    return out


def greedy_prime_prefix(excluded: tuple[int, ...], threshold: Fraction) -> tuple[int, int]:
    """(count, last prime) of the shortest prefix of the primes outside
    `excluded` whose reciprocal sum exceeds the threshold, summed exactly."""
    num, den, count, n = 0, 1, 0, 1
    while Fraction(num, den) <= threshold:
        n += 1
        if n in excluded or not is_prime(n):
            continue
        num, den = num * n + den, den * n
        count += 1
    return count, n


def mq_chain(q: Fraction, depth: int) -> tuple[list[Fraction], list[Fraction]]:
    """The canonical chain d q^k and differences (d - n) q^k of M_q."""
    n, d = q.numerator, q.denominator
    return [d * q**k for k in range(depth + 1)], [(d - n) * q**k for k in range(depth)]


def generated_by(target: Fraction, gens: tuple[Fraction, ...]) -> bool:
    """target is a nonnegative integer combination of gens (all positive)."""

    def rec(i: int, rest: Fraction) -> bool:
        if rest == 0:
            return True
        if i == len(gens):
            return False
        return any(rec(i + 1, rest - c * gens[i]) for c in range(int(rest / gens[i]) + 1))

    return rec(0, target)


def below_sqrt2(x: Fraction) -> bool:
    return x * x < 2


def calkin_wilf(count: int) -> list[Fraction]:
    """0 followed by the Calkin-Wilf order of the positive rationals, built
    breadth-first from the tree a/b -> a/(a+b), (a+b)/b."""
    out = [Fraction(0)]
    level = [(1, 1)]
    while len(out) < count:
        out.extend(Fraction(a, b) for a, b in level)
        level = [child for a, b in level for child in ((a, a + b), (a + b, b))]
    return out[:count]
