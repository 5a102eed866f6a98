"""Membership and divisibility decision procedures for the monoid families
of ``descriptors``, their generator windows and their members below a
bound.

Membership is exact (In/Out) wherever a decision procedure exists:
finitely generated monoids (the integer knapsack engine of ``search``,
stopped at the first combination), conductive monoids and lex cones (cone
rule), the geometric monoid <q^n> (canonical representation), the
prime-reciprocal monoid <1/p> (residue decomposition), localized rays
Z[1/p]_{>=t}, their unions, and direct products.  The two families built
around an irrational basis element only admit bounded verdicts, reported
honestly as ``unknown`` rather than coerced to Out.

Generator windows are memoized behind ``functools.lru_cache`` and all
operations may be called concurrently.  The phi enumerations of the two
irrational constructions are in ``phi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, floor, gcd
from typing import Optional

# numerical and FIRST_POSITIVE are not used here; the benchmark workloads
# build their monoids through posmon.monoids
from .descriptors import (
    FIRST_POSITIVE,
    FULL_CONE,
    UNION,
    AlphaBeta,
    Conductive,
    Element,
    FiniteGenerated,
    GeometricPuiseux,
    LexCone,
    Localized,
    MonoidDescriptor,
    NearlyAtomicAlpha,
    PrimeReciprocal,
    Product,
    ProductElement,
    UnionShift,
    UnsupportedFamily,
    numerical,
)
from .elements import Group, GroupElement, GroupMismatch, Q, rational, triple, zero
from .phi import alphabeta_atom, alphabeta_domain, nearly_atom
from .primes import calkin_wilf, factorize, first_primes, is_squarefree

DEFAULT_DEPTH = 12
RAY_EXPONENT_CAP = 4  # the largest denominator exponent of a ray's window

IN, OUT, UNKNOWN = "in", "out", "unknown"


# ---------------------------------------------------------------------------
# verdicts and windows


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a membership (or divisibility) query.

    An ``in`` verdict always carries a certificate: a tuple of
    (generator, coefficient) pairs whose replayed sum reproduces the
    element exactly.  ``unknown`` records the depth at which the bounded
    search stopped; it is never silently coerced to ``out``.
    """

    status: str
    certificate: Optional[tuple[tuple[Element, int], ...]] = None
    depth: Optional[int] = None

    @property
    def is_in(self) -> bool:
        return self.status == IN

    @property
    def is_out(self) -> bool:
        return self.status == OUT

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN


def verdict_in(cert: tuple[tuple[Element, int], ...]) -> MembershipVerdict:
    return MembershipVerdict(IN, certificate=cert)


VERDICT_OUT = MembershipVerdict(OUT)


def replay_certificate(verdict: MembershipVerdict, zero_element: Element) -> Element:
    """Sum of coefficient * generator over the certificate."""
    if verdict.certificate is None:
        raise ValueError("verdict carries no certificate")
    total = zero_element
    for gen, coeff in verdict.certificate:
        if coeff < 0:
            raise ValueError("certificate coefficients must be nonnegative")
        if isinstance(gen, ProductElement):
            for _ in range(coeff):
                total = total + gen
        else:
            total = total + gen.scale(coeff)
    return total


@dataclass(frozen=True)
class GeneratorWindow:
    """A finite, deterministic, depth-monotone slice of a generating set."""

    descriptor: "MonoidDescriptor"
    depth: int
    generators: tuple[Element, ...]


# ---------------------------------------------------------------------------
# generator windows


def generators(m: MonoidDescriptor, depth: int = DEFAULT_DEPTH) -> GeneratorWindow:
    """A deterministic finite generator list, monotone in depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _window_cached(m, depth)


@lru_cache(maxsize=None)
def _window_cached(m: MonoidDescriptor, depth: int) -> GeneratorWindow:
    gens = tuple(_window_elements(m, depth))
    for g in gens:
        positive = (not g.is_zero) if isinstance(g, ProductElement) else g.is_positive
        if not positive:
            raise AssertionError("window produced a non-positive generator")
    return GeneratorWindow(m, depth, gens)


def _window_elements(m: MonoidDescriptor, depth: int) -> list[Element]:
    if isinstance(m, FiniteGenerated):
        return list(dict.fromkeys(m.generators))
    if isinstance(m, GeometricPuiseux):
        return [rational(m.q**i) for i in range(depth + 1)]
    if isinstance(m, PrimeReciprocal):
        return [rational(Fraction(1, p)) for p in first_primes(depth)]
    if isinstance(m, Conductive):
        return _conductive_window(m, depth)
    if isinstance(m, LexCone):
        return [v for v in _lex_box(m.lex_group, depth) if _cone_holds(m, v) and not v.is_zero]
    if isinstance(m, Localized):
        return _localized_window(m, depth)
    if isinstance(m, Product):
        lg = _window_elements(m.left, depth)
        rg = _window_elements(m.right, depth)
        lzero = _zero_of(m.left)
        rzero = _zero_of(m.right)
        return [ProductElement(g, rzero) for g in lg] + [
            ProductElement(lzero, h) for h in rg
        ]
    if isinstance(m, UnionShift):
        if m.mode == UNION:
            base = _window_elements(m.base, depth)
            return base + _group_tail_window(m, depth)
        return _window_elements(m.base, depth) + _window_elements(m.tail, depth)
    if isinstance(m, AlphaBeta):
        out: list[Element] = []
        for s, p in zip(alphabeta_domain(m.q, depth), first_primes(depth)):
            if s != 0:
                out.append(triple(s, 0, 0))
            out.append(alphabeta_atom(s, p, "alpha"))
            out.append(alphabeta_atom(s, p, "beta"))
        return out
    if isinstance(m, NearlyAtomicAlpha):
        out = []
        for x, p in zip(calkin_wilf(depth), first_primes(depth)):
            if x != 0:
                out.append(triple(x, 0, 0))
            out.append(nearly_atom(x, p))
        return out
    raise UnsupportedFamily(f"no generator window for {m.family}")


def _zero_of(m: MonoidDescriptor) -> Element:
    if isinstance(m, Product):
        return ProductElement(_zero_of(m.left), _zero_of(m.right))
    return zero(m.group)


def _conductive_window(m: Conductive, depth: int) -> list[GroupElement]:
    g = m.group
    a = m.threshold
    if g.kind == "lex":
        # a slice of the cone anchored at the conductor: a + box offsets,
        # in order, as translation keeps it
        return [v for v in (a + delta for delta in _lex_box(g, depth)) if v >= a]
    if g.kind == "Q":
        vals = sorted(
            {
                a.value + Fraction(i, j)
                for j in range(1, depth + 1)
                for i in range(0, depth * j + 1)
            }
        )
        return [rational(v) for v in vals]
    raise UnsupportedFamily("conductive windows exist for Q and lex groups")


@lru_cache(maxsize=None)
def _lex_box(group: Group, size: int) -> tuple[GroupElement, ...]:
    """All box elements with |coord| <= size, in ascending lex order: the
    product of the ascending coordinate grid, taken in priority order.

    For rational-coordinate groups the coordinate grid is the set of
    fractions in [-size, size] with denominator at most min(size, 5); the
    denominator cap keeps window sizes sane and preserves monotonicity in
    the depth.
    """
    if group.rational_coords:
        dmax = min(size, 5)
        grid = sorted(
            {
                Fraction(p, q)
                for q in range(1, dmax + 1)
                for p in range(-size * q, size * q + 1)
            }
        )
    else:
        grid = range(-size, size + 1)
    return tuple(_point_element(group, p, 1) for p in product(grid, repeat=group.rank))


def _cone_holds(m: LexCone, v: GroupElement) -> bool:
    if v.is_zero:
        return True
    if m.rule == FULL_CONE:
        return v.is_positive
    return v.value[m.lex_group.priority] > 0


def _ray_grid(m: Localized, depth: int) -> tuple[int, int, int]:
    """(lo, hi, den): the ray's window is the k/den for lo <= k <= hi, the
    positive multiples of 1/den in [threshold, threshold + depth], where
    den = p^min(depth, the cap); the cap keeps windows desk-sized."""
    den = m.prime ** min(depth, RAY_EXPONENT_CAP)
    return max(1, ceil(m.min_nonzero * den)), floor((m.min_nonzero + depth) * den), den


def _localized_window(m: Localized, depth: int) -> list[GroupElement]:
    lo, hi, den = _ray_grid(m, depth)
    return [rational(Fraction(k, den)) for k in range(lo, hi + 1)]


def _group_tail_window(m: UnionShift, depth: int) -> list[GroupElement]:
    """Sample of gp(M_0)_{>= threshold}: prime denominators up to the
    depth-th prime, values up to threshold + min(depth, 4)."""
    ps = first_primes(depth)
    dens = [1] + list(ps)
    out: set[Fraction] = set()
    lo = m.threshold
    hi = m.threshold + min(depth, 4)
    for den in dens:
        for num in range(lo.numerator * den // lo.denominator, hi.numerator * den // hi.denominator + 1):
            v = Fraction(num, den)
            if lo <= v <= hi:
                out.add(v)
    return [rational(v) for v in sorted(out)]


# ---------------------------------------------------------------------------
# membership


def contains(
    m: MonoidDescriptor, x: Element, depth: int = DEFAULT_DEPTH
) -> MembershipVerdict:
    """Decide x in m; exact for every family except the two irrational
    constructions and out-of-window combinations, which report unknown."""
    check_query(m, x)
    if isinstance(m, FiniteGenerated):
        return _fg_contains(m, x)
    if isinstance(m, GeometricPuiseux):
        return _mq_contains(m, x)
    if isinstance(m, PrimeReciprocal):
        return _m0_contains(x.value)
    if isinstance(m, Conductive):
        if x.is_zero:
            return verdict_in(())
        return verdict_in(((x, 1),)) if x >= m.threshold else VERDICT_OUT
    if isinstance(m, LexCone):
        if x.is_zero:
            return verdict_in(())
        return verdict_in(((x, 1),)) if _cone_holds(m, x) else VERDICT_OUT
    if isinstance(m, Localized):
        return _localized_contains(m, x.value)
    if isinstance(m, Product):
        lv = contains(m.left, x.left, depth)
        rv = contains(m.right, x.right, depth)
        if lv.is_out or rv.is_out:
            return VERDICT_OUT
        if lv.is_in and rv.is_in:
            lzero, rzero = _zero_of(m.left), _zero_of(m.right)
            cert = tuple(
                (ProductElement(g, rzero), c) for g, c in lv.certificate
            ) + tuple((ProductElement(lzero, h), c) for h, c in rv.certificate)
            return verdict_in(cert)
        return MembershipVerdict(UNKNOWN, depth=depth)
    if isinstance(m, UnionShift):
        return _union_contains(m, x.value, depth)
    if isinstance(m, AlphaBeta):
        return _alphabeta_contains(m, x, depth)
    if isinstance(m, NearlyAtomicAlpha):
        return _nearly_contains(x, depth)
    raise UnsupportedFamily(f"no membership procedure for {m.family}")


def divides(
    m: MonoidDescriptor, d: Element, x: Element, depth: int = DEFAULT_DEPTH
) -> MembershipVerdict:
    """Verdict for "d divides x in m", i.e. x - d in m."""
    _check_element(m, d)
    _check_element(m, x)
    diff = x - d
    if _is_negative(m, diff):
        return VERDICT_OUT
    return contains(m, diff, depth)


def check_query(m: MonoidDescriptor, x: Element) -> None:
    """The checks every membership query makes before it searches: x lives
    in the ground group of m (else GroupMismatch) and is nonnegative (else
    ValueError)."""
    _check_element(m, x)
    if _is_negative(m, x):
        raise ValueError("membership queries require a nonnegative element")


def _check_element(m: MonoidDescriptor, x: Element) -> None:
    if isinstance(m, Product):
        if not isinstance(x, ProductElement):
            raise GroupMismatch("product monoids take pair elements")
        _check_element(m.left, x.left)
        _check_element(m.right, x.right)
        return
    if not isinstance(x, GroupElement) or x.group != m.group:
        raise GroupMismatch(f"element does not live in the ground group of {m}")


def _is_negative(m: MonoidDescriptor, x: Element) -> bool:
    if isinstance(x, ProductElement):
        return _is_negative(m.left, x.left) or _is_negative(m.right, x.right)
    return x.is_negative


# -- finitely generated ------------------------------------------------------


def _fg_contains(m: FiniteGenerated, x: GroupElement) -> MembershipVerdict:
    """The first combination of the descending generators that sums to x,
    from the integer knapsack engine that factorization uses."""
    if x.is_zero:
        return verdict_in(())
    pairs = m.window.first(x)
    return VERDICT_OUT if pairs is None else verdict_in(pairs)


# -- geometric <q^n> ---------------------------------------------------------


def _mq_digits(n: int, d: int, big: int, k: int) -> Optional[list[tuple[int, int]]]:
    """The nonzero canonical terms (i, c_i) of big over q = n/d, by
    ascending index, or None.

    The coefficients satisfy sum c_i n^i d^(k-i) == big with every c_i >= 0
    and c_i < d for i >= 1.  Modulo d only the top term survives, so c_k is
    forced to big * n^-k (mod d); subtracting it and dividing by d leaves
    the same problem one level down.  Once the remainder is zero the lower
    coefficients are all zero, and once it is negative no nonnegative
    completion exists.
    """
    terms = []
    inv = pow(n, -1, d)
    step = pow(inv, k, d)  # n^-i mod d at level i
    power = n**k
    for i in range(k, 0, -1):
        c = big % d * step % d
        if c:
            big -= c * power
            terms.append((i, c))
        big //= d
        if big <= 0:
            break
        power //= n
        step = step * n % d
    if big < 0:
        return None
    if big:
        terms.append((0, big))
    terms.reverse()
    return terms


@lru_cache(maxsize=65536)
def _mq_solve(q: Fraction, x: Fraction) -> Optional[tuple[tuple[int, int], ...]]:
    """The canonical representation ((i, c_i), ...) of x in M_q, with
    sum c_i q^i == x and 0 < c_i < d(q) for i >= 1, or None when x is
    not a member.

    Existence: applied from the top index down, the trade
    d q^(i+1) = n q^i turns any representation of a member into one with
    every coefficient at index >= 1 below d.  Uniqueness: the residues of
    ``_mq_digits`` force each such coefficient, so there is no search.

    The digits are taken at the least K with den(x) | d^K.  That K
    suffices: if 0 < c_j < d at the top index j >= 1, then d^j x is an
    integer that d does not divide, so d^(j-1) x is not an integer and
    den(x) divides no d^(j-1); hence j <= K.  And the least K keeps the
    digit loop short: it runs K levels at most, and a one-term member
    such as (d - n) q^k ends after its first.  When den(x) | d^K for some
    K at all, every prime p of den(x) divides d, so
    K = max ceil(v_p(den(x)) / v_p(d)) <= max v_p(den(x)) <= log2(den(x)),
    which is below B = ``den(x).bit_length()``.  So den(x) | d^B decides
    whether den(x) has a prime that d lacks, and since den(x) | d^k is
    monotone in k, a binary search on ``pow(d, k, den(x)) == 0`` over
    0..B finds K in O(log B) modular powers.  See S. T. Chapman, F. Gotti
    and M. Gotti, "Factorization invariants of Puiseux monoids generated
    by geometric sequences", Comm. Algebra 48 (2020).
    """
    return _mq_rep(q.numerator, q.denominator, x.numerator, x.denominator)


@lru_cache(maxsize=65536)
def _mq_rep(n: int, d: int, num: int, den: int) -> Optional[tuple[tuple[int, int], ...]]:
    """``_mq_solve(n/d, num/den)`` for num/den in lowest terms, den > 0,
    cached on the four ints, so a lookup hashes no Fraction."""
    if num < 0:
        return None
    lo, hi = 0, den.bit_length()
    if pow(d, hi, den):
        return None  # den has a prime factor that d lacks
    while lo < hi:
        mid = (lo + hi) // 2
        if pow(d, mid, den):
            lo = mid + 1
        else:
            hi = mid
    terms = _mq_digits(n, d, num * (d**lo // den), lo)
    return None if terms is None else tuple(terms)


def _mq_contains(m: GeometricPuiseux, x: GroupElement) -> MembershipVerdict:
    if x.is_zero:
        return verdict_in(())
    sol = _mq_solve(m.q, x.value)
    if sol is None:
        return VERDICT_OUT
    return verdict_in(tuple((rational(m.q**i), c) for i, c in sol))


# -- prime reciprocals -------------------------------------------------------


def _prime_sum(x: Fraction, spare: int) -> Optional[dict[int, int]]:
    """Multiplicities {p: c_p} with sum c_p / p == x over distinct primes,
    or None.

    The denominator must be squarefree; for each prime p dividing it the
    residue c_p = x * (den/p)^-1 (mod p) is forced, and the leftover must
    be a nonnegative integer k, absorbed as k * spare copies of 1/spare.
    The leftover is kept as its numerator over den, so no Fraction is
    built; it is a multiple of den, as the residues clear it modulo every
    prime of the squarefree den, so only its sign can refuse x.
    """
    num, den = x.numerator, x.denominator
    fac = factorize(den)
    if any(e > 1 for e in fac.values()):
        return None
    coeffs: dict[int, int] = {}
    rest = num  # den * (x - the residues so far)
    for p in sorted(fac):
        part = den // p
        a = (num * pow(part, -1, p)) % p
        coeffs[p] = a
        rest -= a * part
    if rest < 0:
        return None
    if rest:
        coeffs[spare] = coeffs.get(spare, 0) + spare * (rest // den)
    return coeffs


@lru_cache(maxsize=1024)
def _m0_solve(x: Fraction) -> Optional[tuple[tuple[int, int], ...]]:
    """Coefficients ((p, c_p), ...) with sum c_p / p == x, or None; the
    leftover integer is absorbed by copies of 1/2.

    The cache holds 1,024 answers: a miss costs one ``_prime_sum`` (a few
    microseconds once the denominator is factored), while every held entry
    costs a Fraction key and a tuple of pairs, so a larger bound mostly
    keeps memory in long query streams over ever new targets.
    """
    coeffs = _prime_sum(x, 2)
    return None if coeffs is None else tuple(sorted(coeffs.items()))


def _m0_contains(x: Fraction) -> MembershipVerdict:
    if x == 0:
        return verdict_in(())
    sol = _m0_solve(x)
    if sol is None:
        return VERDICT_OUT
    return verdict_in(tuple((rational(Fraction(1, p)), c) for p, c in sol))


# -- localized rays and unions ----------------------------------------------


def _power_support(den: int, p: int) -> bool:
    while den % p == 0:
        den //= p
    return den == 1


def _localized_contains(m: Localized, x: Fraction) -> MembershipVerdict:
    if x == 0:
        return verdict_in(())
    if not _power_support(x.denominator, m.prime):
        return VERDICT_OUT
    if x < m.min_nonzero:
        return VERDICT_OUT
    return verdict_in(((rational(x), 1),))


def _union_contains(m: UnionShift, x: Fraction, depth: int) -> MembershipVerdict:
    if x == 0:
        return verdict_in(())
    if m.mode == UNION:
        base = contains(m.base, rational(x), depth)
        if base.is_in:
            return base
        if x >= m.threshold and is_squarefree(x.denominator):
            return verdict_in(((rational(x), 1),))
        return VERDICT_OUT
    return _two_ray_contains(m.base, m.tail, x)


def _two_ray_contains(
    base: Localized, tail: Localized, x: Fraction
) -> MembershipVerdict:
    """Exact membership in <base u tail> = base + ({0} u tail).

    Splitting x = A/p1^a + B/p2^b over the two prime parts, the tail
    component is forced modulo the integers, so membership reduces to the
    existence of an integer k with tail and base thresholds both honored.
    """
    p1, t1 = base.prime, base.min_nonzero
    p2, t2 = tail.prime, tail.min_nonzero
    den = x.denominator
    a = 0
    while den % p1 == 0:
        den //= p1
        a += 1
    b = 0
    while den % p2 == 0:
        den //= p2
        b += 1
    if den != 1:
        return VERDICT_OUT
    # pure base-part (tail component zero)
    if b == 0 and (x == 0 or x >= t1):
        return verdict_in(((rational(x), 1),))
    # pure tail-part (base component zero)
    if a == 0 and x >= t2:
        return verdict_in(((rational(x), 1),))
    pa, pb = p1**a, p2**b
    A = (x.numerator * pow(pb, -1, pa)) % pa if pa > 1 else 0
    B = (x.numerator - A * pb) // pa
    # the tail part is v = B/pb + k for an integer k in [lo, hi]; every such
    # k leaves v >= t2 and u = A/pa - k >= t1, and u is no integer (there
    # is no such k when a = 0), so not 0: the least k decides
    lo = t2 - Fraction(B, pb)
    hi = Fraction(A, pa) - t1
    k = ceil(lo)
    if k > floor(hi):
        return VERDICT_OUT
    v = Fraction(B, pb) + k
    return verdict_in(((rational(x - v), 1), (rational(v), 1)))


# -- irrational constructions -------------------------------------------------


def _prime_part_solve(
    parts: list[tuple[Fraction, int]], target: Fraction
) -> Optional[list[int]]:
    """Multiplicities m_i with sum m_i / p_i == target over distinct primes;
    the leftover integer is absorbed by the first available prime."""
    mults = [0] * len(parts)
    if target == 0:
        return mults
    if not parts:
        return None
    index = {p: i for i, (_, p) in enumerate(parts)}
    coeffs = _prime_sum(target, min(index))
    if coeffs is None or not coeffs.keys() <= index.keys():
        return None
    for p, c in coeffs.items():
        mults[index[p]] = c
    return mults


def _nearly_contains(x: GroupElement, depth: int) -> MembershipVerdict:
    c0, c1, c2 = x.value
    if c2 != 0 or c1 < 0:
        return VERDICT_OUT
    if c1 == 0:
        if c0 < 0:
            return VERDICT_OUT
        return verdict_in(((triple(c0, 0, 0), 1),)) if c0 > 0 else verdict_in(())
    parts = list(zip(calkin_wilf(depth), first_primes(depth)))
    mults = _prime_part_solve(parts, c1)
    if mults is not None:
        rat = c0 - sum(Fraction(q) * m / p for (q, p), m in zip(parts, mults))
        if rat >= 0:
            cert = [
                (nearly_atom(q, p), m) for (q, p), m in zip(parts, mults) if m > 0
            ]
            if rat > 0:
                cert.append((triple(rat, 0, 0), 1))
            return verdict_in(tuple(cert))
    return MembershipVerdict(UNKNOWN, depth=depth)


def _alphabeta_contains(
    m: AlphaBeta, x: GroupElement, depth: int
) -> MembershipVerdict:
    c0, c1, c2 = x.value
    if c1 < 0 or c2 < 0:
        return VERDICT_OUT
    if c1 == 0 and c2 == 0:
        base = _mq_contains(GeometricPuiseux(m.q), GroupElement(Q, c0))
        if base.is_out:
            return VERDICT_OUT
        cert = tuple((triple(g.value, 0, 0), c) for g, c in base.certificate)
        return verdict_in(cert)
    parts = list(zip(alphabeta_domain(m.q, depth), first_primes(depth)))
    am = _prime_part_solve(parts, c1)
    bm = _prime_part_solve(parts, c2)
    if am is not None and bm is not None:
        rat = (
            c0
            + sum(Fraction(s) * k / p for (s, p), k in zip(parts, am))
            + sum(Fraction(s) * k / p for (s, p), k in zip(parts, bm))
        )
        sub = _mq_solve(m.q, rat) if rat >= 0 else None
        if sub is not None:
            cert = [
                (alphabeta_atom(s, p, "alpha"), k)
                for (s, p), k in zip(parts, am)
                if k > 0
            ]
            cert += [
                (alphabeta_atom(s, p, "beta"), k)
                for (s, p), k in zip(parts, bm)
                if k > 0
            ]
            cert += [(triple(m.q**i, 0, 0), c) for i, c in sub]
            return verdict_in(tuple(cert))
    return MembershipVerdict(UNKNOWN, depth=depth)


# ---------------------------------------------------------------------------
# difference groups


def gp_membership(m: MonoidDescriptor, x: GroupElement) -> bool:
    """Exact membership in the difference group, for the rational families
    that support it.

    For the generated dyadic/triadic union this decides the documented
    bound on the subgroup generated by the atoms (denominator a power of
    the tail prime), not the difference group of the whole monoid.
    """
    if isinstance(m, Product):
        raise UnsupportedFamily("no difference-group procedure for products")
    if not isinstance(x, GroupElement) or x.group != m.group:
        raise GroupMismatch("element is not in the ground group")
    if isinstance(m, PrimeReciprocal):
        return is_squarefree(x.value.denominator)
    if isinstance(m, FiniteGenerated):
        if m.group.kind != "Q":
            raise UnsupportedFamily("lattice membership implemented over Q")
        t = m.window.encode(x)
        return t is not None and t[0] % gcd(*(v for (v,) in m.window.pts)) == 0
    if isinstance(m, Localized):
        return _power_support(x.value.denominator, m.prime)
    if isinstance(m, UnionShift):
        if m.mode == UNION:
            return is_squarefree(x.value.denominator)
        return _power_support(x.value.denominator, m.tail.prime)
    raise UnsupportedFamily(f"no difference-group procedure for {m.family}")


# ---------------------------------------------------------------------------
# bounded member enumeration (for probes)


def members_within(m: MonoidDescriptor, bound) -> tuple[Element, ...]:
    """All members below the bound, for the families where that set is
    finite and membership below the bound is exact.

    For value-ordered families the bound is a number; for lex families it
    is a coordinate box (b_1, ..., b_k) and "below" means |coord_i| <= b_i.
    The members are the points of ``_member_points``, in ascending order.
    """
    pts, den = _member_points(m, bound)
    return tuple(_point_element(m.group, p, den) for p in pts)


def _member_points(m: MonoidDescriptor, bound) -> tuple[list[tuple], int]:
    """(points, den): the members below the bound as int tuples in
    ascending order, with zero.  A point p stands for the value p[0] / den
    (Q) or for the coordinates p in priority order (lex, den = 1).

    A finitely generated monoid over Q reaches its members in one bitset
    over the multiples of 1/den (``_reach_bits``), from its encoded
    window's ints over den;
    a lex family filters its box, enumerated in priority order, by the
    threshold or the cone rule.
    """
    if isinstance(m, FiniteGenerated) and m.group.kind == "Q":
        if isinstance(bound, (tuple, list)):
            raise ValueError(f"a value-ordered family takes a number bound, not the box {bound}")
        limit = Fraction(bound)
        if limit < 0:
            raise ValueError(f"negative bound {limit}")
        den = m.window.den
        top = int(limit * den)
        reach = f"{_reach_bits([g for (g,) in m.window.pts], top):0{top + 1}b}"[::-1]
        return [(v,) for v, bit in enumerate(reach) if bit == "1"], den
    if isinstance(m, Conductive) and m.group.kind == "lex":
        a = tuple(m.threshold.value[i] for i in m.group.priority_order)
        return [p for p in _box_points(m.group, bound) if p >= a or not any(p)], 1
    if isinstance(m, LexCone) and not m.lex_group.rational_coords:
        pts = _box_points(m.lex_group, bound)
        if m.rule == FULL_CONE:
            return [p for p in pts if p >= (0,) * m.lex_group.rank], 1
        return [p for p in pts if p[0] > 0 or not any(p)], 1
    raise UnsupportedFamily(
        f"member enumeration below a bound is not exact/finite for {m.family}"
    )


def _reach_bits(codes, top: int) -> int:
    """The int whose bit v is set exactly when v <= top is a sum of the
    positive codes, repetition allowed.  Per code a, shifting by a, 2a,
    4a, ... while the shift is at most top adds every multiple of a up to
    top to what is already reached."""
    mask = (2 << top) - 1
    reach = 1
    for a in codes:
        while a <= top:
            reach |= reach << a & mask
            a <<= 1
    return reach


def _point_element(group: Group, p: tuple, den: int) -> GroupElement:
    """The element that a point of ``_member_points`` stands for."""
    if group.kind == "Q":
        return rational(Fraction(p[0], den))
    coords = [0] * group.rank
    for i, c in zip(group.priority_order, p):
        coords[i] = c
    return GroupElement(group, tuple(coords))


def _box_points(group: Group, bound):
    """The integer points of the box in priority order, ascending."""
    box = _normalize_box(group, bound)
    return product(*(range(-box[i], box[i] + 1) for i in group.priority_order))


def _normalize_box(group: Group, bound) -> tuple[int, ...]:
    if isinstance(bound, (tuple, list)):
        box = tuple(int(b) for b in bound)
    else:
        box = (int(bound),) * group.rank
    if len(box) != group.rank:
        raise ValueError("box rank mismatch")
    if min(box, default=0) < 0:
        raise ValueError(f"negative box entry in {box}")
    return box
