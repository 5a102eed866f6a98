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
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, product
from math import ceil, floor, gcd, lcm
from typing import Iterator, Optional

# numerical is not used here; the benchmark workloads build their monoids
# through posmon.monoids
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
    """m's depth-``depth`` window (``_window``): a deterministic finite
    generator list, monotone in depth, that holds the atoms listed there."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _window_cached(m, depth)


@lru_cache(maxsize=16)  # only generators() reads it, and a lex window is a whole box
def _window_cached(m: MonoidDescriptor, depth: int) -> GeneratorWindow:
    gens = tuple(_window(m, depth))
    if any(g.is_zero if isinstance(g, ProductElement) else not g.is_positive for g in gens):
        raise AssertionError("window produced a non-positive generator")
    return GeneratorWindow(m, depth, gens)


def _window(m: MonoidDescriptor, depth: int) -> Iterator[Element]:
    """The depth-d window of m, lazily and in a fixed order: the one that
    ``generators()`` lists and ``factor._atom_rule`` filters for the atom
    candidates.  M_(a,b)[q]'s is M_q's, then the first d s in S with their
    two sqrt atoms (phi by position), each element once."""
    if isinstance(m, FiniteGenerated):
        return iter(dict.fromkeys(m.generators))
    if isinstance(m, GeometricPuiseux):
        return (rational(m.q**i) for i in range(depth + 1))
    if isinstance(m, PrimeReciprocal):
        return (rational(Fraction(1, p)) for p in first_primes(depth))
    if isinstance(m, Conductive) and m.group.kind == "Q":
        x = m.threshold.value
        return map(rational, sorted({x + Fraction(i, j) for j in range(1, depth + 1) for i in range(depth * j + 1)}))
    if isinstance(m, (Conductive, LexCone)) and m.group.kind == "lex":
        pts, den = _lex_window(m, depth)
        return (_point_element(m.group, p, den) for p in pts)
    if isinstance(m, Localized):
        lo, hi, den = _ray_grid(m, depth)
        return (rational(Fraction(k, den)) for k in range(lo, hi + 1))
    if isinstance(m, Product):
        lzero, rzero = _zero_of(m.left), _zero_of(m.right)
        return chain((ProductElement(g, rzero) for g in _window(m.left, depth)),
                     (ProductElement(lzero, h) for h in _window(m.right, depth)))
    if isinstance(m, UnionShift):
        tail = _group_tail_window(m, depth) if m.mode == UNION else _window(m.tail, depth)
        return chain(_window(m.base, depth), tail)
    if isinstance(m, AlphaBeta):
        powers = (triple(g.value, 0, 0) for g in _window(GeometricPuiseux(m.q), depth))
        parts = ((triple(s, 0, 0), alphabeta_atom(s, p, "alpha"), alphabeta_atom(s, p, "beta"))
                 for s, p in zip(alphabeta_domain(m.q, depth), first_primes(depth)))
        return iter(dict.fromkeys(chain(powers, (g for part in parts for g in part if not g.is_zero))))
    if isinstance(m, NearlyAtomicAlpha):
        parts = ((triple(x, 0, 0), nearly_atom(x, p)) for x, p in zip(calkin_wilf(depth), first_primes(depth)))
        return (g for part in parts for g in part if not g.is_zero)
    raise UnsupportedFamily(f"no generator window for {m.family} over {m.group.token}")


def _zero_of(m: MonoidDescriptor) -> Element:
    if isinstance(m, Product):
        return ProductElement(_zero_of(m.left), _zero_of(m.right))
    return zero(m.group)


def _lex_window(m, depth: int) -> tuple[Iterator[tuple], int]:
    """(points, den): the depth-d window of a lex conductive monoid or
    cone, ascending int points over den in priority order.  A cone's are
    its nonzero members in the box |coord| <= depth.  A conductive
    monoid's are its conductor a, then the box's points above a; over Z^n
    a conductor with leading coordinates 0 puts the whole ladder
    [a, 2a) = a + t * e_last first instead, then the box's points at or
    above 2a.  The box is read from its first point at or above the start
    (``_lex_from``), so a far conductor costs no scan."""
    g = m.group
    grids, den = _lex_box(g, (depth,) * g.rank)
    a = _lex_start(m, den)
    if isinstance(m, LexCone):
        return _lex_from(grids, a), den
    if not g.rational_coords and not any(a[:-1]):
        ladder = [a[:-1] + (a[-1] + t,) for t in range(a[-1])]
        return chain(ladder, _lex_from(grids, tuple(2 * c for c in a))), den
    return chain((a,), (p for p in _lex_from(grids, a) if p != a)), den


def _lex_start(m, den: int) -> tuple:
    """The least nonzero member of a lex conductive monoid (its conductor)
    as a point over den, or the least nonzero int point of a cone, 1 in
    its leading (first-positive) or last (full) priority coordinate."""
    if isinstance(m, Conductive):
        return _priority_point(m.threshold, den)
    return (1,) if m.rule == FIRST_POSITIVE else (0,) * (m.lex_group.rank - 1) + (1,)


def _lex_from(grids: tuple, start: tuple) -> Iterator[tuple]:
    """The points of product(*grids) at or above start, ascending; a start
    shorter than the grids bounds only the leading coordinates.  The rows
    below start are skipped by bisection, not visited."""
    if not start:
        return product(*grids)
    head, rest = grids[0], grids[1:]
    i = bisect_left(head, start[0])
    if i < len(head) and head[i] == start[0]:
        row = ((head[i],) + p for p in _lex_from(rest, start[1:]))
        return chain(row, product(head[i + 1:], *rest))
    return product(head[i:], *rest)


def _priority_point(x: GroupElement, den: int = 1) -> tuple:
    """x's coordinates in priority order times den, ints where whole: the
    point over den that ``_point_element`` turns back into x."""
    pt = tuple(x.value[i] * den for i in x.group.priority_order)
    if x.group.rational_coords:
        pt = tuple(c.numerator if c.denominator == 1 else c for c in pt)
    return pt


@lru_cache(maxsize=256)
def _lex_box(group: Group, box: tuple[int, ...]) -> tuple[tuple, int]:
    """(grids, den): the ascending coordinate grids, ints over den in
    priority order, of the box |coord_i| <= box[i], whose product lists its
    points ascending (the cache holds no points): range(-b, b + 1) over Z,
    and over Q the fractions in [-b, b] of denominator at most min(b, 5)."""
    if not group.rational_coords:
        return tuple(range(-box[i], box[i] + 1) for i in group.priority_order), 1
    caps = [max(min(b, 5), 1) for b in box]
    den = lcm(*range(1, max(caps) + 1))
    grids = tuple(
        tuple(k for k in range(-box[i] * den, box[i] * den + 1) if den // gcd(k, den) <= caps[i])
        for i in group.priority_order
    )
    return grids, den


def _ray_grid(m: Localized, depth: int) -> tuple[int, int, int]:
    """(lo, hi, den): the ray's window is the k/den for lo <= k <= hi, the
    positive multiples of 1/den in [threshold, threshold + depth], where
    den = p^min(depth, the cap); the cap keeps windows desk-sized."""
    den = m.prime ** min(depth, RAY_EXPONENT_CAP)
    return max(1, ceil(m.min_nonzero * den)), floor((m.min_nonzero + depth) * den), den


def _group_tail_window(m: UnionShift, depth: int) -> Iterator[GroupElement]:
    """Sample of gp(M_0)_{>= threshold}, ascending: the threshold itself
    when its denominator is squarefree, and the values with denominator 1
    or one of the first depth primes in [threshold, threshold + min(depth, 4)]."""
    lo, hi = m.threshold, m.threshold + min(depth, 4)
    out = {lo} if is_squarefree(lo.denominator) else set()
    for den in (1, *first_primes(depth)):
        for num in range(lo.numerator * den // lo.denominator, hi.numerator * den // hi.denominator + 1):
            v = Fraction(num, den)
            if lo <= v <= hi:
                out.add(v)
    return map(rational, sorted(out))


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
        held = x.is_positive if m.rule == FULL_CONE else x.value[m.lex_group.priority] > 0
        return verdict_in(((x, 1),)) if held else VERDICT_OUT
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
    # the identity test first: most queries pass m's own group object, and
    # the dataclass __eq__ compares field by field
    if not isinstance(x, GroupElement) or x.group is not m.group and x.group != m.group:
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
    window's ints over den; a lex family over Z^n filters its box
    (``_lex_box``) by the threshold or the cone rule.
    """
    if isinstance(m, FiniteGenerated) and m.group.kind == "Q":
        den = m.window.den
        top = int(_value_bound(bound) * den)
        reach = f"{_reach_bits([g for (g,) in m.window.pts], top):0{top + 1}b}"[::-1]
        return [(v,) for v, bit in enumerate(reach) if bit == "1"], den
    if isinstance(m, (Conductive, LexCone)) and m.group.kind == "lex" and not m.group.rational_coords:
        grids, _ = _lex_box(m.group, _normalize_box(m.group, bound))
        return [(0,) * m.group.rank, *_lex_from(grids, _lex_start(m, 1))], 1
    raise UnsupportedFamily(
        f"member enumeration below a bound is not exact/finite for {m.family}"
    )


def _value_bound(bound) -> Fraction:
    """A value-ordered family's probe bound, checked: a number, at least 0."""
    if isinstance(bound, (tuple, list)):
        raise ValueError(f"a value-ordered family takes a number bound, not the box {bound}")
    limit = Fraction(bound)
    if limit < 0:
        raise ValueError(f"negative bound {limit}")
    return limit


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
    """The element that an int point over den stands for: the value
    p[0] / den (Q), or the coordinates p / den in priority order (lex)."""
    if group.kind == "Q":
        return rational(Fraction(p[0], den))
    coords = [0] * group.rank
    for i, c in zip(group.priority_order, p):
        coords[i] = c if den == 1 else Fraction(c, den)
    return GroupElement(group, tuple(coords))


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
