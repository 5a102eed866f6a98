"""Atom computation, factorization enumeration Z(b), length sets L(b), and
bounded property probes.

Factorizations are enumerated over the atom window, encoded once per atom
list as a ``search.Window`` on the object that owns the list
(``AtomSet.window``, ``FiniteGenerated.window``).  ``posmon/search.py``
holds the window, its three integer loops (scalar, plane, vector) and
``search._enumerate``, which is the only way into them: factorizations,
length sets, atomicity witnesses, the atoms of finitely generated monoids
and their membership all go through it.  Every search emits in
lexicographic order of the multiplicity vector over the descending atoms,
so reports are reproducible.  A finitely generated monoid is atomic with a
complete atom list, so there the enumeration itself decides membership
(an empty one raises NotAMember).

``factorizations``, ``length_set`` and ``is_atomic_element`` differ only
in how they shape the answer: all three enter the search through
``_search``, which checks membership, answers zero with its empty
factorization, takes the atom window and enumerates over it.  Every
search result carries explicit ``complete`` / ``truncated`` flags;
lengths reported under truncation are a subset of the true length set.
``complete`` means the atom window is all of A(M) and max_count did not
cut the search, so an empty window is complete exactly on an antimatter
monoid, where a nonzero member has no factorization.  Where a family has
a proved length function (``_length_function``), ``length_set`` and
``is_atomic_element`` answer from it after the membership check, with no
search and ``complete`` set: every factorization of b has length l(b).

Each family has one exact atom rule (``_atom_rule``): its candidates,
which are the family's window (``monoids._window``, the one that
``generators()`` lists) filtered by its atom interval, and whether
t = g + (nonzero member) for a window generator g, decided without
scanning the window through ``contains``.

Property probes are decided by bitsets over a mixed-radix integer code of
the atom set's window, Python ints grown geometrically up to the first
failing member (``_codes``, ``_probe_bits``).  The members come as int
points from ``monoids._member_points``; only a witness becomes an element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache, partial
from itertools import takewhile
from math import ceil, lcm
from typing import Callable, NamedTuple, Optional

from .descriptors import (
    AlphaBeta,
    Conductive,
    Element,
    FiniteGenerated,
    FIRST_POSITIVE,
    FULL_CONE,
    GeometricPuiseux,
    LexCone,
    Localized,
    MonoidDescriptor,
    NearlyAtomicAlpha,
    NotAMember,
    PrimeReciprocal,
    UNION,
    UnionShift,
    UnsupportedFamily,
)
from .elements import _SQRT2_64, _SQRT3_64, GroupElement, _int_triple_sign, rational, triple
from .jsonforms import element_to_json
from .monoids import (
    DEFAULT_DEPTH,
    _group_tail_window,
    _m0_solve,
    _member_points,
    _mq_solve,
    _point_element,
    _power_support,
    _priority_point,
    _ray_grid,
    _reach_bits,
    _two_ray_contains,
    _window,
    _zero_of,
    check_query,
    contains,
    members_within,
)
from .primes import first_primes
from .search import Window, _enumerate, _pairs

DEFAULT_MAX_COUNT = 10_000

PROBEABLE = ("ATM", "BFM", "FFM", "HFM", "LFM", "UFM")


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class AtomSet:
    """Atoms of a monoid found at a window depth.

    ``complete`` means the listed atoms are all of A(M).  Every listed
    atom has passed its family's split rule (``_atom_rule``), decided in
    closed form or by one enumeration over a finitely generated monoid's
    generators; no rule scans the window through ``contains``.
    """

    descriptor: MonoidDescriptor
    depth: int
    atoms: tuple[GroupElement, ...]
    complete: bool
    note: Optional[str] = None
    _window = None

    @property
    def window(self) -> Optional["Window"]:
        """The encoded window of the atoms (None when there are none); a
        finitely generated monoid whose atoms are its distinct generators
        shares its own."""
        if self._window is None and self.atoms:
            m, desc = self.descriptor, self.atoms[::-1]
            shared = isinstance(m, FiniteGenerated) and m.window.atoms == desc
            object.__setattr__(self, "_window", m.window if shared else Window(desc))
        return self._window


@dataclass(frozen=True)
class Factorization:
    """A multiset of atoms with multiplicities; sum(mult*atom) == value."""

    pairs: tuple[tuple[GroupElement, int], ...]  # descending atoms, mult > 0
    value: Element

    @property
    def length(self) -> int:
        return sum(c for _, c in self.pairs)

    def to_json(self) -> dict:
        return {
            "value": element_to_json(self.value),
            "atoms": [element_to_json(a) for a, _ in self.pairs],
            "mults": [c for _, c in self.pairs],
            "length": self.length,
        }

    def __str__(self) -> str:
        if not self.pairs:
            return "[]"
        return " + ".join(f"{c}*[{a}]" for a, c in self.pairs)


@dataclass(frozen=True)
class FactorizationSearch:
    """All factorizations found for one element, with search metadata."""

    descriptor: MonoidDescriptor
    value: Element
    factorizations: tuple[Factorization, ...]
    complete: bool
    truncated: bool
    note: Optional[str] = None

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({f.length for f in self.factorizations}))


@dataclass(frozen=True)
class LengthSet:
    value: Element
    lengths: tuple[int, ...]
    complete: bool


@dataclass(frozen=True)
class AtomicityWitness:
    status: str  # "yes", "no", "unknown"
    factorization: Optional[Factorization] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class ProbeResult:
    descriptor: MonoidDescriptor
    property: str
    bound: object
    verdict: str  # "consistent", "refuted", "inconclusive"
    witness: Optional[dict] = None
    members_checked: int = 0
    note: Optional[str] = None

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


# ---------------------------------------------------------------------------
# atoms


def atoms(m: MonoidDescriptor, depth: int = DEFAULT_DEPTH) -> AtomSet:
    """The atom window of m at the given depth (at least 1).

    A family with a closed form lists it intersected with the window and
    re-verifies every listed atom by its split rule (``_atom_rule``); a
    failed re-verification raises.  The others keep the candidates that do
    not split.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _atoms_cached(m, depth)


@lru_cache(maxsize=4096)
def _atoms_cached(m: MonoidDescriptor, depth: int) -> AtomSet:
    rule = _atom_rule(m, depth)
    out = []
    for t in rule.candidates:
        if not rule.splits(t):
            out.append(t)
        elif rule.mode == "assert":
            raise AssertionError(f"closed-form atom {t} of {m} failed its decomposition check")
    if out and out[0].group.kind == "sqrt23":
        out = _sorted_triples(out)
    else:
        out.sort()
    return AtomSet(m, depth, tuple(out), rule.complete, rule.note)


def _sorted_triples(elements: list[GroupElement]) -> list[GroupElement]:
    """sqrt2/sqrt3 elements in increasing order, compared as int triples.

    Each element becomes (a, b, c, den), its value (a + b sqrt2 + c
    sqrt3)/den.  A first pass by an int estimate of value * 2^64 puts all
    but near ties in place, so the exact pass (``_int_triple_sign`` of the
    cross-multiplied triples) makes about one comparison per element.
    Comparing the Fraction triples would subtract three Fractions each time.
    """
    def ints(g: GroupElement) -> tuple[int, int, int, int]:
        c0, c1, c2 = g.value
        den = lcm(c0.denominator, c1.denominator, c2.denominator)
        return (c0.numerator * (den // c0.denominator), c1.numerator * (den // c1.denominator),
                c2.numerator * (den // c2.denominator), den)

    def approx(key: tuple[tuple[int, int, int, int], GroupElement]) -> int:
        a, b, c, den = key[0]
        return ((a << 64) + b * _SQRT2_64 + c * _SQRT3_64) // den

    def exact(x, y) -> int:
        (a, b, c, d), (e, f, g, h) = x[0], y[0]
        return _int_triple_sign(a * h - e * d, b * h - f * d, c * h - g * d)

    keyed = sorted(((ints(g), g) for g in elements), key=approx)
    keyed.sort(key=cmp_to_key(exact))
    return [g for _, g in keyed]


class AtomRule(NamedTuple):
    """``splits(t)``: some window generator g leaves t - g a nonzero
    member, decided exactly on every candidate (and, for most families,
    off them too).  Mode "assert" raises on a candidate that splits,
    "filter" drops it."""

    candidates: list
    splits: Callable[[GroupElement], bool]
    complete: bool
    note: Optional[str]
    mode: str


def _atom_rule(m: MonoidDescriptor, depth: int) -> AtomRule:
    """The candidates, split rule, flags and mode of m's atoms at depth.

    The candidates are m's depth-d window (``monoids._window``) filtered by
    the family's atom interval: all of it (finitely generated, M_q, M_0),
    M_0's part and a threshold outside M_0 (the union with the group's
    tail), [a, 2a) (conductive), the least element or priority coordinate
    1 (lex cones over Z^n), below 2 t0 (a ray), the rays above a positive
    threshold (two rays), or the irrational elements and powers of q.

    A finitely generated monoid, over any group, splits t exactly when t
    has a factorization of length 2 or more over its distinct generators.
    The only other one is t itself, which comes last in the enumeration
    order (it alone is nonzero at t), so the first solution decides.

    M_q and M_0 split t exactly when its canonical representation
    (``_mq_solve``, ``_m0_solve``) exists, has length 2 or more, and has
    its largest term in the window: index at most depth, or a prime among
    the first depth.  Removing one copy of that term leaves a nonzero
    member.  Conversely, t = g + (nonzero member) has a representation of
    length 2 or more through g, and the trades that canonicalise it
    (d q^(i+1) = n q^i with n >= 2, and p (1/p) = 2 (1/2)) only move
    weight to larger terms and never bring a length of 2 or more below 2.
    M_0 with its group's tail above a threshold splits t at or below the
    threshold, where every candidate lies, by M_0's rule: a tail generator
    leaves t - g <= 0, and below the threshold the members are M_0's.  A
    threshold outside M_0 is an atom: t - 1/p < t is no member of M_0, and
    the tail starts at t.

    Where the nonzero members form an up-set, t splits exactly when it
    does against the least window generator:

    - conductive: the window starts at a, so t splits when t >= 2a;
    - ray Z[1/p] above t0: the window starts at w (``monoids._ray_grid``),
      so t splits when it lies in Z[1/p], t - w >= t0 and t > w; the atoms
      are the window below 2 t0, none when t0 = 0 (every member halves);
    - lex cones: the least generator is the step s (1, or over rational
      coordinates 1/min(depth, 5), the least positive value of the
      window's coordinate grid) in the last priority coordinate, so t splits above it (full cone) or
      when its priority coordinate exceeds s (first-positive cone).  Over
      Z^n the first-positive cone's atoms, the members with priority
      coordinate 1, also give it a proved length function
      (``_length_function``, below).

    ``_two_ray_split`` decides the monoid generated by two rays; when both
    start at 0 it is antimatter.

    The two irrational constructions split no irrational candidate, so
    their rule is exact on the candidate lists.  Let t = x + y with x, y
    members and t's sqrt2 (or sqrt3) coefficient 1/p, p = phi(s) the prime
    of its atom.  That coefficient of x + y is a sum of k_j / p_j,
    k_j >= 0, over distinct primes p_j (phi is injective); times the
    product of p and the p_j, read modulo a p_j other than p, it gives
    p_j | k_j, and then k_j / p_j >= 1 > 1/p unless k_j = 0.  So x + y
    holds one copy of the p-atom, which is t, and no other irrational atom
    (the other coefficient is 0); the positive rational generators left
    sum to 0, so there are none, and x or y is 0.  A rational member of
    ``AlphaBeta`` is a sum of rational generators (irrational coefficients
    cannot cancel), so it splits as in M_q, whose atoms q^i (canonical
    form one term of coefficient 1) are the rational candidates; a
    rational member of ``NearlyAtomicAlpha`` splits in halves.
    """
    if isinstance(m, FiniteGenerated):
        win = m.window
        splits = lambda t: any(n >= 2 for n in _enumerate(win, t, 1, lengths_only=True)[0])
        # the window's distinct generators, which m.window holds descending
        return AtomRule(win.atoms[::-1], splits, True, None, "filter")
    if isinstance(m, GeometricPuiseux):
        splits = _canonical_split(partial(_mq_solve, m.q), depth)
        return AtomRule(list(_window(m, depth)), splits, False, "atoms are the powers of the ratio", "assert")
    if isinstance(m, PrimeReciprocal) or isinstance(m, UnionShift) and m.mode == UNION:
        cands = list(_window(m if isinstance(m, PrimeReciprocal) else m.base, depth))
        note = "atoms are the prime reciprocals"
        if isinstance(m, UnionShift):
            note += " of the base"
            # the tail window is ascending from the threshold, when it holds it
            at = takewhile(lambda g: g.value == m.threshold, _group_tail_window(m, depth))
            outside = [g for g in at if _m0_solve(g.value) is None]
            if outside:
                cands += outside
                note += " and the threshold"
        return AtomRule(cands, _canonical_split(_m0_solve, first_primes(depth)[-1]), False, note, "assert")
    if isinstance(m, Conductive):
        a, g = m.threshold, m.group
        two_a = a + a
        splits = lambda t: t >= two_a
        if g.kind not in ("Q", "lex"):
            raise UnsupportedFamily("conductive atoms are materialized for Q and lex groups")
        cands = list(takewhile(lambda t: t < two_a, _window(m, depth)))
        if g.kind == "Q":
            return AtomRule(cands, splits, False, "interval [a, 2a) sampled on the window grid", "assert")
        # the window holds the whole interval when it is the finite ladder a + t * e_last
        ladder = not any(_priority_point(a)[:-1]) and not g.rational_coords
        return AtomRule(cands, splits, ladder, None if ladder else "interval [a, 2a) meets the window box", "assert")
    if isinstance(m, LexCone):
        g = m.lex_group
        step = Fraction(1, min(depth, 5)) if g.rational_coords else 1
        least = _point_element(g, (0,) * (g.rank - 1) + (step,), 1)
        if m.rule == FULL_CONE:
            splits = lambda t: t > least
        else:
            splits = lambda t: t.value[g.priority] > step
        if g.rational_coords:
            return AtomRule([], splits, True, "antimatter: every member halves", "assert")
        if m.rule == FULL_CONE:
            # the window's least element
            return AtomRule([least], splits, True, None, "assert")
        cands = list(takewhile(lambda t: t.value[g.priority] == 1, _window(m, depth)))
        return AtomRule(cands, splits, False, "atoms have leading coordinate 1", "assert")
    if isinstance(m, Localized):
        p, t0 = m.prime, m.min_nonzero
        lo, hi, den = _ray_grid(m, depth)
        w = Fraction(lo, den)
        splits = lambda t: _power_support(t.value.denominator, p) and t.value - w >= t0 and t.value > w
        if t0 == 0:
            return AtomRule([], splits, True, "antimatter: every member halves", "assert")
        cands = list(takewhile(lambda t: t.value < 2 * t0, _window(m, depth)))
        return AtomRule(cands, splits, False, "atoms fill [t, 2t) in the ray", "assert")
    if isinstance(m, UnionShift):
        splits = _two_ray_split(m, depth)
        if m.base.min_nonzero == 0 == m.tail.min_nonzero:
            # x = u + v with u > 0 in the p-ray is u/p + ((p-1)u/p + v),
            # and x = v in the p'-ray is v/p' + (p'-1)v/p'
            return AtomRule([], splits, True, "antimatter: every member splits off a p-th part", "assert")
        # a ray at threshold 0 adds no atom, as every member is p copies of
        # its 1/p-th part
        cands = {g for ray in (m.base, m.tail) if ray.min_nonzero > 0 for g in _window(ray, depth)}
        return AtomRule(sorted(cands), splits, False, None, "filter")
    if isinstance(m, AlphaBeta):
        mq_split = _canonical_split(partial(_mq_solve, m.q), depth)
        splits = lambda t: not any(t.value[1:]) and mq_split(rational(t.value[0]))
        # the window's powers of q, then its irrational elements
        powers = [triple(g.value, 0, 0) for g in _window(GeometricPuiseux(m.q), depth)]
        cands = powers + [t for t in _window(m, depth) if any(t.value[1:])]
        return AtomRule(cands, splits, False, "ratio powers plus the two sqrt directions", "assert")
    if isinstance(m, NearlyAtomicAlpha):
        cands = [t for t in _window(m, depth) if t.value[1]]
        note = "atoms are the (sqrt2 + q)/phi(q); rational members are not atoms"
        return AtomRule(cands, lambda t: not t.value[1], False, note, "assert")
    raise UnsupportedFamily(f"no atom procedure for {m.family}")


class LengthFunction(NamedTuple):
    """A proved length function l: gp(M) -> Z of a monoid M whose nonzero
    members are all atomic: l is a homomorphism that is 1 on every atom, so
    every factorization of a member b has length l(b), and L(b) = {l(b)}
    (the length-function criterion for half-factoriality; A. Geroldinger
    and F. Halter-Koch, *Non-Unique Factorizations*, 2006, ch. 1), and
    ``factorization(b)`` is one of them, found with no search."""

    length: Callable[[GroupElement], int]
    factorization: Callable[[GroupElement], "Factorization"]


def _length_function(m: MonoidDescriptor) -> Optional[LengthFunction]:
    """m's proved length function, or None.

    The first-positive lex cone M = {0} u {v : v_p > 0} over Z^n, for any
    rank n and priority coordinate p, has l(v) = v_p with unit e_p.  A
    member with v_p = 1 is an atom: two nonzero members have priority
    coordinates of at least 1 each, so their sum has at least 2.  A
    member with v_p = x >= 2 is not: it is e_p + (v - e_p), and v - e_p
    has priority coordinate x - 1 >= 1.  So the atoms are the members with
    v_p = 1, l is 1 on each of them, and a member with v_p = x is the sum
    of the x atoms (x - 1) e_p and v - (x - 1) e_p.  This is ``_atom_rule``'s
    "atoms have leading coordinate 1" for every depth at once.

    The other cones keep their search: over rational coordinates the cone
    is antimatter, and in rank 2 and up the full cone's one atom e_last
    does not reach e_p, so not every member is atomic.
    """
    if isinstance(m, LexCone) and m.rule == FIRST_POSITIVE and not m.lex_group.rational_coords:
        return _cone_length(m.lex_group)
    return None


@lru_cache(maxsize=None)  # one per integer lex group, of which there are few
def _cone_length(g) -> LengthFunction:
    p, others = g.priority, g.priority_order[1:]
    unit = _point_element(g, (1,) + (0,) * (g.rank - 1), 1)

    def factorization(b: GroupElement) -> Factorization:
        """(x - 1) * e_p + (b - (x - 1) * e_p), x = b_p, atoms descending: the
        second is b with b_p = 1, above e_p when its next nonzero is positive."""
        v = b.value
        x = v[p]
        if not x:
            return Factorization((), b)
        sign = next((v[i] for i in others if v[i]), 0)
        if not sign:
            return Factorization(((unit, x),), b)
        rest = GroupElement(g, v[:p] + (1,) + v[p + 1:])
        pairs = ((rest, 1), (unit, x - 1)) if sign > 0 else ((unit, x - 1), (rest, 1))
        return Factorization(tuple(pair for pair in pairs if pair[1]), b)

    return LengthFunction(lambda v: v.value[p], factorization)


def _canonical_split(solve, top):
    """The M_q / M_0 split rule; both solvers list the largest term first."""
    return lambda t: (sol := solve(t.value)) is not None and sum(c for _, c in sol) >= 2 and sol[0][0] <= top


def _two_ray_split(m: UnionShift, depth: int):
    """The split rule of the monoid generated by two rays (p, t) and
    (p', t'): v splits when v - h is a nonzero member
    (``monoids._two_ray_contains``) for one of the window generators w and
    w', the least elements of the two rays' windows, or n0 = max(ceil(t'),
    1) and n0' = max(ceil(t), 1), the two integer generators.

    These suffice.  Take v = h + x in Z[1/p] (Z[1/p'] is symmetric, with
    w' and n0'), h a window generator and x a nonzero member.  The members
    in Z[1/p] are 0, the x >= t and the integers >= n0, as x = u + v' with
    u, v' in the p- and p'-ray leaves v' in Z[1/p] and Z[1/p'], so in Z.
    - h in Z[1/p], so h >= w or h >= n0, and x in Z[1/p]: if x >= t, v - w
      or v - n0 is at least x; if x >= n0 is an integer, v - n0 = x + h -
      n0 when h >= n0 is an integer, else v - n0 >= h >= t.
    - h in Z[1/p'], not in Z: h >= w', and n = h + v' = v - u is an
      integer, so v' is nonzero.  If u = 0, v = n and v - w' >= v' >= t'.
      Otherwise n > v' >= t', so n >= n0 and v - n0 >= u >= t.
    """
    hs = set()
    for ray in (m.base, m.tail):
        lo, _, den = _ray_grid(ray, depth)
        hs |= {Fraction(lo, den), Fraction(max(ceil(ray.min_nonzero), 1))}
    hs = sorted(hs)
    return lambda t: any(t.value > h and _two_ray_contains(m.base, m.tail, t.value - h).is_in
                         for h in hs)


# ---------------------------------------------------------------------------
# factorization enumeration


def factorizations(
    m: MonoidDescriptor,
    b: Element,
    depth: int = DEFAULT_DEPTH,
    max_count: int = DEFAULT_MAX_COUNT,
) -> FactorizationSearch:
    """Enumerate Z(b) over the atom window at the given depth."""
    desc, counts, truncated, complete = _search(m, b, depth, max_count)
    facts = tuple(Factorization(_pairs(desc, vec), b) for vec in counts)
    note = None if desc or facts else "NotAtomicFamily: no atoms in this family"
    return FactorizationSearch(m, b, facts, complete, truncated, note)


def length_set(
    m: MonoidDescriptor, b: Element, depth: int = DEFAULT_DEPTH,
    max_count: int = DEFAULT_MAX_COUNT,
) -> LengthSet:
    """The set of factorization lengths of b found at the window depth,
    from the first max_count factorizations in enumeration order.

    Where m has a proved length function (``_length_function``) the answer
    is {l(b)}, complete, after the membership check, with no search.
    Otherwise no factorization is materialized: the scalar and vector loops
    emit lengths only, and a plane window (rank 2, every atom's leading
    coordinate at least 1) keeps each search node's lengths as a bitmask
    (``search._plane_walk``).  ``complete`` is False when max_count cut the
    search or the atom window is not all of A(M)."""
    ell = _proved_length(m, b, depth)
    if ell is not None:
        return LengthSet(b, (ell.length(b),), True)
    _, lens, _, complete = _search(m, b, depth, max_count, lengths_only=True)
    return LengthSet(b, tuple(sorted(set(lens))), complete)


def is_atomic_element(
    m: MonoidDescriptor, b: Element, depth: int = DEFAULT_DEPTH
) -> AtomicityWitness:
    """Yes with a witness factorization; No only when the search space is
    provably exhausted; Unknown otherwise.  Where m has a proved length
    function every member is atomic, and the witness is its factorization
    (``LengthFunction.factorization``), found with no search."""
    ell = _proved_length(m, b, depth)
    if ell is not None:
        return AtomicityWitness("yes", ell.factorization(b))
    desc, counts, _, complete = _search(m, b, depth, 1)
    if counts:
        return AtomicityWitness("yes", Factorization(_pairs(desc, counts[0]), b))
    if complete:
        return AtomicityWitness(
            "no", note="atom window is exhaustive below the element; search exhausted"
        )
    return AtomicityWitness("unknown", note="no factorization within the window")


def _proved_length(m: MonoidDescriptor, b: Element, depth: int) -> Optional[LengthFunction]:
    """m's proved length function (``_length_function``) once the query
    has passed the checks a search would make (a depth of at least 1, b a
    member), or None when m has none."""
    ell = _length_function(m)
    if ell is not None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        _check_member(m, b, depth)
    return ell


def _check_member(m: MonoidDescriptor, b: Element, depth: int) -> None:
    """Raise unless b is a member of m (``contains``; for a finitely
    generated monoid only ``check_query``, as its search decides the rest)."""
    if isinstance(m, FiniteGenerated):
        check_query(m, b)
    elif contains(m, b, depth).is_out:
        raise NotAMember(f"{b} is not a member of {m}")


def _search(
    m: MonoidDescriptor, b: Element, depth: int, max_count: int, lengths_only: bool = False
):
    """(descending atoms, solutions, truncated, complete) for b over the
    encoded atom window of m at depth (``AtomSet.window``, built once per
    atom set): the one way a query enters the search.

    b must be a member: a finitely generated monoid is atomic with a
    complete atom list, so there the enumeration decides membership (an
    empty one raises NotAMember); elsewhere ``contains`` does.  A complete
    atom list alone does not suffice: (1, 0) lies in the conductive
    monoid of Z^2 at (0, 2), whose atoms are (0, 2) and (0, 3), and has no
    factorization.  Zero has the one empty factorization and needs no
    atoms."""
    _check_member(m, b, depth)
    if b.is_zero:
        return (), [0 if lengths_only else ()], False, True
    atom_set = atoms(m, depth)
    win = atom_set.window
    found, truncated = _enumerate(win, b, max_count, lengths_only) if win else ([], False)
    if not found and isinstance(m, FiniteGenerated):
        raise NotAMember(f"{b} is not a member of {m}")
    return win.atoms if win else (), found, truncated, atom_set.complete and not truncated


# ---------------------------------------------------------------------------
# property probes


def probe_property(
    m: MonoidDescriptor, prop: str, bound, depth: Optional[int] = None
) -> ProbeResult:
    """Bounded check of one atomicity/factorization property over all
    members below the bound (a coordinate box for lex families).

    Consistent means no counterexample exists below the bound; Refuted
    carries a finite witness (two conflicting factorizations, or a member
    provably outside the atomic set).

    The members become int codes over the window (``_codes``), and Python
    ints serve as bitsets over the codes 0..top (``_probe_bits``): the
    codes that atom sums reach, and for HFM, LFM and UFM those with two
    lengths or a repeated length.  The table grows geometrically (top 64,
    128, ... up to the largest member code) and stops at the first failing
    member in member order, so a consistent verdict builds the whole
    table.  With two or more atoms a length-bearing property works
    through one bitset per length, about top^2 / min(atom code) bits of
    work in all, but holds only the previous length's bitsets, a few of
    top bits per atom; ATM, BFM and FFM, and one-atom windows, need only
    the reached bitset.  The members stay int points (``monoids._member_points``);
    only the witness is built as an element.
    """
    if prop not in PROBEABLE:
        raise ValueError(f"unknown property {prop!r}")
    pts, den = _member_points(m, bound)
    members = [p for p in pts if any(p)]
    if depth is None:
        if isinstance(bound, (tuple, list)):
            depth = max(int(x) for x in bound) + 5
        else:
            depth = DEFAULT_DEPTH
    atom_set = atoms(m, depth)
    complete = atom_set.complete
    acodes, mcodes = _codes(atom_set.window, members, den)
    last = max((v for v in mcodes if v is not None), default=0)
    top, reached, bad = 0, "", ""
    for checked, (p, v) in enumerate(zip(members, mcodes), 1):
        if v is not None and v > top:
            # the least of 64, 128, ... at or above v, capped at the last code
            top = min(last, 64 << ((v - 1) // 64).bit_length())
            reached, bad = _probe_bits(acodes, top, prop)
        if v is None or reached[v] == "0":
            b = _point_element(m.group, p, den)
            reason = "no factorization into atoms" if complete else "window search found nothing"
            verdict = "refuted" if complete else "inconclusive"
            return ProbeResult(m, prop, bound, verdict, {"element": b, "reason": reason}, checked)
        if bad[v] == "1":
            b = _point_element(m.group, p, den)
            return ProbeResult(
                m, prop, bound, "refuted",
                {"element": b, "factorizations": _conflict_pair(m, b, depth, prop)},
                checked,
            )
    note = "atom windows incomplete for some members" if members and not complete else None
    return ProbeResult(m, prop, bound, "consistent", None, len(members), note)


def _codes(win, members, den):
    """(atom codes, member codes): positive ints for the atoms of the
    window (None when there are none) and, per member, an int or None,
    such that a multiset of atoms sums to a member exactly when its codes
    sum to the member's code.  None marks a member that no atom sum
    reaches.  The members are int points over den, as
    ``monoids._member_points`` gives them; no member becomes an element.

    The window's int atoms and the members are put over one denominator,
    and the members keep the window's coordinates; a member nonzero on a
    dropped one gets None.  That leaves int points (x, y_1, ..., y_k),
    and every atom must have leading coordinate x >= 1, so every nonempty
    atom sum does too: a member with x < 1 gets None.  Let L be the
    largest x of the members that keep a code.  Per trailing coordinate
    j, with lo_j and hi_j the least and greatest atom ratio y_j/x, let
    ymax_j = max(L*max(hi_j, 0), member y_j),
    ymin_j = min((L+1)*min(lo_j, 0), member y_j) and
    W_j = ymax_j - ymin_j + 1.  The code of a point starts at x and appends
    one digit per trailing coordinate, code = code*W_j + y_j, so it is
    linear and an atom sum's code is the sum of its atoms' codes.

    Injective below L+1: every member, and every atom sum with x <= L
    (whose y_j lies in [x*lo_j, x*hi_j]), has 0 <= x <= L and every y_j in
    [ymin_j, ymax_j].  On those points the digits read back one at a time
    from the last: y_k is the one integer in its window of W_k consecutive
    values that is congruent to the code modulo W_k, and (code - y_k)/W_k
    is the code of (x, y_1, ..., y_(k-1)); the leading x is what remains.

    Nothing at or above L+1: let c_j = W_(j+1)*...*W_k (so c_k = 1 and
    W_j*c_j = c_(j-1)).  An atom sum with leading coordinate x has code at
    least x*K, K = c_0 + sum_j lo_j*c_j.  As (L+1)*lo_j >= ymin_j =
    ymax_j + 1 - W_j, the sum telescopes to
    (L+1)*K >= L*c_0 + sum_j ymax_j*c_j + 1, and no member code exceeds
    L*c_0 + sum_j ymax_j*c_j >= 0.  So K > 0, every atom code is positive,
    and an atom sum with x >= L+1 lies above every member code.  The
    probe bitsets (``_probe_bits``) thus reach a member's code only
    through the partial sums of the atom multisets that sum to the member.
    """
    if win is None:
        return [], [None] * len(members)
    common = lcm(win.den, den)
    apts, s = win.pts, common // den
    if common != win.den:
        apts = [tuple(c * (common // win.den) for c in p) for p in apts]
    if any(p[0] < 1 for p in apts):
        raise AssertionError("a probed atom has leading coordinate below 1")
    if s != 1 or win.dropped:
        keep, drop = win.keep, win.dropped
        members = [None if any(p[k] for k in drop) else tuple(p[k] * s for k in keep) for p in members]
    mpts = [p if p is not None and p[0] >= 1 else None for p in members]
    reached = [p for p in mpts if p is not None]
    lead = max((p[0] for p in reached), default=0)
    acodes = [p[0] for p in apts]
    mcodes = [None if p is None else p[0] for p in mpts]
    for j in range(1, len(apts[0])):
        ys = [p[j] for p in reached]
        ymax = max(0, *(-(-lead * p[j] // p[0]) for p in apts), *ys)
        ymin = min(0, *((lead + 1) * p[j] // p[0] for p in apts), *ys)
        w = ymax - ymin + 1
        acodes = [c * w + p[j] for c, p in zip(acodes, apts)]
        mcodes = [None if p is None else c * w + p[j] for c, p in zip(mcodes, mpts)]
    return acodes, mcodes


def _probe_bits(acodes, top, prop) -> tuple[str, str]:
    """(reached, bad): strings of top + 1 bits, read at index v for code v.
    reached[v] is "1" when an atom sum has code v; bad[v] is "1" when v
    fails prop: two lengths (HFM), a repeated length (LFM) or either, that
    is two factorizations (UFM).

    Length l keeps two bitsets, ge1 and ge2: the codes with at least one
    and at least two factorizations of length l.  Per atom code a, with
    s = ge1[l-1] << a, ge2[l] |= ge2[l-1] << a | ge1[l] & s and
    ge1[l] |= s count the multisets of atoms up to the cap 2.  Running
    the lengths in the outer loop keeps only the previous length, at each
    atom's stage, and layer l is stored shifted right by l * min(a), as
    no atom sum of length l lies below that.  Every atom code is positive
    (``_codes``), so the bits at or below top do not depend on top.
    """
    acodes = sorted(a for a in acodes if a <= top)
    if len(acodes) < 2 or prop not in ("HFM", "LFM", "UFM"):
        reached, bad = _reach_bits(acodes, top), 0
    else:
        lo = acodes[0]
        shifts = [a - lo for a in acodes]
        ge1, ge2 = [1] * len(acodes), [0] * len(acodes)
        reached, two, repeated = 1, 0, 0
        for l in range(1, top // lo + 1):
            mask = (2 << (top - l * lo)) - 1
            one = many = 0
            for j, a in enumerate(shifts):
                s = ge1[j] << a & mask
                many |= ge2[j] << a & mask | one & s
                one |= s
                ge1[j], ge2[j] = one, many
            if not one:
                break
            one <<= l * lo
            two |= reached & one
            reached |= one
            repeated |= many << l * lo
        bad = two if prop == "HFM" else repeated if prop == "LFM" else two | repeated
    return f"{reached:0{top + 1}b}"[::-1], f"{bad:0{top + 1}b}"[::-1]


def _conflict_pair(m, b, depth, prop) -> tuple[Factorization, Factorization]:
    """Materialize two factorizations witnessing a refutation."""
    facts = factorizations(m, b, depth).factorizations
    if prop == "HFM":
        by_len: dict[int, Factorization] = {}
        for f in facts:
            for l0, f0 in by_len.items():
                if l0 != f.length:
                    return (f0, f)
            by_len.setdefault(f.length, f)
    if prop == "LFM":
        seen: dict[int, Factorization] = {}
        for f in facts:
            if f.length in seen:
                return (seen[f.length], f)
            seen[f.length] = f
    return (facts[0], facts[1])


# ---------------------------------------------------------------------------
# length functions


def length_function_check(
    m: MonoidDescriptor,
    ell: Callable[[Element], int],
    bound,
    samples: int = 1000,
    seed: int = 0,
) -> bool:
    """Verify ell(u) = 0 iff u = 0 and superadditivity ell(b+c) >= ell(b)+ell(c)
    on sampled pairs of the nonzero members below the bound
    (``members_within``; a family that cannot enumerate them raises
    UnsupportedFamily)."""
    rng = random.Random(seed)
    z = _zero_of(m)
    if ell(z) != 0:
        return False
    pool = [v for v in members_within(m, bound) if not v.is_zero]
    for u in pool[: min(len(pool), 64)]:
        if ell(u) == 0:
            return False
    for _ in range(samples):
        b = rng.choice(pool)
        c = rng.choice(pool)
        if ell(b + c) < ell(b) + ell(c):
            return False
        if ell(b) == 0 or ell(c) == 0:
            return False
    return True
