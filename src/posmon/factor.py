"""Atom computation, factorization enumeration Z(b), length sets L(b), and
bounded property probes.

Factorizations are enumerated over the atom window in descending order,
encoded once per atom list as a ``Window`` on the object that owns the
list (``AtomSet.window``, ``FiniteGenerated.window``): int tuples of lex
coordinates in priority order or of (1, sqrt2, sqrt3) coefficients, one
common denominator cleared and every coordinate that is 0 on all atoms
dropped.  The window picks its search loop from its encoded shape, not the
monoid family, and builds that loop's tables, once.  A query encodes only
its target, which has no factorization when its denominator does not
divide the window's or it is nonzero on a dropped coordinate; no search
works on group elements.  Rank 1 runs one scalar loop: with suffix gcds
g_i = gcd(v_i, g_(i+1)), the multiplicity at level i solves c * v_i = r
(mod g_(i+1)), so it steps through one residue class modulo g_(i+1) / g_i
(n(q) for M_q, the prime p_i for M_0).  Rank 2 with every atom's leading
coordinate at least 1 (a plane window) runs one walk in which the leading
coordinate is a length budget and the trailing one is bounded by suffix
ratio ranges, compared by integer cross-multiplication; budgets with room
for at most one atom are leaves, and each node (level, residual) is
expanded once and its value kept (``_plane_walk``).  Neither needs the
group's order, so they also serve sqrt2/sqrt3 windows of those shapes.
Every other window (lex windows of encoded rank 3 and up or with mixed
leading coordinates, and the other sqrt2/sqrt3 windows) runs one vector
loop: the scalar rule per coordinate, combined by CRT, and an order bound
by tuple comparison (lex) or exact signs (sqrt2/sqrt3).  All three loops
are iterative, with per-level arrays in place of recursion, and
``_enumerate``, which runs the window's loop on the encoded target, is the
only way into them: factorizations, length sets, atomicity witnesses, the
atoms of finitely generated monoids and their membership all go through
it.  Every search emits in lexicographic order of the multiplicity vector
over the descending atoms, so reports are reproducible.  A finitely
generated monoid is atomic with a complete atom list, so there the
enumeration itself decides membership (an empty one raises NotAMember).

``factorizations``, ``length_set`` and ``is_atomic_element`` differ only
in how they shape the answer: all three enter the search through
``_search``, which checks membership, answers zero with its empty
factorization, takes the atom window and enumerates over it.  Every
search result carries explicit ``complete`` / ``truncated`` flags;
lengths reported under truncation are a subset of the true length set.
``complete`` means the atom window is all of A(M) and max_count did not
cut the search, so an empty window is complete exactly on an antimatter
monoid, where a nonzero member has no factorization.

Each family has one exact atom rule (``_atom_rule``): its candidates and
whether t = g + (nonzero member) for a window generator g, decided
without building the window or scanning it through ``contains``.

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
from math import ceil, gcd, lcm
from typing import Callable, NamedTuple, Optional

from .elements import _SQRT2_64, _SQRT3_64, GroupElement, _int_triple_sign, rational
from .monoids import (
    AlphaBeta,
    Conductive,
    DEFAULT_DEPTH,
    Element,
    FiniteGenerated,
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
    _localized_window,
    _m0_solve,
    _member_points,
    _mq_solve,
    _point_element,
    _power_support,
    _ray_grid,
    _reach_bits,
    _two_ray_contains,
    _zero_of,
    alphabeta_atom,
    alphabeta_domain,
    check_query,
    contains,
    generators,
    members_within,
    nearly_atom,
    element_to_json,
)
from .primes import calkin_wilf, first_primes, is_squarefree

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
    leaves t - g <= 0, and below the threshold the members are M_0's.

    Where the nonzero members form an up-set, t splits exactly when it
    does against the least window generator:

    - conductive: the window starts at a, so t splits when t >= 2a;
    - ray Z[1/p] above t0: the window starts at w (``monoids._ray_grid``),
      so t splits when it lies in Z[1/p], t - w >= t0 and t > w; the atoms
      are the window below 2 t0, none when t0 = 0 (every member halves);
    - lex cones: the least generator is the step (1, or 1/min(depth, 5)
      over rational coordinates) in the last priority coordinate, so t
      splits above it (full cone) or when its priority coordinate exceeds
      the step (first-positive cone).

    ``_two_ray_split`` decides the monoid generated by two rays; when both
    start at 0 it is antimatter.

    The two irrational constructions split no candidate, so their rule is
    exact on the candidate lists.  Let t = x + y with x, y members and t's
    sqrt2 (or sqrt3) coefficient 1/p, p = phi(s) the prime of its atom.
    That coefficient of x + y is a sum of k_j / p_j, k_j >= 0, over
    distinct primes p_j (phi is injective); times the product of p and
    the p_j, read modulo a p_j other than p, it gives p_j | k_j, and then
    k_j / p_j >= 1 > 1/p unless k_j = 0.  So x + y holds one copy of the
    p-atom, which is t, and no other irrational atom (the other
    coefficient is 0); the positive rational generators left sum to 0, so
    there are none, and x or y is 0.  A rational member of ``AlphaBeta``
    is a sum of rational generators (irrational coefficients cannot
    cancel), so it splits as in M_q, whose atoms q^i are the rational
    candidates; a rational member of ``NearlyAtomicAlpha`` splits in
    halves, and its candidates are all irrational.

    The lex conductive candidates are the interval [a, 2a) within the
    box |coord| <= depth, while ``generators()`` is a + that box, so a
    threshold with a coordinate beyond the depth leaves the window's least
    generators out: at depth 4, Conductive((1, 5)) over Z^2 lists (2, -4)
    ... (2, 4) and not (1, 5).  Both answers are flagged incomplete.
    """
    if isinstance(m, FiniteGenerated):
        win = m.window
        splits = lambda t: any(n >= 2 for n in _enumerate(win, t, 1, lengths_only=True)[0])
        return AtomRule(win.atoms[::-1], splits, True, None, "filter")
    if isinstance(m, GeometricPuiseux):
        cands = [rational(m.q**i) for i in range(depth + 1)]
        splits = _canonical_split(partial(_mq_solve, m.q), depth)
        return AtomRule(cands, splits, False, "atoms are the powers of the ratio", "assert")
    if isinstance(m, PrimeReciprocal) or isinstance(m, UnionShift) and m.mode == UNION:
        ps = first_primes(depth)
        cands = [rational(Fraction(1, p)) for p in ps]
        note = "atoms are the prime reciprocals"
        if isinstance(m, UnionShift):
            # a threshold in the tail but outside M_0 is an atom too:
            # t - 1/p < t is no member of M_0, and the tail starts at t
            note += " of the base"
            if is_squarefree(m.threshold.denominator) and _m0_solve(m.threshold) is None:
                cands.append(rational(m.threshold))
                note += " and the threshold"
        return AtomRule(cands, _canonical_split(_m0_solve, ps[-1]), False, note, "assert")
    if isinstance(m, Conductive):
        a, g = m.threshold, m.group
        two_a = a + a
        splits = lambda t: t >= two_a
        if g.kind == "lex":
            lo = tuple(a.value[i] for i in g.priority_order)
            if not any(lo[:-1]) and not g.rational_coords:
                # over integer coordinates the interval [a, 2a) is the finite
                # ladder a + t * e_last
                pts = [lo[:-1] + (lo[-1] + t,) for t in range(int(lo[-1]))]
                return AtomRule([_point_element(g, p, 1) for p in pts], splits, True, None, "assert")
            hi = tuple(2 * c for c in lo)
            pts = _member_points(m, (depth,) * g.rank)[0]
            cands = [_point_element(g, p, 1) for p in pts if lo <= p < hi]
            return AtomRule(cands, splits, False, "interval [a, 2a) meets the window box", "assert")
        if g.kind == "Q":
            # the window's grid a + i/j (j <= depth, 0 <= i <= depth * j) below 2a
            x = a.value
            vals = {x + Fraction(i, j) for j in range(1, depth + 1)
                    for i in range(min(ceil(x * j), depth * j + 1))}
            cands = [rational(v) for v in sorted(vals)]
            return AtomRule(cands, splits, False, "interval [a, 2a) sampled on the window grid", "assert")
        raise UnsupportedFamily("conductive atoms are materialized for Q and lex groups")
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
            return AtomRule([least], splits, True, None, "assert")
        pts = _member_points(m, (depth,) * g.rank)[0]
        cands = [_point_element(g, p, 1) for p in pts if p[0] == 1]
        return AtomRule(cands, splits, False, "atoms have leading coordinate 1", "assert")
    if isinstance(m, Localized):
        p, t0 = m.prime, m.min_nonzero
        lo, hi, den = _ray_grid(m, depth)
        w = Fraction(lo, den)
        splits = lambda t: _power_support(t.value.denominator, p) and t.value - w >= t0 and t.value > w
        if t0 == 0:
            return AtomRule([], splits, True, "antimatter: every member halves", "assert")
        cands = [rational(Fraction(k, den)) for k in range(lo, min(hi, ceil(2 * t0 * den) - 1) + 1)]
        return AtomRule(cands, splits, False, "atoms fill [t, 2t) in the ray", "assert")
    if isinstance(m, UnionShift):
        splits = _two_ray_split(m, depth)
        if m.base.min_nonzero == 0 == m.tail.min_nonzero:
            # x = u + v with u > 0 in the p-ray is u/p + ((p-1)u/p + v),
            # and x = v in the p'-ray is v/p' + (p'-1)v/p'
            return AtomRule([], splits, True, "antimatter: every member splits off a p-th part", "assert")
        # the rays' windows; a ray at threshold 0 adds no atom, as every
        # member is p copies of its 1/p-th part
        cands = {g for ray in (m.base, m.tail) if ray.min_nonzero > 0 for g in _localized_window(ray, depth)}
        return AtomRule(sorted(cands), splits, False, None, "filter")
    if isinstance(m, AlphaBeta):
        cands = [GroupElement(m.group, (m.q**i, Fraction(0), Fraction(0))) for i in range(depth + 1)]
        for s, p in zip(alphabeta_domain(m.q, depth), first_primes(depth)):
            cands += [alphabeta_atom(s, p, "alpha"), alphabeta_atom(s, p, "beta")]
        mq_split = _canonical_split(partial(_mq_solve, m.q), depth)
        splits = lambda t: not any(t.value[1:]) and mq_split(rational(t.value[0]))
        return AtomRule(cands, splits, False, "ratio powers plus the two sqrt directions", "assert")
    if isinstance(m, NearlyAtomicAlpha):
        cands = [nearly_atom(x, p) for x, p in zip(calkin_wilf(depth), first_primes(depth))]
        note = "atoms are the (sqrt2 + q)/phi(q); rational members are not atoms"
        return AtomRule(cands, lambda t: not t.value[1], False, note, "assert")
    raise UnsupportedFamily(f"no atom procedure for {m.family}")


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

    No factorization is materialized: the scalar and vector loops emit
    lengths only, and a plane window (rank 2, every atom's leading
    coordinate at least 1) keeps each search node's lengths as a bitmask
    (``_plane_walk``).  ``complete`` is False when max_count cut the
    search or the atom window is not all of A(M)."""
    _, lens, _, complete = _search(m, b, depth, max_count, lengths_only=True)
    return LengthSet(b, tuple(sorted(set(lens))), complete)


def is_atomic_element(
    m: MonoidDescriptor, b: Element, depth: int = DEFAULT_DEPTH
) -> AtomicityWitness:
    """Yes with a witness factorization; No only when the search space is
    provably exhausted; Unknown otherwise."""
    desc, counts, _, complete = _search(m, b, depth, 1)
    if counts:
        return AtomicityWitness("yes", Factorization(_pairs(desc, counts[0]), b))
    if complete:
        return AtomicityWitness(
            "no", note="atom window is exhaustive below the element; search exhausted"
        )
    return AtomicityWitness("unknown", note="no factorization within the window")


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
    if isinstance(m, FiniteGenerated):
        check_query(m, b)
    elif contains(m, b, depth).is_out:
        raise NotAMember(f"{b} is not a member of {m}")
    if b.is_zero:
        return (), [0 if lengths_only else ()], False, True
    atom_set = atoms(m, depth)
    win = atom_set.window
    found, truncated = _enumerate(win, b, max_count, lengths_only) if win else ([], False)
    if not found and isinstance(m, FiniteGenerated):
        raise NotAMember(f"{b} is not a member of {m}")
    return win.atoms if win else (), found, truncated, atom_set.complete and not truncated


def _pairs(desc, vec) -> tuple:
    """The (atom, multiplicity) pairs of a multiplicity vector over the
    descending atoms, without the zero multiplicities."""
    return tuple((a, c) for a, c in zip(desc, vec) if c > 0)


# -- enumeration --------------------------------------------------------------
#
# Every search emits either full multiplicity vectors or (for length sets)
# just factorization lengths; the latter avoids materializing large tuples.
# Each emits in lexicographic order of the multiplicity vector over the
# descending atoms and stops at max_count, so the answer and the truncated
# flag do not depend on which search ran.


class Window:
    """One atom list, encoded once: the atoms in descending order, their
    int tuples (``pts``) over the common denominator ``den``, the positions
    kept (``keep``, in priority order or among the (1, sqrt2, sqrt3)
    coefficients; the others are 0 on every atom) and the loop for its
    shape with its tables (``search``, ``tables``).  A multiset of atoms
    sums to a target exactly when their tuples do (``encode``)."""

    __slots__ = ("atoms", "pts", "den", "keep", "dropped", "order", "search", "tables")

    def __init__(self, desc):
        self.atoms = desc = tuple(desc)
        g = desc[0].group
        self.order = g.priority_order if g.priority else None
        pts = [self._coords(a.value) for a in desc]
        self.den = den = lcm(*(c.denominator for p in pts for c in p))
        pts = [tuple(c.numerator * (den // c.denominator) for c in p) for p in pts]
        rank = len(pts[0])
        # atoms are nonzero, so a scalar window drops nothing
        self.keep = tuple(k for k in range(rank) if any(p[k] for p in pts)) if rank > 1 else (0,)
        self.dropped = tuple(k for k in range(rank) if k not in self.keep)
        if self.dropped:
            pts = [tuple(p[k] for k in self.keep) for p in pts]
        self.pts = pts = tuple(pts)
        if len(self.keep) == 1:
            self.search, self.tables = _scalar_search, _scalar_tables([x for (x,) in pts])
        elif len(self.keep) == 2 and all(x >= 1 for x, _ in pts):
            self.search, self.tables = _plane_walk, _plane_tables(pts)
        else:
            keep = self.keep if g.kind == "sqrt23" else None
            self.search, self.tables = _vector_search, _vector_tables(pts, keep)

    def _coords(self, v) -> tuple:
        if self.order:
            return tuple(v[i] for i in self.order)
        return v if isinstance(v, tuple) else (v,)

    def encode(self, x) -> Optional[tuple]:
        """x as an int tuple over the window, or None when no atom sum
        reaches x: a coordinate of x has a denominator that does not
        divide the window's, or x is nonzero on a dropped coordinate."""
        v = x.value
        if x.group.kind == "Q":
            k, rest = divmod(self.den, v.denominator)
            return None if rest else (v.numerator * k,)
        v = self._coords(v)
        if any(self.den % c.denominator for c in v) or any(v[k] for k in self.dropped):
            return None
        return tuple(v[k].numerator * (self.den // v[k].denominator) for k in self.keep)

    def first(self, target) -> Optional[tuple]:
        """The (atom, multiplicity) pairs of target's first factorization
        over the window, or None when it has none."""
        found, _ = _enumerate(self, target, 1)
        return _pairs(self.atoms, found[0]) if found else None


def _enumerate(win: Window, target, max_count, lengths_only: bool = False):
    """(solutions, truncated) for target over the window, by the loop and
    tables the window chose; this is the only caller of the three loops.
    Only the target is encoded.  With lengths_only the solutions are
    factorization lengths; a plane window then gives each length once."""
    t = win.encode(target)
    if t is None:
        return [], False
    return win.search(win.tables, t, max_count, lengths_only)


def _scalar_tables(vals) -> tuple:
    """``_scalar_search``'s tables: the atoms, g_i, the steps and the inverses."""
    n = len(vals)
    g, step, inv = vals[:], [1] * n, [0] * n
    for i in range(n - 2, -1, -1):
        g[i] = gcd(vals[i], g[i + 1])
        if g[i] != g[i + 1]:
            step[i] = g[i + 1] // g[i]
            inv[i] = pow(vals[i] // g[i], -1, step[i])
    return tuple(vals), tuple(g), tuple(step), tuple(inv)


def _scalar_search(tables, tgt, max_count, lengths_only):
    """Knapsack solutions for the 1-tuple tgt over positive int atoms in
    descending order (``_scalar_tables``).

    With suffix gcds g_i = gcd(v_i, g_(i+1)), the residual r entering level
    i is a multiple of g_i, and what it leaves to the later levels must be
    a multiple of g_(i+1).  So c * v_i = r (mod g_(i+1)): the multiplicity
    steps through one residue class modulo g_(i+1) / g_i.  The last level
    has the single multiplicity r / v_last.
    """
    vals, g, step, inv = tables
    if tgt[0] % g[0]:
        return [], False
    n = len(vals)
    last = n - 1
    low = vals[last]
    out: list = []
    counts = [0] * n
    rems = [0] * n  # residual entering each level
    lens = [0] * n  # length chosen above each level
    i, r, ln = 0, tgt[0], 0
    while True:
        while r >= low and i < last:
            c = r // g[i] * inv[i] % step[i]
            if c * vals[i] > r:
                break
            rems[i], lens[i], counts[i] = r, ln, c
            r -= c * vals[i]
            ln += c
            i += 1
        else:
            if i == last:
                # r is a multiple of g_last = low
                counts[last] = c = r // low
                ln += c
                r = 0
            if r == 0:
                out.append(ln if lengths_only else tuple(counts))
                if len(out) >= max_count:
                    return out, True
            counts[last] = 0
        while True:
            i -= 1
            if i < 0:
                return out, False
            c = counts[i] + step[i]
            r = rems[i] - c * vals[i]
            if r >= 0:
                counts[i] = c
                ln = lens[i] + c
                i += 1
                break
            counts[i] = 0


def _plane_tables(pts) -> tuple:
    """``_plane_walk``'s tables: xs, ys, lo_i and hi_i, min(xs), atom levels."""
    n = len(pts)
    xs, ys = zip(*pts)
    lo_n, lo_d, hi_n, hi_d = [0] * n, [1] * n, [0] * n, [1] * n
    ln, ld = hn, hd = ys[-1], xs[-1]
    for i in range(n - 1, -1, -1):
        x, y = pts[i]
        if y * ld < ln * x:
            ln, ld = y, x
        if y * hd > hn * x:
            hn, hd = y, x
        lo_n[i], lo_d[i], hi_n[i], hi_d[i] = ln, ld, hn, hd
    return xs, ys, lo_n, lo_d, hi_n, hi_d, min(xs), {p: k for k, p in enumerate(pts)}


def _plane_walk(tables, tgt, max_count, lengths_only):
    """Solutions over rank-2 int atoms (x, y) with x >= 1, in descending
    order (``_plane_tables``): vectors, or with lengths_only each length once.

    The leading coordinate is a length budget.  A node of the search tree
    is (level i, leading residual m, trailing residual r), and the
    completions below it depend on nothing else.  A completion from node
    (i, m, r) has trailing coordinate in [m * lo_i, m * hi_i], where lo_i
    and hi_i are the least and greatest ratio y / x over the atoms from i
    on, kept as integer pairs and compared by cross-multiplication; a node
    outside that range is pruned.

    Let x_min be the least leading coordinate.  A budget m below x_min is
    spent, and one below 2 * x_min has room for a single atom, so the
    node is a leaf: it completes exactly when (m, r) is an atom at level
    i or after.  At the last level only the multiplicity m / x_last can
    clear m.  A level whose leading coordinate exceeds m takes
    multiplicity 0 only: the walk passes it without opening a node.  A
    completing leaf's vector is the open levels' current multiplicities,
    0 on the passed levels, plus the leaf's own atom.

    Each node is expanded once and its value is kept: the number of
    completions and, for lengths, the completion lengths as a bitmask.  A
    node met again adds its stored value at once, unless that would count
    past max_count, or it has completions whose vectors must be emitted;
    then it is expanded again, as the enumeration would enter it.  The
    running count follows the enumeration order, so the walk stops at the
    same solution as a plain depth-first enumeration.  At max_count the
    lengths of the solutions counted so far are the open nodes' masks,
    folded up the levels.
    """
    xs, ys, lo_n, lo_d, hi_n, hi_d, low, at = tables
    # like the other loops, stop no sooner than at the first solution
    max_count = max(max_count, 1)
    n = len(xs)
    last = n - 1
    memo: list[dict] = [{} for _ in range(n)]
    # per level: passed or open; the open node (m, r), the multiplicity of
    # its current child (0 from the current level on, so cs is the vector
    # of a completion), and the mask and count its earlier children gave
    passed = [False] * n
    ms, rs, cs = [0] * n, [0] * n, [0] * n
    masks, cnts = [0] * n, [0] * n
    out: list = []
    found = 0
    i = 0
    m, r = tgt
    while True:
        # the value (mask, cnt) of node (i, m, r), or open it at its first child
        while True:
            if m < 2 * low or i == last:
                # a leaf: at most one completion, whose last atom k takes
                # multiplicity c (k = i and c = 0 when m is spent)
                if not m:
                    k, c = i if r == 0 else -1, 0
                elif m < low:
                    k = -1
                elif m < 2 * low:
                    k, c = at.get((m, r), -1), 1
                else:
                    c, rest = divmod(m, xs[last])
                    k = last if not rest and r == c * ys[last] else -1
                if k < i:
                    mask = cnt = 0
                elif lengths_only:
                    mask, cnt = 1 << c, 1
                else:
                    mask, cnt = 0, 1
                    cs[k] = c
                    out.append(tuple(cs))
                    cs[k] = 0
                break
            if xs[i] > m:
                passed[i] = True
                i += 1
                continue
            if m * lo_n[i] > r * lo_d[i] or r * hi_d[i] > m * hi_n[i]:
                mask = cnt = 0
                break
            hit = memo[i].get((m, r))
            if hit is not None and (not hit[1] or lengths_only and found + hit[1] <= max_count):
                mask, cnt = hit
                break
            passed[i] = False
            ms[i], rs[i], masks[i], cnts[i] = m, r, 0, 0
            i += 1
        found += cnt
        if found >= max_count:
            if not lengths_only:
                return out, True
            for j in range(i - 1, -1, -1):
                if not passed[j]:
                    mask = masks[j] | mask << cs[j]
            return _bits(mask), True
        # hand the value up, closing every node whose children are done
        while True:
            i -= 1
            if i < 0:
                return (_bits(mask) if lengths_only else out), False
            if passed[i]:
                continue
            c = cs[i]
            masks[i] |= mask << c
            cnts[i] += cnt
            c += 1
            m = ms[i] - c * xs[i]
            if m >= 0:
                cs[i] = c
                r = rs[i] - c * ys[i]
                i += 1
                break
            cs[i] = 0
            mask, cnt = masks[i], cnts[i]
            memo[i][ms[i], rs[i]] = (mask, cnt)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _vector_tables(pts, keep=None) -> tuple:
    """The vector loop's tables over int atom vectors in descending order:
    lex points in priority order when keep is None, else sqrt2/sqrt3
    triples restricted to the (1, sqrt2, sqrt3) positions that keep names.

    Let g_(i,j) be the gcd of coordinate j over the atoms from level i on
    (0 when none of them touches it).  The residual r entering level i is
    a multiple of g_(i,j) in every coordinate, and what it leaves must be a
    multiple of g_(i+1,j), so the multiplicity solves
    c * a_(i,j) = r_j (mod g_(i+1,j)) for every j, the scalar loop's rule
    per coordinate.  A coordinate that atom i touches and no later atom
    does (g_(i+1,j) = 0) fixes c = r_j / a_(i,j) outright, as every touched
    coordinate does at the last level; otherwise the classes combine by
    CRT into one class modulo a per-level modulus, through which c steps.
    c rises only while c * a_i <= r in the group's order (``top_of``).
    For lex points r is 0 before the atom's leading coordinate L (those
    coordinates were fixed at earlier levels, which subsumes the level
    prune), so the bound is r_L // a_L, less one when the rest of
    r - c * a_i then starts negative.  For triples a 64-bit fixed-point
    quotient seeds the bound and exact signs of r - c * a_i settle it.
    """
    n = len(pts)
    after = [0] * len(pts[0])  # g_(i+1,j) while the tables are built, then g_(0,j)
    # per level: the coordinate that fixes c (or -1), the coordinates whose
    # congruence constrains c as (j, a_(i,j), g_(i+1,j)), and the CRT plan
    fixes, cons, plans, mods = [-1] * n, [()] * n, [()] * n, [1] * n
    for i in range(n - 1, -1, -1):
        a = pts[i]
        cons[i] = tuple(
            (j, x, g) for j, (x, g) in enumerate(zip(a, after)) if x and (not g or x % g)
        )
        fixed = [j for j, x, g in cons[i] if not g]
        if fixed:
            fixes[i] = fixed[0]
        else:
            plan, mod = [], 1
            for j, x, g in cons[i]:
                d = gcd(x, g)
                m = g // d
                h = gcd(mod, m)
                mh = m // h
                plan.append((j, d, pow(x // d, -1, m), m, h, pow(mod // h, -1, mh), mh))
                mod *= mh
            plans[i], mods[i] = tuple(plan), mod
        after = [gcd(x, g) for x, g in zip(a, after)]
    if keep is None:
        leads = [next(j for j, x in enumerate(a) if x) for a in pts]

        def top_of(i, r):
            a, lead = pts[i], leads[i]
            c, rem = divmod(r[lead], a[lead])
            if not rem and c:
                for x, y in zip(r[lead + 1:], a[lead + 1:]):
                    if x != c * y:
                        return c - 1 if x < c * y else c
            return c
    else:
        weights = [(1 << 64, _SQRT2_64, _SQRT3_64)[p] for p in keep]
        approx = [sum(x * w for x, w in zip(a, weights)) for a in pts]

        def sign(v):
            full = [0, 0, 0]
            for p, x in zip(keep, v):
                full[p] = x
            return _int_triple_sign(*full)

        def top_of(i, r):
            a, est = pts[i], approx[i]
            c = max(sum(x * w for x, w in zip(r, weights)) // est, 0) if est > 0 else 0
            while c and sign([x - c * y for x, y in zip(r, a)]) < 0:
                c -= 1
            while sign([x - (c + 1) * y for x, y in zip(r, a)]) >= 0:
                c += 1
            return c
    return pts, fixes, cons, plans, mods, after, top_of


def _vector_search(tables, tgt, max_count, lengths_only):
    """Solutions over int atom vectors in descending order (``_vector_tables``)."""
    pts, fixes, cons, plans, mods, after, top_of = tables
    if any(t % g for t, g in zip(tgt, after)):
        return [], False
    n = len(pts)
    out: list = []
    counts = [0] * n
    rems = [tgt] * n  # residual entering each level
    lens = [0] * n  # length chosen above each level
    tops = [0] * n  # largest multiplicity each level may take
    i, r, ln = 0, tgt, 0
    while True:
        while any(r):
            j = fixes[i]
            if j >= 0:
                c = r[j] // pts[i][j]
                if c < 0 or any((r[h] - c * x) % g if g else r[h] - c * x for h, x, g in cons[i]):
                    break
                top = c if top_of(i, r) >= c else -1
            else:
                c = _residue(plans[i], r)
                top = top_of(i, r) if c >= 0 else -1
            if c > top:
                break
            rems[i], lens[i], counts[i], tops[i] = r, ln, c, top
            r = tuple(x - c * y for x, y in zip(r, pts[i]))
            ln += c
            i += 1
        else:
            out.append(ln if lengths_only else tuple(counts))
            if len(out) >= max_count:
                return out, True
        while True:
            i -= 1
            if i < 0:
                return out, False
            c = counts[i] + mods[i]
            if c <= tops[i]:
                counts[i] = c
                r = tuple(x - c * y for x, y in zip(rems[i], pts[i]))
                ln = lens[i] + c
                i += 1
                break
            counts[i] = 0


def _residue(plan, r) -> int:
    """The least multiplicity in the CRT class that the plan's congruences
    give for the residual r, or -1 when they disagree."""
    c, mod = 0, 1
    for j, d, inv, m, h, u, mh in plan:
        diff = r[j] // d * inv % m - c
        if diff % h:
            return -1
        c += mod * (diff // h * u % mh)
        mod *= mh
    return c


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
    samples: int = 1000,
    bound=None,
    seed: int = 0,
) -> bool:
    """Verify ell(u) = 0 iff u = 0 and superadditivity ell(b+c) >= ell(b)+ell(c)
    on sampled member pairs.  The pool is the nonzero members below the
    bound when one is given and the family enumerates them; otherwise it
    is the generator window at the default depth, built only then."""
    rng = random.Random(seed)
    z = _zero_of(m)
    if ell(z) != 0:
        return False
    pool = None
    if bound is not None:
        try:
            pool = [v for v in members_within(m, bound) if not v.is_zero]
        except UnsupportedFamily:
            pass
    if pool is None:
        pool = list(generators(m, DEFAULT_DEPTH).generators)
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
