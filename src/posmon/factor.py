"""Atom computation, factorization enumeration Z(b), length sets L(b), and
bounded property probes.

Factorizations are enumerated by depth-first search over the atom window
sorted in descending order, with residual-feasibility pruning (the
residual stays nonnegative, and where a minimum atom exists the residual
is zero or at least that minimum).  Rational atoms are searched as
integers over their common denominator.  A finitely generated monoid is
atomic with a complete atom list, so there the enumeration itself decides
membership (an empty one raises NotAMember).  The last atom's
multiplicity is solved for rather than counted up to, so a large target
costs no loop at the bottom of the search.  Emission order is
lexicographic in the multiplicity vector over the descending atoms, so
reports are reproducible.  Family-specific congruence filters (prime
residues for the reciprocal monoid, the power-descent residue for the
geometric monoid) keep the searches exact and small.

Every search result carries explicit ``complete`` / ``truncated`` flags;
lengths reported under truncation are a subset of the true length set.

Property probes over scalar windows (Q, lex of rank 1) and over rank-2 lex
windows whose atoms and members have leading coordinate at least 1 (the
first-positive cone, conductive monoids with such a threshold) are decided
by one saturated (value, length) counting table over an integer code of
the window, built once for all members.  The other shapes (a conductive
threshold with leading coordinate 0, the full cone, rank 3 and up)
enumerate the window factorizations of each member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Optional

from .elements import GroupElement, rational
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
    _box_elements,
    _den_support_ok,
    alphabeta_atom,
    alphabeta_domain,
    check_query,
    contains,
    generators,
    members_within,
    nearly_atom,
    element_to_json,
)
from .primes import calkin_wilf, factorize, first_primes

DEFAULT_MAX_COUNT = 10_000

PROBEABLE = ("ATM", "BFM", "FFM", "HFM", "LFM", "UFM")


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class AtomSet:
    """Atoms of a monoid found at a window depth.

    ``complete`` means the listed atoms are all of A(M).  Otherwise
    ``exhaustive_below`` (when set) bounds a region in which the listing
    is known exhaustive.  Every listed atom has passed a decomposition
    search against the generator window.
    """

    descriptor: MonoidDescriptor
    depth: int
    atoms: tuple[GroupElement, ...]
    complete: bool
    exhaustive_below: Optional[GroupElement] = None
    note: Optional[str] = None

    def covers(self, b: Element) -> bool:
        """True when every atom that could divide b is listed."""
        if self.complete:
            return True
        if self.exhaustive_below is None:
            return False
        return b <= self.exhaustive_below


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
    """The atom window of m.

    Families with a known closed form emit it intersected with the window
    and re-verify every emitted atom by decomposition search; a failed
    re-verification raises.  The remaining families compute atoms by
    filtering window candidates through the same search.
    """
    return _atoms_cached(m, depth)


@lru_cache(maxsize=4096)
def _atoms_cached(m: MonoidDescriptor, depth: int) -> AtomSet:
    candidates, complete, below, note, mode = _atom_candidates(m, depth)
    window = generators(m, depth).generators
    out = []
    for t in candidates:
        ok = _no_window_decomposition(m, t, window, depth)
        if mode == "assert":
            if not ok:
                raise AssertionError(
                    f"closed-form atom {t} of {m} failed its decomposition check"
                )
            out.append(t)
        elif ok:
            out.append(t)
    out.sort()
    return AtomSet(m, depth, tuple(out), complete, below, note)


def _no_window_decomposition(
    m: MonoidDescriptor, t: GroupElement, window, depth: int
) -> bool:
    """True when no window generator g yields t = g + (nonzero member)."""
    for g in window:
        diff = t - g
        if isinstance(diff, GroupElement):
            if diff.is_zero or diff.is_negative:
                continue
        elif diff.is_zero:
            continue
        if contains(m, diff, depth).is_in:
            return False
    return True


def _atom_candidates(m: MonoidDescriptor, depth: int):
    """(candidates, complete, exhaustive_below, note, verify_mode)."""
    if isinstance(m, FiniteGenerated):
        return sorted(set(m.generators)), True, None, None, "filter"
    if isinstance(m, GeometricPuiseux):
        return (
            [rational(m.q**i) for i in range(depth + 1)],
            False,
            None,
            "atoms are the powers of the ratio",
            "assert",
        )
    if isinstance(m, PrimeReciprocal):
        return (
            [rational(Fraction(1, p)) for p in first_primes(depth)],
            False,
            None,
            "atoms are the prime reciprocals",
            "assert",
        )
    if isinstance(m, Conductive):
        return _conductive_atom_candidates(m, depth)
    if isinstance(m, LexCone):
        return _lexcone_atom_candidates(m, depth)
    if isinstance(m, Localized):
        if m.min_nonzero == 0:
            return [], True, None, "antimatter: every member halves", "assert"
        window = generators(m, depth).generators
        t2 = m.min_nonzero * 2
        cands = [g for g in window if g.value < t2]
        return cands, False, None, "atoms fill [t, 2t) in the ray", "assert"
    if isinstance(m, UnionShift):
        if m.mode == UNION:
            return (
                [rational(Fraction(1, p)) for p in first_primes(depth)],
                False,
                None,
                "atoms are the prime reciprocals of the base",
                "assert",
            )
        tail_window = generators(m.tail, depth).generators
        return list(tail_window), False, None, None, "filter"
    if isinstance(m, AlphaBeta):
        cands = [GroupElement(m.group, (m.q**i, Fraction(0), Fraction(0))) for i in range(depth + 1)]
        for s in alphabeta_domain(m.q, depth):
            cands.append(alphabeta_atom(m.q, s, "alpha"))
            cands.append(alphabeta_atom(m.q, s, "beta"))
        return cands, False, None, "ratio powers plus the two sqrt directions", "assert"
    if isinstance(m, NearlyAtomicAlpha):
        cands = [nearly_atom(x) for x in calkin_wilf(depth)]
        return (
            cands,
            False,
            None,
            "atoms are the (sqrt2 + q)/phi(q); rational members are not atoms",
            "assert",
        )
    raise UnsupportedFamily(f"no atom procedure for {m.family}")


def _conductive_atom_candidates(m: Conductive, depth: int):
    a = m.threshold
    g = m.group
    two_a = a + a
    if g.kind == "lex":
        order = g.priority_order
        level = next(pos for pos, i in enumerate(order) if a.value[i] != 0)
        if level == g.rank - 1:
            # the interval [a, 2a) is the finite ladder a + t * e_last
            last = order[-1]
            lead = a.value[last]
            out = []
            for t in range(int(lead)):
                coords = list(a.value)
                coords[last] += t
                out.append(GroupElement(g, tuple(coords)))
            return out, True, None, None, "assert"
        box = _box_elements(g, (depth,) * g.rank)
        cands = [v for v in box if a <= v < two_a]
        return cands, False, None, "interval [a, 2a) meets the window box", "assert"
    if g.kind == "Q":
        window = generators(m, depth).generators
        cands = [v for v in window if a <= v < two_a]
        return cands, False, None, "interval [a, 2a) sampled on the window grid", "assert"
    raise UnsupportedFamily("conductive atoms are materialized for Q and lex groups")


def _lexcone_atom_candidates(m: LexCone, depth: int):
    g = m.lex_group
    if g.rational_coords:
        return [], True, None, "antimatter: every member halves", "assert"
    if m.rule == FULL_CONE:
        coords = [0] * g.rank
        coords[g.priority_order[-1]] = 1
        return [GroupElement(g, tuple(coords))], True, None, None, "assert"
    cands = [
        v
        for v in _box_elements(g, (depth,) * g.rank)
        if v.value[g.priority] == 1
    ]
    return cands, False, None, "atoms have leading coordinate 1", "assert"


# ---------------------------------------------------------------------------
# factorization enumeration


def factorizations(
    m: MonoidDescriptor,
    b: Element,
    depth: int = DEFAULT_DEPTH,
    max_count: int = DEFAULT_MAX_COUNT,
) -> FactorizationSearch:
    """Enumerate Z(b) over the atom window at the given depth."""
    _require_member(m, b, depth)
    if b.is_zero:
        empty = Factorization((), b)
        return FactorizationSearch(m, b, (empty,), True, False)
    atom_set = atoms(m, depth)
    if not atom_set.atoms:
        return FactorizationSearch(
            m, b, (), False, False, note="NotAtomicFamily: no atoms in this family"
        )
    desc = atom_set.atoms[::-1]
    counts, truncated = _enumerate(m, desc, b, max_count)
    _require_found(m, b, counts)
    facts = tuple(
        Factorization(tuple((a, c) for a, c in zip(desc, vec) if c > 0), b)
        for vec in counts
    )
    complete = atom_set.covers(b) and not truncated
    return FactorizationSearch(m, b, facts, complete, truncated)


def length_set(
    m: MonoidDescriptor, b: Element, depth: int = DEFAULT_DEPTH,
    max_count: int = DEFAULT_MAX_COUNT,
) -> LengthSet:
    """The set of factorization lengths of b found at the window depth;
    enumerates lengths without materializing the factorizations."""
    _require_member(m, b, depth)
    if b.is_zero:
        return LengthSet(b, (0,), True)
    atom_set = atoms(m, depth)
    if not atom_set.atoms:
        return LengthSet(b, (), atom_set.complete)
    desc = atom_set.atoms[::-1]
    lens, truncated = _enumerate(m, desc, b, max_count, lengths_only=True)
    _require_found(m, b, lens)
    complete = atom_set.covers(b) and not truncated
    return LengthSet(b, tuple(sorted(set(lens))), complete)


def is_atomic_element(
    m: MonoidDescriptor, b: Element, depth: int = DEFAULT_DEPTH
) -> AtomicityWitness:
    """Yes with a witness factorization; No only when the search space is
    provably exhausted; Unknown otherwise."""
    if isinstance(b, GroupElement) and b.is_zero:
        return AtomicityWitness("yes", Factorization((), b))
    _require_member(m, b, depth)
    atom_set = atoms(m, depth)
    if atom_set.atoms:
        desc = atom_set.atoms[::-1]
        counts, truncated = _enumerate(m, desc, b, max_count=1)
        if counts:
            pairs = tuple((a, c) for a, c in zip(desc, counts[0]) if c > 0)
            return AtomicityWitness("yes", Factorization(pairs, b))
        _require_found(m, b, counts)
    else:
        truncated = False
    if atom_set.covers(b) and not truncated:
        return AtomicityWitness(
            "no", note="atom window is exhaustive below the element; search exhausted"
        )
    return AtomicityWitness("unknown", note="no factorization within the window")


def _require_member(m: MonoidDescriptor, b: Element, depth: int) -> None:
    """Raise NotAMember when b is provably outside m.  A finitely generated
    monoid is atomic with a complete atom list, so there the enumeration
    decides membership (_require_found).  A complete atom list alone does
    not suffice: (1, 0) lies in the conductive monoid of Z^2 at (0, 2),
    whose atoms are (0, 2) and (0, 3), and has no factorization."""
    if isinstance(m, FiniteGenerated):
        check_query(m, b)
    elif contains(m, b, depth).is_out:
        raise NotAMember(f"{b} is not a member of {m}")


def _require_found(m: MonoidDescriptor, b: Element, found: list) -> None:
    if not found and isinstance(m, FiniteGenerated):
        raise NotAMember(f"{b} is not a member of {m}")


# -- enumeration engines ------------------------------------------------------
#
# Each engine emits either full multiplicity vectors or (for probes) just
# factorization lengths; the latter avoids materializing large tuples.


def _enumerate(m, atoms_desc, target, max_count, lengths_only: bool = False):
    """Dispatch to a search specialized for the family/group shape."""
    first = atoms_desc[0]
    if isinstance(first, GroupElement) and first.group.kind == "Q":
        if isinstance(m, (GeometricPuiseux, PrimeReciprocal)) or (
            isinstance(m, UnionShift) and m.mode == UNION
        ):
            return _dfs_filtered(m, atoms_desc, target, max_count, lengths_only)
        return _dfs_int(atoms_desc, target, max_count, lengths_only)
    if isinstance(first, GroupElement) and first.group.kind == "lex":
        g = first.group
        prio = g.priority
        if (
            g.rank == 2
            and all(a.value[prio] >= 1 for a in atoms_desc)
            and target.value[prio] >= 1
        ):
            return _dfs_lex2(atoms_desc, target, max_count, lengths_only)
        if all(a.value[prio] == 0 for a in atoms_desc) and target.value[prio] == 0:
            reduced = _strip_priority(atoms_desc, target)
            if reduced is not None:
                return reduced(max_count, lengths_only)
        return _dfs_generic(atoms_desc, target, max_count, lengths_only)
    return _dfs_generic(atoms_desc, target, max_count, lengths_only)


def _strip_priority(atoms_desc, target):
    """Rank-2 atoms supported on the non-priority coordinate reduce to a
    one-dimensional integer problem."""
    g = atoms_desc[0].group
    if g.rank != 2:
        return None
    other = g.priority_order[-1]
    vals = [a.value[other] for a in atoms_desc]
    tgt = target.value[other]
    if any(v <= 0 for v in vals) or tgt < 0:
        return None

    def run(max_count, lengths_only=False):
        ints = [rational(v) for v in vals]
        return _dfs_int(ints, rational(tgt), max_count, lengths_only)

    return run


def _dfs_int(atoms_desc, target, max_count, lengths_only=False):
    """Integer knapsack enumeration after clearing denominators."""
    dens = lcm(*[a.value.denominator for a in atoms_desc])
    t = target.value
    if dens % t.denominator:
        # every sum of the atoms has a denominator dividing dens
        return [], False
    vals = [a.value.numerator * (dens // a.value.denominator) for a in atoms_desc]
    tgt = t.numerator * (dens // t.denominator)
    n = len(vals)
    suffix_gcd = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_gcd[i] = gcd(vals[i], suffix_gcd[i + 1])
    min_atom = vals[-1]
    results: list = []
    counts = [0] * n
    truncated = False

    def rec(i: int, r: int, ln: int) -> None:
        nonlocal truncated
        if truncated:
            return
        if r == 0:
            results.append(ln if lengths_only else tuple(counts))
            if len(results) >= max_count:
                truncated = True
            return
        if i == n or r < min_atom and r != 0:
            return
        if r % suffix_gcd[i]:
            return
        v = vals[i]
        top = r // v
        # at the last atom the gcd check leaves one multiplicity, top
        for c in (top,) if i == n - 1 else range(top + 1):
            counts[i] = c
            rec(i + 1, r - c * v, ln + c)
            if truncated:
                break
        counts[i] = 0

    rec(0, tgt, 0)
    return results, truncated


def _dfs_lex2(atoms_desc, target, max_count, lengths_only=False):
    """Rank-2 lex atoms with positive leading coordinate: the leading
    coordinate is a length budget and the trailing coordinate is bounded
    by suffix ratio ranges."""
    g = atoms_desc[0].group
    p0 = g.priority
    p1 = g.priority_order[-1]
    fs = [a.value[p0] for a in atoms_desc]
    js = [a.value[p1] for a in atoms_desc]
    n = len(fs)
    ratios = [Fraction(j, f) for f, j in zip(fs, js)]
    # suffix ratio ranges as integer pairs: the trailing coordinate of any
    # completion with budget m lies in [m * lo, m * hi]
    lo_n = [0] * n
    lo_d = [1] * n
    hi_n = [0] * n
    hi_d = [1] * n
    run_lo = run_hi = None
    for i in range(n - 1, -1, -1):
        run_lo = ratios[i] if run_lo is None else min(ratios[i], run_lo)
        run_hi = ratios[i] if run_hi is None else max(ratios[i], run_hi)
        lo_n[i], lo_d[i] = run_lo.numerator, run_lo.denominator
        hi_n[i], hi_d[i] = run_hi.numerator, run_hi.denominator
    m_total = target.value[p0]
    n_total = target.value[p1]
    results: list = []
    counts = [0] * n
    truncated = False

    def rec(i: int, m_rem: int, n_rem: int, ln: int) -> None:
        nonlocal truncated
        if truncated:
            return
        if m_rem == 0:
            if n_rem == 0:
                results.append(ln if lengths_only else tuple(counts))
                if len(results) >= max_count:
                    truncated = True
            return
        if i == n:
            return
        if m_rem * lo_n[i] > n_rem * lo_d[i] or n_rem * hi_d[i] > m_rem * hi_n[i]:
            return
        f, j = fs[i], js[i]
        # at the last atom only the largest multiplicity can clear m_rem
        for c in (m_rem // f,) if i == n - 1 else range(m_rem // f + 1):
            counts[i] = c
            rec(i + 1, m_rem - c * f, n_rem - c * j, ln + c)
            if truncated:
                break
        counts[i] = 0

    rec(0, m_total, n_total, 0)
    return results, truncated


def _dfs_generic(atoms_desc, target, max_count, lengths_only=False):
    """Order-based search for any group kind, with Archimedean-level
    feasibility pruning for lex atoms."""

    def level(v: GroupElement) -> int:
        if v.group.kind != "lex":
            return 0
        for pos, i in enumerate(v.group.priority_order):
            if v.value[i] != 0:
                return pos
        return v.group.rank

    n = len(atoms_desc)
    results: list = []
    counts = [0] * n
    truncated = False

    def rec(i: int, r, ln: int) -> None:
        nonlocal truncated
        if truncated:
            return
        if r.is_zero:
            results.append(ln if lengths_only else tuple(counts))
            if len(results) >= max_count:
                truncated = True
            return
        if i == n or r.is_negative:
            return
        if level(atoms_desc[i]) > level(r):
            return
        top = _max_mult(atoms_desc[i], r)
        # at the last atom any multiplicity below top leaves a positive residual
        for c in (top,) if i == n - 1 else range(top + 1):
            counts[i] = c
            rec(i + 1, r - atoms_desc[i].scale(c), ln + c)
            if truncated:
                break
        counts[i] = 0

    rec(0, target, 0)
    return results, truncated


def _max_mult(atom: GroupElement, residual: GroupElement) -> int:
    if atom.group.kind == "Q":
        return int(residual.value / atom.value) if residual.value > 0 else 0
    lo_c, hi_c = 0, 1
    while atom.scale(hi_c) <= residual:
        hi_c *= 2
        if hi_c > 1 << 62:
            raise OverflowError("unbounded multiplicity in enumeration")
    while lo_c < hi_c - 1:
        mid = (lo_c + hi_c) // 2
        if atom.scale(mid) <= residual:
            lo_c = mid
        else:
            hi_c = mid
    return lo_c


def _dfs_filtered(m, atoms_desc, target, max_count, lengths_only=False):
    """Fraction-domain search with family congruence filters."""
    if isinstance(m, GeometricPuiseux):
        filt = _mq_filter(m.q, atoms_desc)
    else:
        filt = _m0_filter(atoms_desc)
    n = len(atoms_desc)
    results: list = []
    counts = [0] * n
    truncated = False
    min_atom = atoms_desc[-1].value

    def rec(i: int, r: Fraction, ln: int) -> None:
        nonlocal truncated
        if truncated:
            return
        if r == 0:
            results.append(ln if lengths_only else tuple(counts))
            if len(results) >= max_count:
                truncated = True
            return
        if i == n or r < 0 or (r < min_atom and r != 0):
            return
        for c in filt(i, r):
            counts[i] = c
            rec(i + 1, r - c * atoms_desc[i].value, ln + c)
            if truncated:
                break
        counts[i] = 0

    rec(0, target.value, 0)
    return results, truncated


def _mq_filter(q: Fraction, atoms_desc) -> Callable[[int, Fraction], Iterable[int]]:
    """At atom q^i the coefficient is congruent to the residue of
    residual/q^i modulo n(q), else the tail has no valid denominator."""
    nq, dq = q.numerator, q.denominator
    powers = [a.value for a in atoms_desc]

    def candidates(i: int, r: Fraction) -> Iterable[int]:
        y = r / powers[i]
        if not _den_support_ok(y.denominator, dq):
            return ()
        res = (y.numerator * pow(y.denominator, -1, nq)) % nq
        top = int(y)
        if top < res:
            return ()
        return range(res, top + 1, nq)

    return candidates


def _m0_filter(atoms_desc) -> Callable[[int, Fraction], Iterable[int]]:
    """At atom 1/p the coefficient is congruent to the forced residue of
    the residual at p; the residual's denominator support must lie within
    the remaining primes."""
    primes = [a.value.denominator for a in atoms_desc]

    def candidates(i: int, r: Fraction) -> Iterable[int]:
        den = r.denominator
        fac = factorize(den)
        if any(e > 1 for e in fac.values()):
            return ()
        rest = set(primes[i:])
        if not set(fac) <= rest:
            return ()
        p = primes[i]
        if p in fac:
            res = (r.numerator * pow(den // p, -1, p)) % p
        else:
            res = 0
        top = int(r * p)
        if top < res:
            return ()
        return range(res, top + 1, p)

    return candidates


# ---------------------------------------------------------------------------
# property probes


def probe_property(
    m: MonoidDescriptor,
    prop: str,
    bound,
    depth: Optional[int] = None,
    max_count: int = DEFAULT_MAX_COUNT,
) -> ProbeResult:
    """Bounded check of one atomicity/factorization property over all
    members below the bound (a coordinate box for lex families).

    Consistent means no counterexample exists below the bound; Refuted
    carries a finite witness (two conflicting factorizations, or a member
    provably outside the atomic set).

    Two window shapes have an integer code (``_encode``) and are decided
    by one saturated counting table built for all members at once: scalar
    atoms (Q, and lex groups of rank 1), and rank-2 lex windows whose
    atoms and nonzero members all have leading coordinate at least 1 (the
    first-positive cone, conductive monoids with such a threshold).  Any
    other shape (a conductive threshold with leading coordinate 0, the
    full cone, rank 3 and up) enumerates the window factorizations of each
    member in turn.
    """
    if prop not in PROBEABLE:
        raise ValueError(f"unknown property {prop!r}")
    members = [b for b in members_within(m, bound) if not b.is_zero]
    if depth is None:
        if isinstance(bound, (tuple, list)):
            depth = max(int(x) for x in bound) + 5
        else:
            depth = DEFAULT_DEPTH
    atom_set = atoms(m, depth)
    desc = atom_set.atoms[::-1]
    codes = _encode(desc, members)
    if codes is None:
        cells = _search_cells(m, desc, members, max_count)
    else:
        cells = _count_cells(*codes)
    any_incomplete = False
    for checked, (b, (lens, truncated)) in enumerate(zip(members, cells), 1):
        complete = atom_set.covers(b) and not truncated
        if not lens:
            if complete:
                witness = {"element": b, "reason": "no factorization into atoms"}
                return ProbeResult(m, prop, bound, "refuted", witness, checked)
            return ProbeResult(
                m,
                prop,
                bound,
                "inconclusive",
                {"element": b, "reason": "window search found nothing"},
                checked,
            )
        any_incomplete = any_incomplete or not complete
        bad = (
            (prop == "HFM" and len(lens) > 1)
            or (prop == "LFM" and any(c >= 2 for c in lens.values()))
            or (prop == "UFM" and sum(lens.values()) >= 2)
        )
        if bad:
            return ProbeResult(
                m, prop, bound, "refuted",
                {"element": b, "factorizations": _conflict_pair(m, b, depth, prop)},
                checked,
            )
    note = "atom windows incomplete for some members" if any_incomplete else None
    return ProbeResult(m, prop, bound, "consistent", None, len(members), note)


def _encode(desc, members):
    """Positive int codes for the atoms and the nonzero members, such that
    a multiset of atoms sums to a member exactly when its codes sum to the
    member's code; None when the shapes have no such code.

    Denominators are cleared first, and every atom and member must then
    have a leading (priority) coordinate x >= 1.  Scalar values are their
    own codes.  A rank-2 lex point (x, y) gets the code x*W + y.  Let L be
    the largest member x, lo and hi the least and greatest atom ratio y/x,
    ymax = max(L*max(hi, 0), member y) and ymin = min((L+1)*min(lo, 0),
    member y), and W = ymax - ymin + 1.  The code is injective on the
    points with 0 <= x <= L and ymin <= y <= ymax.  They hold every member,
    and every atom sum with x <= L, whose y lies in [x*lo, x*hi].  A sum
    with x >= L+1 has a code of at least x*(W + lo) > L*W + ymax, above
    every member code.  Atom codes are positive, so the counting table
    reaches a member's code only through partial sums with smaller codes.
    """
    if not desc:
        return None
    g = desc[0].group
    if g.kind == "Q":
        pts = [(v.value,) for v in (*desc, *members)]
    elif g.kind == "lex" and g.rank <= 2:
        order = g.priority_order
        pts = [tuple(v.value[i] for i in order) for v in (*desc, *members)]
    else:
        return None
    dens = lcm(*[c.denominator for p in pts for c in p])
    pts = [tuple(c.numerator * (dens // c.denominator) for c in p) for p in pts]
    if any(p[0] < 1 for p in pts):
        return None
    n = len(desc)
    if g.rank == 1:
        codes = [x for (x,) in pts]
        return codes[:n], codes[n:]
    apts, mpts = pts[:n], pts[n:]
    lead = max((x for x, _ in mpts), default=0)
    ymax = max(0, *(-(-lead * y // x) for x, y in apts), *(y for _, y in mpts))
    ymin = min(0, *((lead + 1) * y // x for x, y in apts), *(y for _, y in mpts))
    w = ymax - ymin + 1
    codes = [x * w + y for x, y in pts]
    return codes[:n], codes[n:]


def _count_cells(avals, mvals):
    """Saturated counting DP over (code, length): for each member code a
    {length: count} cell with counts exact up to the cap 2, which decides
    every probe predicate (no factorization, two lengths, a repeated
    length, two factorizations).  Nothing is truncated."""
    top = max(mvals, default=0)
    table: list[dict[int, int]] = [dict() for _ in range(top + 1)]
    table[0][0] = 1
    for a in sorted(avals):
        for v in range(a, top + 1):
            prev = table[v - a]
            if not prev:
                continue
            cur = table[v]
            for ln, cnt in prev.items():
                nl = ln + 1
                total = cur.get(nl, 0) + cnt
                cur[nl] = 2 if total > 2 else total
    return ((table[v], False) for v in mvals)


def _search_cells(m, desc, members, max_count):
    """The cells of _count_cells, member by member, from the window
    enumeration; a cell is truncated when max_count cut the search."""
    for b in members:
        lens, truncated = (
            _enumerate(m, desc, b, max_count, lengths_only=True) if desc else ([], False)
        )
        cell: dict[int, int] = {}
        for ln in lens:
            cell[ln] = 2 if ln in cell else 1
        yield cell, truncated


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
    on sampled member pairs (the generator window is always included)."""
    import random

    rng = random.Random(seed)
    window = list(generators(m, DEFAULT_DEPTH).generators)
    z = _zero_element(m)
    if ell(z) != 0:
        return False
    pool = list(window)
    if bound is not None:
        try:
            pool = [v for v in members_within(m, bound) if not v.is_zero]
        except UnsupportedFamily:
            pass
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


def _zero_element(m: MonoidDescriptor):
    from .monoids import _zero_of

    return _zero_of(m)
