"""The integer search core: one atom list encoded once as a ``Window``,
and the three loops that enumerate its factorizations.

A window holds its atoms in descending order as int tuples of lex
coordinates in priority order or of (1, sqrt2, sqrt3) coefficients, one
common denominator cleared and every coordinate that is 0 on all atoms
dropped.  It picks its search loop from that encoded shape, not the
monoid family, and builds that loop's tables, once.  A query encodes only
its target, which has no factorization when its denominator does not
divide the window's or it is nonzero on a dropped coordinate; no search
works on group elements.

Rank 1 runs one scalar loop: with suffix gcds g_i = gcd(v_i, g_(i+1)),
the multiplicity at level i solves c * v_i = r (mod g_(i+1)), so it
steps through one residue class modulo g_(i+1) / g_i (n(q) for M_q, the
prime p_i for M_0).  Rank 2 with every atom's leading coordinate at least
1 (a plane window) runs one walk in which the leading coordinate is a
length budget and the trailing one is bounded by suffix ratio ranges,
compared by integer cross-multiplication; budgets with room for at most
one atom are leaves, and each node (level, residual) is expanded once and
its value kept (``_plane_walk``).  Neither needs the group's order, so
they also serve sqrt2/sqrt3 windows of those shapes.  Every other window
(lex windows of encoded rank 3 and up or with mixed leading coordinates,
and the other sqrt2/sqrt3 windows) runs one vector loop: the scalar rule
per coordinate, combined by CRT, and an order bound by tuple comparison
(lex) or exact signs (sqrt2/sqrt3).  All three loops are iterative, with
per-level arrays in place of recursion, and ``_enumerate``, which runs
the window's loop on the encoded target, is the only way into them.

Every search emits either full multiplicity vectors or (for length sets)
just factorization lengths; the latter avoids materializing large
tuples.  Each emits in lexicographic order of the multiplicity vector
over the descending atoms and stops at max_count, so the answer and the
truncated flag do not depend on which loop ran.

The module needs only ``elements``: the monoids that own an atom list
(``descriptors.FiniteGenerated``, ``factor.AtomSet``) build their windows
here.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional

from .elements import _SQRT2_64, _SQRT3_64, _int_triple_sign


def _pairs(desc, vec) -> tuple:
    """The (atom, multiplicity) pairs of a multiplicity vector over the
    descending atoms, without the zero multiplicities."""
    return tuple((a, c) for a, c in zip(desc, vec) if c > 0)


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
