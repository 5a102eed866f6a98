"""The phi enumerations of the two sqrt2/sqrt3 constructions, and their atoms.

M_(a,b)[q] (``descriptors.AlphaBeta``) indexes its irrational atoms by
S = {s in M_q : s < sqrt2} in discovery order (``alphabeta_domain``), and
the nearly-atomic instance by Q_(>=0) in Calkin-Wilf order
(``primes.calkin_wilf``); phi sends the n-th element to the n-th prime.
The atoms (alpha - s)/phi(s), (beta - s)/phi(s) and (alpha + x)/phi(x)
are built here from their int form (``_atom_ints``), which the reports of
``witness`` replay.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .elements import GroupElement, triple
from .primes import first_primes

_GRADE_CAP = 200  # the last grade the discovery enumeration reaches
_PHI_CAP = 8192  # the longest enumeration prefix that phi looks in


class EnumerationCapExceeded(RuntimeError):
    """A fixed cap of the sqrt2/sqrt3 constructions stopped a search
    before it found what it sought: ``value`` is that (an element count, an
    element or a divisor) and ``cap`` the bound it reached."""

    def __init__(self, message: str, value, cap: int) -> None:
        super().__init__(message)
        self.value = value
        self.cap = cap


@lru_cache(maxsize=None)
def alphabeta_domain(q: Fraction, count: int) -> tuple[Fraction, ...]:
    """First `count` elements of S = {s in M_q : s < sqrt2}, in discovery order.

    Discovery order: representations c_0 + c_1 q + ... + c_K q^K are
    enumerated by increasing grade K + sum(c_i) and lexicographic
    coefficient order inside a grade; a value joins S the first time it
    appears.  The order is fixed so that phi (n-th element -> n-th prime)
    is reproducible across runs.  Every site that walks this tuple reads
    phi by position, zipping it with ``first_primes``; only a value found
    by arithmetic (``verify_not_strongly_atomic``'s d + q^k) is looked up
    by ``alphabeta_phi``, in the value -> index map that ``_alphabeta_index``
    keeps beside the tuple.

    The walk runs in ints: grade g lists numerators over d^(g-1), d = d(q),
    and those already found are carried to the next grade by a factor d.
    A grade past ``_GRADE_CAP`` raises EnumerationCapExceeded.
    """
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    found = [Fraction(0)][:count]  # grade 0: the empty vector
    seen = {0}  # numerators over d^(grade-1) of the values found
    grade = 1
    while len(found) < count:
        if grade > 1:
            seen = {v * d for v in seen}
        den = d ** (grade - 1)
        for value in _graded_values(n, d, grade):
            if value in seen:
                continue
            seen.add(value)
            found.append(Fraction(value, den))
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


def _graded_values(n: int, d: int, grade: int) -> list[int]:
    """The values below sqrt2 of the coefficient vectors whose top index K
    and coefficient sum satisfy K + sum(c) == grade >= 1, top coefficient
    nonzero, by K and then lexicographically in c; as numerators over
    d^(grade-1), for q = n/d.

    Term i weighs n^i d^(grade-1-i), and the weights fall with i, so the
    least completion of a prefix puts the rest of the sum on the top index.
    Once that passes sqrt2, that is, its numerator passes isqrt(2
    d^(2 grade-2)) (sqrt2 d^(grade-1) is irrational), every larger choice
    at the current index does too, and the loop stops.
    """
    e = grade - 1
    den = d**e
    cut = isqrt(2 * den * den)
    weights = [n**i * d ** (e - i) for i in range(grade)]
    out: list[int] = []

    def rec(idx: int, top: int, budget: int, acc: int) -> None:
        wt = weights[top]
        if idx == top:  # the top coefficient takes what is left
            out.append(acc + wt * budget)
            return
        wi = weights[idx]
        for c in range(budget):
            if acc + c * wi + (budget - c) * wt > cut:
                break
            rec(idx + 1, top, budget - c, acc + c * wi)

    for top in range(grade):
        if (grade - top) * weights[top] <= cut:
            rec(0, top, grade - top, 0)
    return out


@lru_cache(maxsize=None)
def _alphabeta_index(q: Fraction, count: int) -> dict[Fraction, int]:
    """value -> position in ``alphabeta_domain(q, count)``."""
    return {s: i for i, s in enumerate(alphabeta_domain(q, count))}


def alphabeta_phi(q: Fraction, s: Fraction) -> int:
    """phi(s): the prime assigned to s by discovery order.  It looks s up in
    the enumeration prefixes of 16, 32, ... elements and raises
    EnumerationCapExceeded when s is not among the first ``_PHI_CAP``."""
    count = 16
    while True:
        i = _alphabeta_index(q, count).get(s)
        if i is not None:
            return first_primes(count)[i]
        if count >= _PHI_CAP:
            raise EnumerationCapExceeded(
                f"{s} not discovered within the enumeration cap, {_PHI_CAP} elements",
                s, _PHI_CAP,
            )
        count *= 2


def _atom_ints(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(c0, c1, c) with (num/den + r)/p == (c0 + c1 r)/c for r = sqrt2 or
    sqrt3: the atom (alpha + x)/p of the nearly-atomic instance has num/den
    = x, and the atoms (alpha - s)/p, (beta - s)/p of M_(a,b)[q] have -s."""
    return num, den, den * p


def nearly_atom(x: Fraction, p: int) -> GroupElement:
    """The atom (alpha + x)/p of the nearly-atomic instance, p = phi(x)."""
    x = Fraction(x)
    c0, c1, c = _atom_ints(x.numerator, x.denominator, p)
    return triple(Fraction(c0, c), Fraction(c1, c), 0)


def alphabeta_atom(s: Fraction, p: int, direction: str) -> GroupElement:
    """(alpha - s)/p or (beta - s)/p as an exact triple, p = phi(s)."""
    s = Fraction(s)
    c0, c1, c = _atom_ints(-s.numerator, s.denominator, p)
    if direction == "alpha":
        return triple(Fraction(c0, c), Fraction(c1, c), 0)
    if direction == "beta":
        return triple(Fraction(c0, c), 0, Fraction(c1, c))
    raise ValueError("direction must be 'alpha' or 'beta'")
