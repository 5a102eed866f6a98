"""Exact elements of the ground groups used throughout the workbench.

Three kinds of totally ordered abelian group are supported:

* ``Q`` -- the additive rationals, via :class:`fractions.Fraction`;
* lexicographic vector groups ``Z^k`` / ``Q^k`` (rank k <= 8) with a
  declared priority coordinate that is compared first;
* the subgroup of the reals spanned by {1, sqrt(2), sqrt(3)}, stored as a
  rational coordinate triple.  The three basis values are linearly
  independent over Q, so equality is componentwise and a nonzero triple
  has nonzero real value, which makes exact sign determination possible.

All values are immutable after construction and safe to share between
threads.  Canonical text forms round-trip bit-exactly:

* rationals: ``"5/6"``, ``"-2"``
* lex vectors: ``"(1,-100)@prio=0"``
* triples: ``"1/2 + -3/2*sqrt2 + 0*sqrt3"``
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Union

MAX_LEX_RANK = 8

LT, EQ, GT = -1, 0, 1


class GroupMismatch(ValueError):
    """Raised when an operation mixes elements of different groups."""


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class Group:
    """Identifier for one of the supported ground groups.

    kind is one of "Q" (rationals), "lex" (lexicographic vectors) or
    "sqrt23" (rational span of {1, sqrt2, sqrt3}).  For lex groups,
    ``priority`` names the coordinate compared first; the remaining
    coordinates follow in natural index order.  ``rational_coords``
    distinguishes Q^k from Z^k.
    """

    kind: str
    rank: int = 1
    priority: int = 0
    rational_coords: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("Q", "lex", "sqrt23"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "lex":
            if not 1 <= self.rank <= MAX_LEX_RANK:
                raise ValueError(f"lex rank must be in [1, {MAX_LEX_RANK}]")
            if not 0 <= self.priority < self.rank:
                raise ValueError("priority out of range")
        elif self.rank != 1 or self.priority != 0 or self.rational_coords:
            raise ValueError("rank/priority/rational_coords only apply to lex groups")

    @property
    def priority_order(self) -> tuple[int, ...]:
        return (self.priority,) + tuple(
            i for i in range(self.rank) if i != self.priority
        )

    @property
    def is_archimedean(self) -> bool:
        return self.kind != "lex" or self.rank == 1

    @property
    def is_cyclic(self) -> bool:
        """True when the group is infinite cyclic (i.e. a copy of Z)."""
        return self.kind == "lex" and self.rank == 1 and not self.rational_coords

    @property
    def token(self) -> str:
        if self.kind == "Q":
            return "Q"
        if self.kind == "sqrt23":
            return "T"
        base = ("Q" if self.rational_coords else "Z") + (
            str(self.rank) if self.rank > 1 else ""
        )
        return base if self.priority == 0 else f"{base}p{self.priority}"

    def __repr__(self) -> str:
        return f"Group({self.token})"


Q = Group("Q")
T = Group("sqrt23")
Z = Group("lex", rank=1)
Z2 = Group("lex", rank=2)
Z2_SECOND = Group("lex", rank=2, priority=1)
Q2 = Group("lex", rank=2, rational_coords=True)

_GROUP_TOKEN_RE = re.compile(r"^(Q|Z)(\d*)(?:p(\d+))?$")


def group_from_token(token: str) -> Group:
    """Inverse of Group.token ("Q", "T", "Z", "Z2", "Z2p1", "Q2", ...)."""
    if token == "Q":
        return Q
    if token == "T":
        return T
    m = _GROUP_TOKEN_RE.match(token)
    if not m:
        raise ValueError(f"unknown group token {token!r}")
    base, rank_s, prio_s = m.groups()
    rank = int(rank_s) if rank_s else 1
    prio = int(prio_s) if prio_s else 0
    if base == "Q" and rank == 1:
        return Q
    return Group("lex", rank=rank, priority=prio, rational_coords=(base == "Q"))


# ---------------------------------------------------------------------------
# elements

Value = Union[Fraction, tuple]


@dataclass(frozen=True)
class GroupElement:
    """An exact element of one of the ground groups.

    ``value`` is a Fraction for kind "Q", a tuple of ints/Fractions for
    lex groups, and a (c0, c1, c2) Fraction triple for kind "sqrt23"
    representing c0 + c1*sqrt(2) + c2*sqrt(3).
    """

    group: Group
    value: Value

    def __post_init__(self) -> None:
        g = self.group
        if g.kind == "Q":
            if not isinstance(self.value, Fraction):
                object.__setattr__(self, "value", Fraction(self.value))
        elif g.kind == "lex":
            coords = tuple(self.value)
            if len(coords) != g.rank:
                raise ValueError(f"expected {g.rank} coordinates, got {len(coords)}")
            if g.rational_coords:
                coords = tuple(Fraction(c) for c in coords)
            else:
                for c in coords:
                    if isinstance(c, Fraction):
                        if c.denominator != 1:
                            raise ValueError("integer lex group given non-integer")
                        c = c.numerator
                    if not isinstance(c, int):
                        raise ValueError("integer lex group given non-integer")
                coords = tuple(int(c) for c in coords)
            object.__setattr__(self, "value", coords)
        else:
            c = tuple(Fraction(x) for x in self.value)
            if len(c) != 3:
                raise ValueError("triple needs exactly three coordinates")
            object.__setattr__(self, "value", c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GroupElement") -> "GroupElement":
        _require_same_group(self, other)
        if self.group.kind == "Q":
            return GroupElement(self.group, self.value + other.value)
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.value, other.value))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __neg__(self) -> "GroupElement":
        if self.group.kind == "Q":
            return GroupElement(self.group, -self.value)
        return GroupElement(self.group, tuple(-a for a in self.value))

    def scale(self, n: int) -> "GroupElement":
        """n-fold sum (Z-module action); n may be negative."""
        if not isinstance(n, int):
            raise TypeError("scale expects an integer")
        if self.group.kind == "Q":
            return GroupElement(self.group, self.value * n)
        return GroupElement(self.group, tuple(a * n for a in self.value))

    __mul__ = None  # scaling is via .scale(n); elements do not multiply

    def __abs__(self) -> "GroupElement":
        return self if not self.is_negative else -self

    # -- order --------------------------------------------------------------

    def _cmp(self, other: "GroupElement") -> int:
        _require_same_group(self, other)
        g = self.group
        if g.kind == "Q":
            a, b = self.value, other.value
            d = a.numerator * b.denominator - b.numerator * a.denominator
            return (d > 0) - (d < 0)
        if g.kind == "lex":
            for i in g.priority_order:
                a, b = self.value[i], other.value[i]
                if a != b:
                    return (a > b) - (a < b)
            return EQ
        diff = tuple(a - b for a, b in zip(self.value, other.value))
        return _triple_sign(*diff)

    def __lt__(self, other):
        return self._cmp(other) == LT

    def __le__(self, other):
        return self._cmp(other) != GT

    def __gt__(self, other):
        return self._cmp(other) == GT

    def __ge__(self, other):
        return self._cmp(other) != LT

    @property
    def is_zero(self) -> bool:
        if self.group.kind == "Q":
            return not self.value.numerator
        return all(c == 0 for c in self.value)

    @property
    def is_positive(self) -> bool:
        return not self.is_zero and self._sign() > 0

    @property
    def is_negative(self) -> bool:
        if self.group.kind == "Q":
            return self.value.numerator < 0
        return not self.is_zero and self._sign() < 0

    def _sign(self) -> int:
        g = self.group
        if g.kind == "Q":
            n = self.value.numerator
            return (n > 0) - (n < 0)
        if g.kind == "lex":
            for i in g.priority_order:
                c = self.value[i]
                if c != 0:
                    return 1 if c > 0 else -1
            return 0
        return _triple_sign(*self.value)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"<{self.group.token}:{to_text(self)}>"


def _require_same_group(g: GroupElement, h: GroupElement) -> None:
    if g.group is not h.group and g.group != h.group:
        raise GroupMismatch(f"mixed groups {g.group.token} and {h.group.token}")


def zero(group: Group) -> GroupElement:
    if group.kind == "Q":
        return GroupElement(group, Fraction(0))
    if group.kind == "lex":
        return GroupElement(group, (0,) * group.rank)
    return GroupElement(group, (Fraction(0),) * 3)


def rational(x) -> GroupElement:
    return GroupElement(Q, Fraction(x))


def lexvec(group: Group, *coords) -> GroupElement:
    return GroupElement(group, tuple(coords))


def triple(c0, c1, c2) -> GroupElement:
    return GroupElement(T, (Fraction(c0), Fraction(c1), Fraction(c2)))


SQRT2 = triple(0, 1, 0)
SQRT3 = triple(0, 0, 1)


# ---------------------------------------------------------------------------
# operations


def compare(g: GroupElement, h: GroupElement) -> int:
    """Total-order comparison; returns LT (-1), EQ (0) or GT (1)."""
    return g._cmp(h)


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    return g + h


def negate(g: GroupElement) -> GroupElement:
    return -g


def scale(n: int, g: GroupElement) -> GroupElement:
    return g.scale(n)


@dataclass(frozen=True)
class ArchClass:
    """An Archimedean class: the mutual big-O equivalence class of a
    nonzero element.  For lex groups the class is determined by the
    position (in priority order) of the first nonzero coordinate; the
    Archimedean kinds have a single class at level 0.

    Classes are ordered so that level 0 (the dominant elements) is the
    minimum of the value set.
    """

    group: Group
    level: int
    representative: GroupElement

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArchClass):
            return NotImplemented
        return self.group == other.group and self.level == other.level

    def __hash__(self) -> int:
        return hash((self.group, self.level))

    def _check(self, other: "ArchClass") -> None:
        if self.group != other.group:
            raise GroupMismatch("Archimedean classes of different groups")

    def __le__(self, other: "ArchClass") -> bool:
        self._check(other)
        return self.level <= other.level

    def __lt__(self, other: "ArchClass") -> bool:
        self._check(other)
        return self.level < other.level

    def __str__(self) -> str:
        return f"ArchClass(level={self.level} of {self.group.token})"


def _lex_level(g: GroupElement) -> int:
    """Position in priority order of the first nonzero coordinate."""
    for pos, i in enumerate(g.group.priority_order):
        if g.value[i] != 0:
            return pos
    raise ValueError("zero element has no Archimedean level")


def arch_valuation(g: GroupElement) -> ArchClass:
    """The Archimedean class of a nonzero element."""
    if g.is_zero:
        raise ValueError("the Archimedean valuation is undefined at 0")
    level = _lex_level(g) if g.group.kind == "lex" else 0
    return ArchClass(g.group, level, g)


def big_o(g: GroupElement, h: GroupElement) -> bool:
    """True iff |g| <= n|h| for some positive integer n."""
    _require_same_group(g, h)
    if h.is_zero:
        raise ValueError("big_o comparison against 0")
    if g.is_zero:
        return True
    if g.group.is_archimedean:
        return True
    return _lex_level(g) >= _lex_level(h)


# ---------------------------------------------------------------------------
# sign of c0 + c1*sqrt2 + c2*sqrt3

_TRIPLE_START_BITS = 64
# floor(sqrt2 * 2^64) and floor(sqrt3 * 2^64), the first refinement step
_SQRT2_64 = isqrt(2 << 2 * _TRIPLE_START_BITS)
_SQRT3_64 = isqrt(3 << 2 * _TRIPLE_START_BITS)


def _triple_sign(c0: Fraction, c1: Fraction, c2: Fraction) -> int:
    """Exact sign of c0 + c1*sqrt2 + c2*sqrt3; see _int_triple_sign."""
    # clear denominators; the sign is unchanged
    m = lcm(c0.denominator, c1.denominator, c2.denominator)
    return _int_triple_sign(
        c0.numerator * (m // c0.denominator),
        c1.numerator * (m // c1.denominator),
        c2.numerator * (m // c2.denominator),
    )


def _int_triple_sign(a: int, b: int, c: int) -> int:
    """Exact sign of a + b*sqrt2 + c*sqrt3 for ints, by adaptive-precision
    interval refinement.

    The precision doubles until the enclosing interval excludes zero;
    termination is guaranteed because {1, sqrt2, sqrt3} is linearly
    independent over Q, so a nonzero triple has nonzero value.
    """
    if not (a or b or c):
        return 0
    bits = _TRIPLE_START_BITS
    scale_, s2, s3 = 1 << bits, _SQRT2_64, _SQRT3_64
    while True:
        lo = a * scale_ + b * (s2 if b > 0 else s2 + 1) + c * (s3 if c > 0 else s3 + 1)
        hi = a * scale_ + b * (s2 + 1 if b > 0 else s2) + c * (s3 + 1 if c > 0 else s3)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
        scale_ = 1 << bits
        s2 = isqrt(2 * scale_ * scale_)  # floor(sqrt2 * 2^bits)
        s3 = isqrt(3 * scale_ * scale_)


# ---------------------------------------------------------------------------
# canonical text forms

_LEX_RE = re.compile(r"^\((.*)\)@prio=(\d+)$")


def to_text(g: GroupElement) -> str:
    k = g.group.kind
    if k == "Q":
        return str(g.value)
    if k == "lex":
        coords = ",".join(str(c) for c in g.value)
        return f"({coords})@prio={g.group.priority}"
    c0, c1, c2 = g.value
    return f"{c0} + {c1}*sqrt2 + {c2}*sqrt3"


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), reporting a zero denominator as a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_element(group: Group, text: str) -> GroupElement:
    """Parse the canonical text form of an element of `group`.

    parse_element(g, to_text(x)) == x holds bit-exactly for every x.
    """
    text = text.strip()
    if group.kind == "Q":
        return GroupElement(group, parse_fraction(text))
    if group.kind == "lex":
        m = _LEX_RE.match(text)
        if not m:
            # bare coordinate list is accepted for convenience
            body, prio = text.strip("()"), group.priority
        else:
            body, prio = m.group(1), int(m.group(2))
        if int(prio) != group.priority:
            raise ValueError(
                f"priority {prio} does not match group {group.token}"
            )
        parts = [p for p in body.split(",") if p.strip() != ""]
        return GroupElement(group, tuple(parse_fraction(p) for p in parts))
    parts = [p.strip() for p in text.split("+")]
    if len(parts) != 3 or not parts[1].endswith("*sqrt2") or not parts[2].endswith("*sqrt3"):
        raise ValueError(f"malformed triple {text!r}")
    return GroupElement(
        group,
        (
            parse_fraction(parts[0]),
            parse_fraction(parts[1][: -len("*sqrt2")]),
            parse_fraction(parts[2][: -len("*sqrt3")]),
        ),
    )
