"""Finite descriptors for the monoid families of the gallery.

A descriptor is a frozen dataclass of the few parameters that fix its
monoid: the generators of a finitely generated monoid, the ratio of M_q,
the threshold of a conductive monoid, the group and rule of a lex cone,
and so on.  Descriptors are immutable and hash their fields once
(``MonoidDescriptor._hash_once``), so the caches keyed on them stay
cheap.  Membership and the windows are in ``monoids``, atoms and
factorizations in ``factor``, the JSON forms in ``jsonforms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Union

from .elements import Group, GroupElement, GroupMismatch, Q, T, rational
from .primes import is_prime
from .search import Window


class UnsupportedFamily(ValueError):
    """Raised when an operation has no procedure for the given family."""


class NotAMember(ValueError):
    """Raised when an argument required to be a member is not one."""


# ---------------------------------------------------------------------------
# elements of product monoids


@dataclass(frozen=True)
class ProductElement:
    """A pair (left, right) of group elements, for Product descriptors."""

    left: GroupElement
    right: GroupElement

    def __add__(self, other: "ProductElement") -> "ProductElement":
        return ProductElement(self.left + other.left, self.right + other.right)

    def __sub__(self, other: "ProductElement") -> "ProductElement":
        return ProductElement(self.left - other.left, self.right - other.right)

    def __neg__(self) -> "ProductElement":
        return ProductElement(-self.left, -self.right)

    @property
    def is_zero(self) -> bool:
        return self.left.is_zero and self.right.is_zero

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


Element = Union[GroupElement, ProductElement]


# ---------------------------------------------------------------------------
# descriptors


class MonoidDescriptor:
    """Base class; all concrete families are frozen dataclasses."""

    family: str = "abstract"
    _hash = None

    def __init_subclass__(cls, **kwargs) -> None:
        # a __hash__ in the class body keeps @dataclass from generating one
        super().__init_subclass__(**kwargs)
        cls.__hash__ = MonoidDescriptor._hash_once

    def _hash_once(self) -> int:
        """The fields' hash, kept at first use: every query looks its
        descriptor up in the atom cache, through ``Fraction.__hash__``."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))
        return self._hash

    @property
    def group(self) -> Group:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.family


@dataclass(frozen=True)
class FiniteGenerated(MonoidDescriptor):
    """<g_1, ..., g_k> for finitely many positive generators."""

    generators: tuple[GroupElement, ...]
    family = "finite-generated"

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("need at least one generator")
        g0 = self.generators[0].group
        for g in self.generators:
            if g.group != g0:
                raise GroupMismatch("generators from different groups")
            if not g.is_positive:
                raise ValueError("generators must be positive")
        # not a cached_property: set up front, ``window``'s attribute stays inline,
        # where a late one makes CPython build an instance __dict__ (250 bytes)
        object.__setattr__(self, "_window", None)

    @property
    def group(self) -> Group:
        return self.generators[0].group

    @property
    def window(self):
        """The encoded window (``search.Window``) of the distinct
        generators, descending: membership and the atoms' split rule
        search it."""
        if self._window is None:
            object.__setattr__(self, "_window", Window(sorted(set(self.generators), reverse=True)))
        return self._window

    def __str__(self) -> str:
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


def numerical(*gens: int) -> FiniteGenerated:
    """Additive submonoid of the nonnegative rationals with integer generators."""
    return FiniteGenerated(tuple(rational(g) for g in gens))


@dataclass(frozen=True)
class GeometricPuiseux(MonoidDescriptor):
    """M_q = <q^n | n >= 0> for 0 < q < 1 whose inverse is not an integer."""

    q: Fraction = field(metadata={"json": "ratio"})
    family = "geometric"

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", Fraction(self.q))
        if not 0 < self.q < 1:
            raise ValueError("ratio must lie strictly between 0 and 1")
        if self.q.numerator < 2:
            raise ValueError("ratio must have numerator >= 2 (1/q not an integer)")

    @property
    def group(self) -> Group:
        return Q

    def __str__(self) -> str:
        return f"M_{self.q}"


@dataclass(frozen=True)
class PrimeReciprocal(MonoidDescriptor):
    """M_0 = <1/p | p prime>."""

    family = "prime-reciprocal"

    @property
    def group(self) -> Group:
        return Q

    def __str__(self) -> str:
        return "M_0"


@dataclass(frozen=True)
class Conductive(MonoidDescriptor):
    """M_a = {0} union G_{>=a} for a positive threshold a."""

    threshold: GroupElement
    family = "conductive"

    def __post_init__(self) -> None:
        if not self.threshold.is_positive:
            raise ValueError("threshold must be positive")

    @property
    def group(self) -> Group:
        return self.threshold.group

    def __str__(self) -> str:
        return f"M_a[{self.group.token}, a={self.threshold}]"


FIRST_POSITIVE = "first-positive"
FULL_CONE = "full-cone"


@dataclass(frozen=True)
class LexCone(MonoidDescriptor):
    """A cone-style positive monoid of a lex vector group.

    rule "full-cone": the whole nonnegative cone G+.
    rule "first-positive": {0} union {v : priority coordinate of v > 0};
    e.g. {0} u (N x Z) in Z^2 and {0} u (Q_{>0} x Q) in Q^2.
    """

    lex_group: Group = field(metadata={"json": "group"})
    rule: str
    family = "lex-cone"

    def __post_init__(self) -> None:
        if self.lex_group.kind != "lex":
            raise ValueError("LexCone needs a lex vector group")
        if self.rule not in (FIRST_POSITIVE, FULL_CONE):
            raise ValueError(f"unknown cone rule {self.rule!r}")

    @property
    def group(self) -> Group:
        return self.lex_group

    def __str__(self) -> str:
        return f"cone[{self.lex_group.token}, {self.rule}]"


@dataclass(frozen=True)
class Localized(MonoidDescriptor):
    """{0} union {x in Z[1/p] : x >= t} for a prime p and threshold t >= 0."""

    prime: int
    min_nonzero: Fraction = field(metadata={"json": "min"})
    family = "localized"

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_nonzero", Fraction(self.min_nonzero))
        if not is_prime(self.prime):
            raise ValueError("localization base must be prime")
        if self.min_nonzero < 0:
            raise ValueError("threshold must be nonnegative")

    @property
    def group(self) -> Group:
        return Q

    def __str__(self) -> str:
        return f"Z[1/{self.prime}]_(>= {self.min_nonzero})"


@dataclass(frozen=True)
class Product(MonoidDescriptor):
    """Direct product; members are ProductElement pairs, componentwise."""

    left: MonoidDescriptor
    right: MonoidDescriptor
    family = "product"

    @property
    def group(self) -> Group:
        raise UnsupportedFamily("a product has no single ambient ground group")

    def __str__(self) -> str:
        return f"({self.left}) x ({self.right})"


UNION = "union"
GENERATE = "generate"


@dataclass(frozen=True)
class UnionShift(MonoidDescriptor):
    """Extension of a base monoid by a tail.

    mode "union" with a threshold: members are base-members together with
    the elements of the difference group of the base that are >= threshold
    (a set union; both parts are closed under addition across the union).

    mode "generate" with a tail descriptor: the monoid generated by the
    union of the two member sets, i.e. all sums base + tail.
    """

    base: MonoidDescriptor
    tail: Optional[MonoidDescriptor] = None
    threshold: Optional[Fraction] = None
    mode: str = UNION
    family = "union-shift"

    def __post_init__(self) -> None:
        if self.threshold is not None:
            object.__setattr__(self, "threshold", Fraction(self.threshold))
        if self.mode == UNION:
            if self.threshold is None or self.tail is not None:
                raise ValueError("union mode takes a threshold and no tail")
            if not isinstance(self.base, PrimeReciprocal):
                raise UnsupportedFamily(
                    "group-tail union is implemented over the prime-reciprocal base"
                )
            if self.threshold < Fraction(1, 2):
                # below 1/2 the tail splits prime reciprocals (1/2 = 5/14 +
                # 1/7 at threshold 1/3), so they are no longer all atoms
                raise UnsupportedFamily(
                    "group-tail union is implemented for thresholds >= 1/2"
                )
        elif self.mode == GENERATE:
            if self.tail is None or self.threshold is not None:
                raise ValueError("generate mode takes a tail and no threshold")
            if not (
                isinstance(self.base, Localized)
                and isinstance(self.tail, Localized)
                and self.base.prime != self.tail.prime
            ):
                raise UnsupportedFamily(
                    "generated union is implemented for two localized rays "
                    "at distinct primes"
                )
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def group(self) -> Group:
        return Q

    def __str__(self) -> str:
        if self.mode == UNION:
            return f"{self.base} u gp_(>= {self.threshold})"
        return f"<{self.base} u {self.tail}>"


@dataclass(frozen=True)
class AlphaBeta(MonoidDescriptor):
    """The rank-three construction over M_q with two extra basis directions.

    Generated by s, (alpha - s)/phi(s) and (beta - s)/phi(s) for s ranging
    over S = {s in M_q : s < alpha}, with alpha = sqrt2, beta = sqrt3 and
    phi the injection of S into the primes by discovery order.
    """

    q: Fraction = field(metadata={"json": "ratio"})
    family = "alpha-beta"

    def __post_init__(self) -> None:
        GeometricPuiseux(self.q)  # validates the ratio
        object.__setattr__(self, "q", Fraction(self.q))

    @property
    def group(self) -> Group:
        return T

    def __str__(self) -> str:
        return f"M_(a,b)[{self.q}]"


@dataclass(frozen=True)
class NearlyAtomicAlpha(MonoidDescriptor):
    """<q, (alpha + q)/phi(q) | q in Q_{>=0}> with alpha = sqrt2 and phi the
    injection of Q_{>=0} into the primes by Calkin-Wilf order."""

    family = "nearly-atomic-alpha"

    @property
    def group(self) -> Group:
        return T

    def __str__(self) -> str:
        return "M_nearly[sqrt2]"


def quasi_not_almost_instance() -> UnionShift:
    """<Z[1/2]_{>=0} u Z[1/3]_{>=4/3}>."""
    return UnionShift(
        base=Localized(2, Fraction(0)),
        tail=Localized(3, Fraction(4, 3)),
        mode=GENERATE,
    )


def almost_not_nearly_instance() -> UnionShift:
    """M_0 extended by the elements of its difference group that are >= 1."""
    return UnionShift(base=PrimeReciprocal(), threshold=Fraction(1), mode=UNION)
