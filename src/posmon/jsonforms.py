"""JSON forms of elements, descriptors, certificates and reports.

Every JSON document of the package, descriptors included, is its
dataclass's fields under their JSON names (``_Codec``), so adding or
renaming a field changes the format.
"""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter, index, itemgetter, methodcaller
from typing import Union, get_args, get_origin, get_type_hints

from .descriptors import Element, MonoidDescriptor, ProductElement, UnsupportedFamily
from .elements import Group, GroupElement, group_from_token, parse_element, to_text


def element_to_json(x: Element):
    if isinstance(x, ProductElement):
        return {"left": element_to_json(x.left), "right": element_to_json(x.right)}
    return {"group": x.group.token, "value": to_text(x)}


def element_from_json(obj) -> Element:
    if "left" in obj:
        return ProductElement(
            element_from_json(obj["left"]), element_from_json(obj["right"])
        )
    return parse_element(group_from_token(obj["group"]), obj["value"])


def descriptor_to_json(m: MonoidDescriptor) -> dict:
    return _codec(type(m)).encode(m)


def descriptor_from_json(obj: dict) -> MonoidDescriptor:
    fam = obj["family"]
    for cls in MonoidDescriptor.__subclasses__():
        if cls.family == fam:
            return _codec(cls).decode(obj)
    raise UnsupportedFamily(f"unknown family tag {fam!r}")


class JsonForm:
    """Base of the dataclasses whose document is their fields (``_codec``):
    certificates, reports and their parts.  A class ``KIND`` is written
    as the "kind" tag."""

    def to_json(self) -> dict:
        return _codec(type(self)).encode(self)

    @classmethod
    def from_json(cls, obj: dict):
        return _codec(cls).decode(obj)


class _Codec:
    """The JSON form of one dataclass, built once from its fields and type
    hints: the tag ("family" for a descriptor, "kind" for a class
    ``KIND``), then each field under its JSON name, the one in its
    ``field(metadata={"json": ...})`` or else its own.  A None field is
    left out, and only a field whose default is None may be missing.  A
    malformed document raises TypeError, KeyError or ValueError."""

    def __init__(self, cls) -> None:
        self.cls = cls
        kind = getattr(cls, "KIND", None)
        self.tag = {"family": cls.family} if issubclass(cls, MonoidDescriptor) else {"kind": kind} if kind else {}
        hints = get_type_hints(cls)
        self.writers, self.readers = [], []
        for f in fields(cls):
            key = f.metadata.get("json", f.name)
            enc, dec = _converters(hints[f.name])
            self.writers.append((f.name, key, enc))
            # a missing key raises KeyError, or reads as None where None is the default
            self.readers.append((methodcaller("get", key) if f.default is None else itemgetter(key), dec))

    def encode(self, x) -> dict:
        out = dict(self.tag)
        for name, key, enc in self.writers:
            v = getattr(x, name)
            if v is not None:
                out[key] = enc(v)
        return out

    def decode(self, obj):
        obj = _expect(dict, obj)
        return self.cls(*[dec(get(obj)) for get, dec in self.readers])


_codec = lru_cache(maxsize=None)(_Codec)  # one codec per class


def _same(v):
    return v


def _expect(kind, v):
    """v, if its JSON type is exactly kind."""
    if type(v) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(v).__name__}")
    return v


_PLAIN_RATIO = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fraction(v) -> Fraction:
    """``Fraction(v)``, with a plain ASCII "n" or "n/d", the form that
    ``str`` writes, read as two ints without Fraction's string parser.
    Any other value, the errors included, goes through ``Fraction(v)``."""
    if type(v) is str and _PLAIN_RATIO.fullmatch(v):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(v)


# (encode, decode) by type hint; an int reads through ``operator.index``,
# which takes a bool as 0 or 1
_SCALARS = {
    int: (_same, index),
    str: (_same, partial(_expect, str)),
    dict: (_same, partial(_expect, dict)),
    object: (_same, _same),
    Fraction: (str, _fraction),
    Group: (attrgetter("token"), group_from_token),
    GroupElement: (element_to_json, element_from_json),
    MonoidDescriptor: (descriptor_to_json, descriptor_from_json),
}


def _converters(hint):
    """(encode, decode) for a field's type hint: a scalar above, Optional
    of one, a tuple of one item type, or a dataclass with its own codec."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        enc, dec = _converters(inner)
        return enc, lambda v: None if v is None else dec(v)
    if origin is tuple:
        # tuple[X, ...], or a fixed length of one item type such as tuple[int, int]
        (item,) = set(args) - {Ellipsis}
        size = None if args[-1] is Ellipsis else len(args)
        enc, dec = _converters(item)

        def dec_tuple(v):
            out = tuple(map(dec, _expect(list, v)))
            if size is not None and len(out) != size:
                raise ValueError(f"expected {size} entries, got {len(out)}")
            return out

        return (list if enc is _same else lambda v: [enc(x) for x in v]), dec_tuple
    if hint in _SCALARS:
        return _SCALARS[hint]
    codec = _codec(hint)
    return codec.encode, codec.decode
