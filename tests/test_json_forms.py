"""Golden JSON forms and malformed certificate documents.

``tests/data/golden_json.txt`` holds one ``name<TAB>document`` line per
case below: the exact ``json.dumps(doc, sort_keys=True)`` of every
certificate kind, report, common-divisor replay and descriptor family.
A document is its class's fields under their JSON names, so a change to
a field changes these bytes.  Regenerate the file only for a deliberate
format change:

    PYTHONPATH=src python tests/test_json_forms.py > tests/data/golden_json.txt
"""

import dataclasses
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from posmon.classify import classify_known
from posmon.cli import parse_instance
from posmon.elements import Q2, Z, Z2, lexvec, rational, triple
from posmon.gallery import gallery_list
from posmon.descriptors import (
    Conductive,
    FiniteGenerated,
    GENERATE,
    GeometricPuiseux,
    Localized,
    MonoidDescriptor,
    PrimeReciprocal,
    Product,
    UnionShift,
    numerical,
)
from posmon.jsonforms import _fraction, descriptor_from_json, descriptor_to_json
from posmon.witness import (
    CertificateError,
    mq_chain,
    prime_sum_refutation,
    synthesize_break,
    verify_almost_not_nearly,
    verify_certificate_json,
    verify_nearly_atomic,
    verify_not_strongly_atomic,
    verify_quasi_witness,
)

GOLDEN = Path(__file__).parent / "data" / "golden_json.txt"

GRAMMAR = (
    "nm:3,5", "mq:2/3", "m0", "malphabeta:3/5", "nearly", "quasi", "almost",
    "conductive:Z:a=3", "conductive:Z2:a=(1,0)", "conductive:Q:a=1/2",
    "conductive:Z2p1:a=(0,2)", "cone:NxZ", "cone:ZxZ", "cone:ZxZp1", "cone:QxQ",
)


def certificates():
    yield "chain 2/3 depth 5", mq_chain(Fraction(2, 3), 5)
    yield "chain 3/7 depth 0", mq_chain(Fraction(3, 7), 0)
    yield "break 2/3 steps 3", synthesize_break(Fraction(2, 3), 3)
    yield "break 3/4 steps 2 depth 7", synthesize_break(Fraction(3, 4), 2, depth=7)
    yield "break 2/5 steps 0", synthesize_break(Fraction(2, 5), 0)
    for q in ("1/2", "4/3", "7/4", "29/9"):
        yield f"quasi {q}", verify_quasi_witness(Fraction(q))
    for q in ("1/5", "1/7", "3/31"):
        yield f"prime-sum {q}", prime_sum_refutation(Fraction(q))


CERTIFICATES = list(certificates())


def cases():
    """(name, object) for every golden document, in file order."""
    yield from CERTIFICATES
    yield "near-refutation-report window 3", verify_almost_not_nearly(3)
    yield "near-refutation-report capped", verify_almost_not_nearly(
        1, candidates=[Fraction(5), Fraction(1, 7)], prime_cap=2_000)
    yield "nearly-atomic-report depth 4", verify_nearly_atomic(4)
    for k, replay in enumerate(verify_not_strongly_atomic(Fraction(2, 3))):
        yield f"common-divisor 2/3 #{k}", replay
    for entry in gallery_list():
        yield f"descriptor {entry.id}", entry.descriptor
        yield f"property-report {entry.id}", classify_known(entry.descriptor)
    for text in GRAMMAR:
        yield f"grammar {text}", parse_instance(text)
    yield "descriptor fg-Q", FiniteGenerated(tuple(rational(Fraction(x)) for x in ("2/3", "1/2", "5/4")))
    yield "descriptor fg-Z2", FiniteGenerated((lexvec(Z2, 0, 1), lexvec(Z2, 1, -2)))
    yield "descriptor fg-sqrt23", FiniteGenerated((triple(1, 0, 0), triple(0, 1, 0), triple(Fraction(1, 2), 1, 0)))
    yield "descriptor localized 5 3/2", Localized(5, Fraction(3, 2))
    yield "descriptor localized 2 0", Localized(2, Fraction(0))
    yield "descriptor union 173/210", UnionShift(PrimeReciprocal(), threshold=Fraction(173, 210))
    yield "descriptor two rays", UnionShift(Localized(5, Fraction(3, 2)), Localized(2, Fraction(1, 2)), mode=GENERATE)
    yield "descriptor product nested", Product(
        Product(numerical(2, 3), Conductive(lexvec(Q2, 1, 0))),
        Product(GeometricPuiseux(Fraction(5, 7)), Conductive(lexvec(Z, 2))))
    yield "descriptor conductive Q", Conductive(rational(Fraction(7, 3)))
    yield "descriptor conductive Q2", Conductive(lexvec(Q2, 0, Fraction(1, 3)))


def document(obj) -> dict:
    return descriptor_to_json(obj) if isinstance(obj, MonoidDescriptor) else obj.to_json()


CASES = list(cases())
GOLDEN_DOCS = dict(line.split("\t", 1) for line in GOLDEN.read_text().splitlines())


@pytest.mark.parametrize("name,obj", CASES, ids=[name for name, _ in CASES])
def test_golden_bytes_and_round_trip(name, obj):
    doc = document(obj)
    assert json.dumps(doc, sort_keys=True) == GOLDEN_DOCS[name]
    doc = json.loads(json.dumps(doc))
    if isinstance(obj, MonoidDescriptor):
        assert descriptor_from_json(doc) == obj
    elif hasattr(obj, "from_json"):
        assert type(obj).from_json(doc) == obj


def test_golden_file_lists_every_case():
    assert list(GOLDEN_DOCS) == [name for name, _ in CASES]


@pytest.mark.parametrize("name,cert", CERTIFICATES, ids=[name for name, _ in CERTIFICATES])
def test_certificate_document_replays(name, cert):
    doc = json.loads(json.dumps(cert.to_json()))
    assert verify_certificate_json(doc) == doc["kind"]


# ---------------------------------------------------------------------------
# malformed certificates, field by field


def _wrong_container(value):
    """A list becomes an object, an object a list, a scalar a one-item list."""
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return [value]


def _breakages(obj, doc, path=()):
    """(path, how, mutate) for every dataclass field of obj and of the
    dataclasses nested in it; ``mutate(d)`` breaks the field's key in d,
    the object that holds it in a copy of the certificate document."""
    for f in dataclasses.fields(obj):
        key = f.metadata.get("json", f.name)
        if key not in doc:
            continue  # a None field is left out
        where = path + (key,)
        yield where, "missing", lambda d, key=key: d.pop(key)
        yield where, "null", lambda d, key=key: d.__setitem__(key, None)
        yield where, "container", lambda d, key=key: d.__setitem__(key, _wrong_container(d[key]))
        value = getattr(obj, f.name)
        if isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]):
            value, sub, where = value[0], doc[key][0], where + (0,)
        elif dataclasses.is_dataclass(value):
            sub = doc[key]
        else:
            continue
        for inner, how, mutate in _breakages(value, sub, where):
            yield inner, how, mutate


def _malformed():
    for name, cert in CERTIFICATES:
        doc = json.loads(json.dumps(cert.to_json()))
        for path, how, mutate in _breakages(cert, doc):
            yield f"{name}: {'.'.join(map(str, path))} {how}", doc, path, mutate


MALFORMED = list(_malformed())


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("name,doc,path,mutate", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_field_raises_certificate_error(name, doc, path, mutate):
    broken = json.loads(json.dumps(doc))
    mutate(_at(broken, path[:-1]))
    start = time.monotonic()
    with pytest.raises(CertificateError):
        verify_certificate_json(broken)
    assert time.monotonic() - start < 1


# ---------------------------------------------------------------------------
# the Fraction decoder reads plain "n/d" as two ints, and is Fraction(v)


FRACTION_CORPUS = [
    "3/4", "-3/4", "+3/4", " 3/4", "3 /4", "3/-4", "1_000/3", "00/5", "-0", "1/0", "-0/7",
    "\u0663/4", "1.5", "1e3", "", "3/4/5", "/4", "3/", "-", "12345678901234567890/9876543210",
    7, -2, None, 1.5, ["3/4"],
]


def _outcome(decode, v):
    try:
        return "value", decode(v)
    except Exception as exc:
        return "raises", type(exc)


@pytest.mark.parametrize("v", FRACTION_CORPUS, ids=repr)
def test_fraction_decoder_agrees_with_fraction(v):
    got = _outcome(_fraction, v)
    assert got == _outcome(Fraction, v)
    assert got[0] == "raises" or type(got[1]) is Fraction


if __name__ == "__main__":
    for name, obj in cases():
        print(f"{name}\t{json.dumps(document(obj), sort_keys=True)}")
