"""Command-line front end.

Instances are addressed by a small grammar (family:params) or by gallery
id.  Exit codes: 0 all checks passed; 1 a refutation was found as
expected and certified; 2 expected-vs-computed mismatch or broken
certificate, including a malformed certificate document; 64 unknown
instance or parse failure, including a command line that argparse rejects
and a certificate file that cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import __version__
from .classify import PROPERTIES, classify_known
from .descriptors import (
    AlphaBeta,
    Conductive,
    FIRST_POSITIVE,
    FULL_CONE,
    GeometricPuiseux,
    LexCone,
    MonoidDescriptor,
    NearlyAtomicAlpha,
    PrimeReciprocal,
    almost_not_nearly_instance,
    numerical,
    quasi_not_almost_instance,
)
from .elements import group_from_token, parse_element, parse_fraction
from .factor import atoms, factorizations, length_set, probe_property, PROBEABLE
from .gallery import by_id, gallery_list, run_entry
from .jsonforms import descriptor_to_json
from .witness import (
    CertificateError,
    mq_chain,
    synthesize_break,
    verify_certificate_json,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64

_CONES = {
    "NxZ": ("Z2", FIRST_POSITIVE),
    "ZxZ": ("Z2", FULL_CONE),
    "ZxZp1": ("Z2p1", FULL_CONE),
    "QxQ": ("Q2", FIRST_POSITIVE),
}


class InstanceError(ValueError):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_instance(text: str) -> MonoidDescriptor:
    """Resolve an instance: gallery id first, then the family grammar
    (nm:3,5 | mq:2/3 | m0 | conductive:Z:a=3 | conductive:Z2:a=(1,0) |
    cone:NxZ | malphabeta:2/3 | nearly | quasi | almost)."""
    try:
        return by_id(text).descriptor
    except KeyError:
        pass
    head, _, rest = text.partition(":")
    try:
        if head == "nm":
            return numerical(*[int(x) for x in rest.split(",")])
        if head == "mq":
            return GeometricPuiseux(parse_fraction(rest))
        if head == "m0" and not rest:
            return PrimeReciprocal()
        if head == "malphabeta":
            return AlphaBeta(parse_fraction(rest))
        if head == "nearly" and not rest:
            return NearlyAtomicAlpha()
        if head == "quasi" and not rest:
            return quasi_not_almost_instance()
        if head == "almost" and not rest:
            return almost_not_nearly_instance()
        if head == "conductive":
            token, _, a_part = rest.partition(":")
            if not a_part.startswith("a="):
                raise InstanceError("conductive instances need a=<element>")
            group = group_from_token(token)
            a = parse_element(group, a_part[2:])
            return Conductive(a)
        if head == "cone":
            token, rule = _CONES[rest]
            return LexCone(group_from_token(token), rule)
    except (ValueError, KeyError, TypeError) as exc:
        raise InstanceError(f"cannot parse instance {text!r}: {exc}") from exc
    raise InstanceError(f"unknown instance {text!r}")


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _element_for(m: MonoidDescriptor, text: str):
    return parse_element(m.group, text)


def cmd_atoms(args) -> int:
    m = parse_instance(args.instance)
    a = atoms(m, args.depth)
    payload = {
        "instance": descriptor_to_json(m),
        "depth": a.depth,
        "atoms": [str(x) for x in a.atoms],
        "complete": a.complete,
        "note": a.note,
    }
    lines = [f"Atoms({m}) at depth {a.depth}:"]
    lines += [f"  {x}" for x in a.atoms]
    lines.append(f"  complete: {a.complete}" + (f"  [{a.note}]" if a.note else ""))
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_factorize(args) -> int:
    m = parse_instance(args.instance)
    b = _element_for(m, args.element)
    search = factorizations(m, b, args.depth, args.max_count)
    payload = {
        "instance": descriptor_to_json(m),
        "factorizations": [f.to_json() for f in search.factorizations],
        "complete": search.complete,
        "truncated": search.truncated,
        "note": search.note,
    }
    lines = [f"Z({b}) in {m}: {len(search.factorizations)} found"
             + (" (complete)" if search.complete else " (window-limited)")]
    lines += [f"  {f}" for f in search.factorizations[:50]]
    if search.note:
        lines.append(f"  note: {search.note}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_lengths(args) -> int:
    m = parse_instance(args.instance)
    b = _element_for(m, args.element)
    ls = length_set(m, b, args.depth)
    payload = {
        "instance": descriptor_to_json(m),
        "value": str(b),
        "lengths": list(ls.lengths),
        "complete": ls.complete,
    }
    _emit(
        payload,
        args.json,
        [f"L({b}) = {{{', '.join(map(str, ls.lengths))}}}"
         + (" (complete)" if ls.complete else " (window-limited)")],
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    m = parse_instance(args.instance)
    report = classify_known(m, depth=args.depth)
    payload = report.to_json()
    lines = [f"Classification of {m}:"]
    for prop in PROPERTIES:
        v = report.verdicts[prop]
        lines.append(f"  {prop:5s} {v.status:15s} [{v.source}]")
    lines.append(f"  chain consistent: {report.chain_ok}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_probe(args) -> int:
    m = parse_instance(args.instance)
    bound = _parse_bound(args.bound)
    result = probe_property(m, args.property, bound, depth=args.depth)
    payload = {
        "instance": descriptor_to_json(m),
        "property": result.property,
        "bound": str(bound),
        "verdict": result.verdict,
        "members_checked": result.members_checked,
    }
    if result.witness:
        payload["witness"] = {
            k: (str(v) if not isinstance(v, tuple) else [str(x) for x in v])
            for k, v in result.witness.items()
        }
    lines = [
        f"Probe {result.property} on {m} below {bound}: {result.verdict}"
        f" ({result.members_checked} members)"
    ]
    if result.witness:
        lines.append(f"  witness: {payload['witness']}")
    _emit(payload, args.json, lines)
    return EXIT_REFUTED if result.refuted else EXIT_OK


def _parse_bound(text: str):
    text = text.strip()
    if text.startswith("("):
        return tuple(int(x) for x in text.strip("()").split(","))
    if "," in text:
        return tuple(int(x) for x in text.split(","))
    return parse_fraction(text)


def cmd_chain(args) -> int:
    m = parse_instance(args.instance)
    if not isinstance(m, GeometricPuiseux):
        print("chain certificates exist for mq:<ratio> instances", file=sys.stderr)
        return EXIT_USAGE
    cert = mq_chain(m.q, args.depth)
    payload = cert.to_json()
    _emit(
        payload,
        args.json,
        [
            f"Ascending-chain certificate for {m}, depth {cert.depth}: replay OK",
            f"  head {cert.elements[0]}, tail {cert.elements[-1]}",
        ],
    )
    _maybe_write(args.output, payload)
    return EXIT_REFUTED


def cmd_break(args) -> int:
    m = parse_instance(args.instance)
    if not isinstance(m, GeometricPuiseux):
        print("break synthesis exists for mq:<ratio> instances", file=sys.stderr)
        return EXIT_USAGE
    cert = synthesize_break(m.q, args.steps, depth=args.depth)
    payload = cert.to_json()
    lines = [f"Hereditary-break certificate for {m}: {len(cert.steps)} steps replay OK"]
    for k, (st, (den, g, target)) in enumerate(zip(cert.steps, cert.obstructions()), 1):
        lines.append(
            f"  step {k}: a'={st.combined} (chain {st.chain_indices}),"
            f" s'={st.partial_sum} divides s_{st.divides_index};"
            f" head excluded: gcd {g} of {den}*generators does not divide {target}"
        )
    _emit(payload, args.json, lines)
    _maybe_write(args.output, payload)
    return EXIT_REFUTED


def _maybe_write(path, payload) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_verify(args) -> int:
    try:
        with open(args.certificate) as fh:
            obj = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.certificate}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    try:
        kind = verify_certificate_json(obj)
    except CertificateError as exc:
        print(f"FAIL: {exc}")
        return EXIT_MISMATCH
    print(f"OK: {kind} certificate replays bit-exactly")
    return EXIT_OK


def cmd_gallery(args) -> int:
    entries = gallery_list()
    if not args.run_all:
        payload = {
            "version": __version__,
            "entries": [
                {"id": e.id, "headline": e.headline, "instance": descriptor_to_json(e.descriptor)}
                for e in entries
            ],
        }
        _emit(payload, args.json, [f"{e.id:26s} {e.headline}" for e in entries])
        return EXIT_OK

    results = [(e.id, run_entry(e, args.depth)) for e in entries]
    payload = {"version": __version__, "results": []}
    lines = []
    all_ok = True
    for entry_id, result in results:
        all_ok = all_ok and result.ok
        lines.append(f"{'PASS' if result.ok else 'FAIL'}  {entry_id}")
        for name, passed, detail in result.checks:
            mark = "ok" if passed else "MISMATCH"
            lines.append(f"       [{mark}] {name}" + (f" -- {detail}" if detail else ""))
        payload["results"].append(
            {
                "id": entry_id,
                "ok": result.ok,
                "checks": [
                    {"name": n, "passed": p, "detail": d} for n, p, d in result.checks
                ],
                "report": result.report.to_json() if result.report else None,
            }
        )
    _emit(payload, args.json, lines)
    return EXIT_OK if all_ok else EXIT_MISMATCH


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
    p = argparse.ArgumentParser(
        prog="posmon",
        description="Exact workbench for factorization and atomicity in positive monoids",
    )
    p.add_argument("--version", action="version", version=f"posmon {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, depth_default=12):
        sp.add_argument("--depth", type=int, default=depth_default)
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("atoms", help="atom window of an instance")
    sp.add_argument("instance")
    common(sp)
    sp.set_defaults(func=cmd_atoms)

    sp = sub.add_parser("factorize", help="enumerate Z(element)")
    sp.add_argument("instance")
    sp.add_argument("element")
    sp.add_argument("--max-count", type=_positive_int, default=10_000)
    common(sp)
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("lengths", help="length set L(element)")
    sp.add_argument("instance")
    sp.add_argument("element")
    common(sp)
    sp.set_defaults(func=cmd_lengths)

    sp = sub.add_parser("classify", help="property report for an instance")
    sp.add_argument("instance")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("probe", help="bounded property probe")
    sp.add_argument("instance")
    sp.add_argument("property", choices=PROBEABLE)
    sp.add_argument("--bound", required=True, help="value bound, or box like 4,20")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("chain", help="ascending-chain certificate for mq instances")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", default=None)
    common(sp, depth_default=10)
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("break", help="hereditary-break synthesis for mq instances")
    sp.add_argument("instance")
    sp.add_argument("--steps", type=int, default=5)
    sp.add_argument("-o", "--output", default=None)
    common(sp, depth_default=None)  # None: twice the step count
    sp.set_defaults(func=cmd_break)

    sp = sub.add_parser("verify", help="re-check a certificate file")
    sp.add_argument("certificate")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("gallery", help="list or run the instance gallery")
    sp.add_argument("--run-all", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_gallery)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version, and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except InstanceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
