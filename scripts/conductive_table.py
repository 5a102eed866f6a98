#!/usr/bin/env python3
"""Print the classification table for conductive monoids of Z and of the
lex plane, side by side with probe outcomes.

Usage: python scripts/conductive_table.py [max_a]
"""

import sys

from posmon.classify import PROPERTIES, classify_conductive
from posmon.elements import Z, Z2, lexvec
from posmon.factor import probe_property
from posmon.descriptors import Conductive


def main() -> int:
    max_a = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    print(f"{'a':>8s} | " + " ".join(f"{p:<7s}" for p in PROPERTIES))
    print("-" * (11 + 8 * len(PROPERTIES)))
    for a in range(1, max_a + 1):
        report = classify_conductive(lexvec(Z, a))
        row = " ".join(f"{report.status(p)[:7]:<7s}" for p in PROPERTIES)
        print(f"{a:>8d} | {row}")
        for prop in ("HFM", "LFM", "UFM"):
            probe = probe_property(Conductive(lexvec(Z, a)), prop, 30 * a)
            mark = "refuted" if probe.refuted else "consistent"
            expected = report.status(prop)
            agree = (expected == "Proved") == (mark == "consistent")
            print(f"{'':>8s} | probe {prop} at {30 * a}: {mark} ({'ok' if agree else 'DISAGREES'})")
    for a in (lexvec(Z2, 1, 0), lexvec(Z2, 0, 1)):
        report = classify_conductive(a)
        row = " ".join(f"{report.status(p)[:7]:<7s}" for p in PROPERTIES)
        print(f"{str(a):>8s} | {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
