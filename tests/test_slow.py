"""Long-running checks (tens of seconds), excluded from the default run:
exact constructions and the committed digests of the answer sweep.

Run with:  pytest -m slow tests/test_slow.py -v -s
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from posmon.witness import prime_sum_refutation, verify_almost_not_nearly

ROOT = Path(__file__).resolve().parent.parent
SWEEP_DIGESTS = ROOT / "tests" / "data" / "answer_sweep.json"


@pytest.mark.slow
def test_prime_sum_refutation_for_one_half():
    """The candidate q = 1/2 excludes the prime 2, so the greedy reciprocal
    sum must pass 5/2 on the odd primes alone; the crossover sits in the
    millions.  The construction is deterministic and its replay is exact."""
    start = time.monotonic()
    cert = prime_sum_refutation(Fraction(1, 2))
    assert cert.excluded == (2,)
    assert cert.count == 361_138
    assert cert.last_prime == 5_195_977
    cert.verify()
    print(
        f"PASS slow prime-sum: q=1/2 needs {cert.count} odd primes "
        f"up to {cert.last_prime} ({time.monotonic() - start:.1f}s)"
    )


@pytest.mark.slow
def test_report_certifies_one_half_with_raised_cap():
    rep = verify_almost_not_nearly(1, candidates=[Fraction(1, 2)], prime_cap=10_000_000)
    assert rep.skipped == ()
    assert len(rep.certificates) == 1
    assert rep.certificates[0].excluded == (2,)


def sweep_digests(lines) -> dict:
    """One sha256 per query section of the sweep's output (its lines with
    one ``query`` value, newlines included, in output order)."""
    digests = {}
    for line in lines:
        digests.setdefault(json.loads(line)["query"], hashlib.sha256()).update(line.encode())
    return {query: h.hexdigest() for query, h in digests.items()}


@pytest.mark.slow
def test_answer_sweep_matches_committed_digests():
    """``scripts/answer_sweep.py``, run in a fresh interpreter, prints the
    committed answers: every query section hashes to its digest in
    ``tests/data/answer_sweep.json``, and a mismatch names each section
    that differs.  Its output does not depend on PYTHONHASHSEED.

    Regenerate the digests only for a deliberate change of answers, after
    listing every changed line against the parent's sweep output:

        PYTHONPATH=src python scripts/answer_sweep.py | python tests/test_slow.py > tests/data/answer_sweep.json
    """
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "answer_sweep.py")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    found = sweep_digests(run.stdout.splitlines(keepends=True))
    committed = json.loads(SWEEP_DIGESTS.read_text())
    differ = [q for q in {**committed, **found} if committed.get(q) != found.get(q)]
    assert not differ, f"answer sweep sections differ: {differ}"


if __name__ == "__main__":
    print(json.dumps(sweep_digests(sys.stdin), indent=2))
