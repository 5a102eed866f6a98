"""One window per (monoid, depth): the atom candidates of every family
that ``scripts/answer_sweep.py`` lists are generators of its window, and
the windows grow with the depth: at depths 1-4 by default, and at depths
1-8 with ``pytest -m slow tests/test_windows.py``."""

import importlib.util
from pathlib import Path

import pytest

from posmon.descriptors import UnsupportedFamily
from posmon.factor import _atom_rule
from posmon.monoids import generators

ROOT = Path(__file__).resolve().parent.parent


def _sweep_families() -> list:
    spec = importlib.util.spec_from_file_location("answer_sweep", ROOT / "scripts" / "answer_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep.window_families()


SWEEP_FAMILIES = _sweep_families()


def check_windows(m, depths) -> None:
    """Over the depths d: every atom candidate of m at d is a generator of
    m's window at d, and that window lies in the one at d + 1."""
    window = set(generators(m, depths[0]).generators)
    for depth in depths:
        deeper = set(generators(m, depth + 1).generators)
        assert window <= deeper, depth
        try:
            candidates = _atom_rule(m, depth).candidates
        except UnsupportedFamily:  # products have no atom rule
            candidates = []
        assert set(candidates) <= window, depth
        window = deeper


@pytest.mark.parametrize("m", SWEEP_FAMILIES, ids=str)
def test_candidates_lie_in_a_window_that_grows_with_the_depth(m):
    check_windows(m, range(1, 5))


@pytest.mark.slow
@pytest.mark.parametrize("m", SWEEP_FAMILIES, ids=str)
def test_candidates_lie_in_a_window_that_grows_with_the_depth_to_eight(m):
    # the Q^2 and Z[1/7] windows reach tens of thousands of elements here
    check_windows(m, range(1, 9))
