"""perfbench's tracer wraps posmon functions and reads posmon caches by
module and attribute name (``perfbench/tracing.py``'s SPANS and CACHES),
so a refactor that renames or drops one breaks ``--trace 1``.  These
tests read the two tables without installing the tracer; the source is
compiled in memory, so nothing is written under ``perfbench/``."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr, name", tracing.SPANS, ids=lambda x: x)
def test_every_span_resolves_to_a_function(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("module, attr, layer", tracing.CACHES, ids=lambda x: x)
def test_every_cache_resolves_and_reports_its_info(module, attr, layer):
    info = getattr(importlib.import_module(module), attr).cache_info()
    assert info.hits >= 0 and info.misses >= 0 and info.currsize >= 0, layer
