"""The benchmark's per-layer metrics name package functions by dotted
path; a renamed or deleted function would read as zero time and zero calls
instead of failing.  Every such name must still resolve."""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _traced_names():
    import sys
    sys.path.insert(0, str(BENCHMARKS))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCHMARKS))
    return sorted({*layers.FUNCTION_TIMES.values(),
                   *layers.CALL_COUNTS.values(),
                   *layers.LayerState().hooks()})


@pytest.mark.parametrize("dotted", _traced_names())
def test_traced_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"heckeplan.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
