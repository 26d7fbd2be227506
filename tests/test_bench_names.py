"""The benchmark's tracer (bench/spans.py) wraps radialsolve functions by
name; a name that no longer exists makes its install fail."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spanned() -> list[tuple[str, str]]:
    """(layer, name) of every entry in the tracer's SPANNED table, read from the file."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, name) for layer, names in spans.SPANNED.items() for name in names]


@pytest.mark.parametrize("layer, name", _spanned())
def test_every_spanned_name_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"radialsolve.{layer}"), name, None))
