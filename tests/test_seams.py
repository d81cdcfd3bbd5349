"""The tracing seams of perfbench/tracer.py still exist in the package, so a
refactor cannot silently drop per-layer metrics."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _seams():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SEAMS


@pytest.mark.parametrize("module, attribute, span", _seams())
def test_seam_resolves_to_callable(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span
