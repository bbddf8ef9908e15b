"""Every function the benchmark's span tracer wraps still exists where it
looks for it, so a traced run reports no missing spans."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans        # its dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.LAYER_FUNCTIONS


@pytest.mark.parametrize("layer, names", sorted(layer_functions().items()))
def test_traced_functions_exist(layer, names):
    module = importlib.import_module(f"darkfringe.{layer}")
    assert [n for n in names if not callable(getattr(module, n, None))] == []
