"""The benchmark's traced runs wrap package functions by name; keep those names alive."""

import importlib
import importlib.util
import sys
from pathlib import Path

COMMON = Path(__file__).resolve().parent.parent / "perfbench" / "common.py"


def test_trace_points_resolve(monkeypatch):
    # Read the benchmark's module from its file without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_common", COMMON)
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    assert common.TRACE_POINTS
    for mod_name, attr, layer in common.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr} is gone"
        assert hasattr(importlib.import_module(f"cellplan.{layer}"), attr), \
            f"{attr} is not defined in layer {layer}"
