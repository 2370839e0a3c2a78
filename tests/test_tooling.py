"""Tooling checks: the benchmark's traced runs wrap package functions by name,
so keep those names alive; and the pytest settings must survive a failing test."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMON = ROOT / "perfbench" / "common.py"
PYPROJECT = ROOT / "pyproject.toml"


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


FAILING_PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(0, 3))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_session(tmp_path):
    # A failing Hypothesis test under the repository's pytest settings must be
    # reported as one failure, and the tests after it must still run.
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
