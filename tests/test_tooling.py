"""Tooling checks: the benchmark's traced runs wrap package functions by name,
so keep those names alive; the package imports only what it declares, and
uses every name it imports; every public name has a caller outside the
tests; every source file parses as the oldest Python it supports; the
build's reference reads no whole-map move table; the pytest settings must
survive a failing test; and every demo runs."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cellplan
import cellplan.grid as grid_module
from cellplan import build_database, free_cells, random_map, save_database
from conftest import reference_build

ROOT = Path(__file__).resolve().parent.parent
COMMON = ROOT / "perfbench" / "common.py"
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "cellplan"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Public names that only users call: README documents them as queries.
USER_ONLY_NAMES = {"successors", "heuristic"}


@pytest.fixture
def trace_points(monkeypatch):
    """The benchmark's TRACE_POINTS, read from its file without writing
    bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_common", COMMON)
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    return common.TRACE_POINTS


def test_trace_points_resolve(trace_points):
    assert trace_points
    for mod_name, attr, layer in trace_points:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr} is gone"
        assert hasattr(importlib.import_module(f"cellplan.{layer}"), attr), \
            f"{attr} is not defined in layer {layer}"


def _declared_dependencies() -> set[str]:
    """Import names of `[project].dependencies` in pyproject.toml."""
    text = PYPROJECT.read_text()
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
            for dep in re.findall(r'"([^"]+)"', block)}


def test_runtime_imports_are_declared():
    # Installed but undeclared packages (scipy, networkx) must not creep in.
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"cellplan"}
    declared = _declared_dependencies()
    assert "numpy" in declared
    assert third_party <= declared, f"undeclared imports: {sorted(third_party - declared)}"


def test_imported_names_are_used(trace_points):
    # __init__.py re-exports what it imports, and a name the traced runs
    # wrap in a module is kept there for them.
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        wrapped = {attr for mod, attr, _ in trace_points if mod == f"cellplan.{path.stem}"}
        dead += [f"{path.name}:{line} {name}" for name, line in imported.items()
                 if name not in used | wrapped]
    assert not dead, f"imported but unused: {dead}"


def test_public_names_have_callers():
    """Every name cellplan exports is read somewhere the system runs: the
    package itself (but not __init__.py, which only re-exports), the demos
    or the benchmark. A name that only the tests call belongs in the tests."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert USER_ONLY_NAMES <= set(cellplan.__all__)
    uncalled = sorted(set(cellplan.__all__) - read - USER_ONLY_NAMES)
    assert not uncalled, f"public names with no caller outside the tests: {uncalled}"


def test_sources_parse_at_the_oldest_supported_python():
    """Every .py file of the package, the tests and the demos parses under
    the grammar of the oldest Python that pyproject.toml allows. This catches
    syntax from later versions only, not calls into a newer library."""
    oldest = re.search(r'^requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text(), re.M)
    version = (int(oldest.group(1)), int(oldest.group(2)))
    paths = [p for d in (PACKAGE, ROOT / "tests", ROOT / "demos") for p in sorted(d.rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


@pytest.mark.parametrize("corner_cut", [True, False], ids=["corner-cut", "no-corner-cut"])
def test_reference_build_reads_no_move_table(monkeypatch, corner_cut):
    """reference_build reads the move rule through neighbors() only: with
    grid.move_mask, the one whole-map move table, raising in every module
    that holds it, it still equals a kernel build made beforehand. So the
    kernel's equality with it also checks the kernel's move table."""
    g = random_map(5, 9, 11, 0.2, 4, allow_corner_cut=corner_cut)
    goal = [free_cells(g)[0], free_cells(g)[-1]]
    built = save_database(build_database(g, goal))

    def refuse(*args, **kwargs):
        raise AssertionError("the reference build read a whole-map move table")

    patched = set()
    table = grid_module.move_mask
    for module_name, module in list(sys.modules.items()):
        if getattr(module, "__dict__", {}).get("move_mask") is table:
            monkeypatch.setattr(module, "move_mask", refuse)
            patched.add(module_name)
    assert {"cellplan.grid", "cellplan.cellmap", "cellplan.moastar"} <= patched
    with pytest.raises(AssertionError, match="move table"):
        build_database(g, goal)
    assert save_database(reference_build(g, goal)) == built


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


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demos_run(demo, tmp_path):
    # Demos write their exports into the working directory.
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": pythonpath,
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
