"""Line audit: which executable lines of src/cellplan does tier-1 never run?

Runs the tier-1 suite, without criterion 1 (the brute-force oracle, which
runs no library line the rest of the suite misses), in this process under
a sys.settrace line tracer, then prints every executable line of
src/cellplan that did not run, one per line as path:line: source. Lines
that no test is expected to reach are allowed: `return NotImplemented`,
the bodies of `__repr__`s, `cli.run` and the `__main__` guard.

    python tests/line_audit.py

Exits 0 when every line outside the allowlist ran, 1 when some did not or
when the suite itself failed. pytest does not collect this file. Tracing
slows Hypothesis examples past their 200 ms deadline, so the run loads a
profile without one.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cellplan"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_oracle_equivalence"
ALLOWED_FUNCTIONS = {("cli.py", "run")}


def executable_lines(path: Path) -> dict[int, str]:
    """Each line of `path` that some code object's line table names, with
    the name of the innermost function it lies in (the module's is
    "<module>"). A function's own first line (its def) runs as part of the
    code that defines it, so it is counted there."""
    lines: dict[int, str] = {}

    def walk(code: types.CodeType, inner: bool) -> None:
        for _start, _end, line in code.co_lines():
            if line and not (inner and line == code.co_firstlineno):
                lines[line] = code.co_name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, True)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), False)
    return lines


def allowed(path: Path, line: int, function: str, source: list[str]) -> bool:
    text = source[line - 1].strip()
    if text == "return NotImplemented":
        return True
    if function == "__repr__" or (path.name, function) in ALLOWED_FUNCTIONS:
        return True
    guard = next((i for i, s in enumerate(source, 1) if s.startswith("if __name__ == ")), None)
    return guard is not None and line >= guard


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    """The suite's exit code, and the (file, line) pairs of src/cellplan it ran."""
    import pytest
    from hypothesis import settings

    settings.register_profile("line-audit", deadline=None)
    prefix = str(SRC) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main([
            "-q", "-p", "no:cacheprovider", "--hypothesis-profile", "line-audit",
            "-W", "ignore::pytest.PytestAssertRewriteWarning",
            "--deselect", CRITERION_1, "tests",
        ])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code, hits = run_traced()
    total, excused, missed = 0, 0, []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, function in sorted(executable_lines(path).items()):
            total += 1
            if (str(path), line) in hits:
                continue
            if allowed(path, line, function, source):
                excused += 1
            else:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{total} executable lines: {len(missed)} did not run, "
          f"and {excused} allowlisted lines did not run")
    if code:
        print(f"the suite failed under the tracer (pytest exit code {code})")
    return 1 if code or missed else 0


if __name__ == "__main__":
    sys.exit(main())
