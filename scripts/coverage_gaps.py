"""Print each statement of src/qcsym that the tier-1 tests never run, as
``file:line``.

Usage: python scripts/coverage_gaps.py

The tier-1 suite (``tests/``) runs in this process under a ``sys.settrace``
collector, and the lines it saw are compared with the statements of each
source file. It needs nothing beyond pytest, and tier-1 does not collect it.

- The collector is armed before pytest imports qcsym, so definitions and
  module-level statements count. It is armed again before each test,
  because a RecursionError inside a trace function switches tracing off,
  and the tests of deep nesting raise one. What such a test runs after the
  error is not seen: the parser's "nests too deeply" raise is listed though
  tests reach it.
- Tests that run qcsym in a subprocess are not traced, so a statement that
  only they reach is listed as never run.
- The property tests draw their examples from a fixed seed, so two runs
  list the same statements. Under other seeds a few statements that only
  some examples reach come and go.
- A statement ran when one of its own lines ran: a line of it outside the
  statements nested in it. A statement that compiles to no code, such as a
  docstring or ``pass``, is never listed.
- Tracing slows the suite about threefold: a run took about 105 s on a
  2-vCPU host with Python 3.11, against 35-38 s untraced. A test that
  fails under the slowdown still counts what it ran. pytest's report goes
  to stderr, the list to stdout.
"""
from __future__ import annotations

import ast
import contextlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qcsym"


def _executable_lines(code) -> set:
    """The lines that code, and the code nested in it, has instructions on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def _statements(node: ast.AST):
    """The statements directly under node, in its nested expressions and
    clauses too (an except clause's body, say)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from _statements(child)


def _span(stmt: ast.stmt) -> set:
    first = min([d.lineno for d in getattr(stmt, "decorator_list", ())] + [stmt.lineno])
    return set(range(first, stmt.end_lineno + 1))


def statement_lines(path: Path) -> dict:
    """Each statement's first line -> its own lines that have instructions."""
    source = path.read_text()
    executable = _executable_lines(compile(source, str(path), "exec"))
    out = {}
    todo = list(_statements(ast.parse(source)))
    while todo:
        stmt = todo.pop()
        nested = list(_statements(stmt))
        own = _span(stmt).difference(*map(_span, nested)) & executable
        if own:
            out[stmt.lineno] = own
        todo.extend(nested)
    return out


class _Collector:
    """A pytest plugin that records each (file, line) of src/qcsym that runs."""

    def __init__(self):
        self.hits = set()
        prefix = str(SRC)

        def local(frame, event, arg):
            if event == "line":
                self.hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local

        def calls(frame, event, arg):
            return local if frame.f_code.co_filename.startswith(prefix) else None

        self.trace = calls

    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)


def main() -> int:
    collector = _Collector()
    sys.settrace(collector.trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(
                ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")],
                plugins=[collector],
            )
    finally:
        sys.settrace(None)
    missed = []
    for path in sorted(SRC.glob("*.py")):
        ran = {line for name, line in collector.hits if name == str(path)}
        for first, own in sorted(statement_lines(path).items()):
            if not own & ran:
                missed.append(f"{path.relative_to(ROOT)}:{first}")
    print("\n".join(missed))
    print(f"{len(missed)} statements never ran; pytest exit status {int(status)}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
