#!/usr/bin/env python3
"""Print every statement of the package that a pytest run never executes.

Usage:

    python3 scripts/line_coverage.py [pytest arguments]

It imports poisdirac from this checkout's src/, put first on sys.path, and
refuses, naming the path, a poisdirac already imported from anywhere else.
Runs pytest in this process (by default `-q -p no:cacheprovider tests`)
under a `sys.settrace` tracer that follows only frames whose code lives in
src/poisdirac/, then prints `path:line: source` for each statement none of
whose lines ran, and a count.  A statement is any statement of the
module's syntax tree except a bare string (a docstring) and `global` or
`nonlocal`, which compile to no code; it spans from its first line (its
first decorator, for a decorated definition) to its last, so a compound
statement ran when its header or any of its body ran.  Code that a test
runs in a subprocess is not seen, so a statement that only such tests
reach (`sys.exit(main())`) counts as never run.  Standard library
only, besides the pytest it runs.  Tracing slows the run two- to threefold,
so the suite does not run this script; it tests the collector alone.
The exit code is pytest's.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "poisdirac"


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement that compiles to code, in source order."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        spans.append((first, node.end_lineno))
    return sorted(spans)


def collect(root: Path, run: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """run()'s result, and the lines executed meanwhile in each file under root, by path."""
    prefix = str(root.resolve()) + "/"
    executed: dict[str, set[int]] = defaultdict(set)
    resolved: dict[str, str | None] = {}  # a code object's file name, resolved once

    def local(frame, event, arg):
        if event == "line":
            executed[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = str(Path(name).resolve())
            resolved[name] = path if path.startswith(prefix) else None
        return local if resolved[name] else None

    previous = sys.gettrace()
    sys.settrace(global_)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, dict(executed)


def unrun(path: Path, executed: set[int]) -> list[tuple[int, str]]:
    """(line, stripped source line) of each statement of the file with no executed line."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    return [(first, lines[first - 1].strip()) for first, last in statement_spans(source)
            if not executed.intersection(range(first, last + 1))]


def import_program() -> None:
    """Import poisdirac from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import poisdirac

    if Path(poisdirac.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported poisdirac from {poisdirac.__file__}, not from {SRC}")


def main(argv: list[str]) -> int:
    import pytest

    def run():
        import_program()  # under the tracer, so that the modules' top-level statements count
        return pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])

    code, executed = collect(PACKAGE, run)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unrun(path, executed.get(str(path.resolve()), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
