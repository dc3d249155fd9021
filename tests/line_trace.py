"""List every statement of the `mvtop` package that the tests never run.

    python tests/line_trace.py [pytest arguments]

Runs pytest in this process under `sys.settrace`, with `tests` as the default
argument, and traces only the frames whose code lives in `src/mvtop`.  Then it
prints, module by module, each statement that never ran, with its line number
and source.  A statement is a line where one starts and where the compiled code
can report a line event, so docstrings and `global` declarations do not count.

Lines that run only in a subprocess show as not run.  Among them are the CLI
probes that start `python -m mvtop.cli`, the `-S` module-load test, the
hashes recorded in a fresh interpreter, and `cli.run`, which ends its process.  Tracing makes the test run about four
times slower, so CI does not run this script.  It needs only the standard
library and pytest.
"""

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvtop"


def code_lines(code) -> set[int]:
    """The lines where a code object, or one nested in it, can report a line event."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> dict[int, str]:
    """Line number -> source line of each statement that can run."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    runnable = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    return {line: text[line - 1].strip() for line in sorted(starts & runnable)}


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The pytest exit code, and the lines run in each package file."""
    hits: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, str | None] = {}  # co_filename -> its package path, or None
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real.startswith(prefix) else None
        return local if inside[name] else None

    sys.settrace(start)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv or [str(ROOT / "tests")])
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statements(path)
        never = [line for line in lines if line not in hits[os.path.realpath(path)]]
        total += len(lines)
        missed += len(never)
        print(f"{path.relative_to(ROOT)}: {len(never)} of {len(lines)} statements never ran")
        for line in never:
            print(f"  {line:4d}  {lines[line]}")
    print(f"total: {missed} of {total} statements never ran; pytest exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
