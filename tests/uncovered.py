"""Print every executable line of ``src/trigof`` that the test suite never runs.

    PYTHONPATH=src python tests/uncovered.py [PYTEST-ARGS]

runs pytest in this process (on ``tests/`` unless other arguments are given)
under ``sys.settrace`` and ``threading.settrace``, counting the lines run in
the files of ``src/trigof``, and then prints each executable line that did
not run as ``path:line: text``, with a count at the end.  The executable
lines are those the compiled code objects map to (``co_lines``).  Code run in
a subprocess, such as a test that starts ``python -c``, is not traced, and a
forked child is not either.  This is a tool, not a test: pytest does not
collect it, and no coverage package is needed.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trigof"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code objects maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run(args) -> dict[str, set[int]]:
    """Run pytest with ``args`` under the tracer; the lines run, by file."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    ours: dict[str, str | None] = {}  # co_filename -> its absolute path in the package

    def local(frame, event, arg):
        if event == "line":
            ran[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.abspath(name)
            ours[name] = path if path.startswith(prefix) else None
            if ours[name]:
                ran.setdefault(path, set())
        return None if ours[name] is None else local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"pytest exited with {int(code)}")
    return ran


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ran = run(argv or [str(ROOT / "tests")])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable line(s) never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
