"""List the lines of ``src/ransomflow`` that no tier-1 test runs.

Usage (from anywhere; extra arguments go to pytest):

    python3 tools/never_run.py [PYTEST_ARGS ...]

The tier-1 suite runs in this process under :func:`sys.settrace`. Only frames
whose code lives in ``src/ransomflow`` are traced line by line, so the suite
runs two to three times as slowly as without the trace. A line is executable
when the compiler gives it bytecode; each executable line that no test ran is
printed as ``path:line: source``, then their count. The exit status is
pytest's.

Uses the standard library and pytest only.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ransomflow"


def executable_lines(path: Path) -> set:
    """The line numbers that hold bytecode in ``path``'s code objects."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_suite(pytest_args: list) -> tuple:
    """Run pytest under the line trace; returns (exit status, {path: lines
    run}) for the files of the package."""
    package = str(PACKAGE) + os.sep
    ran = {}  # co_filename -> set of lines run, or None outside the package

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            inside = os.path.realpath(name).startswith(package)
            ran[name] = set() if inside else None
        lines = ran[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    # the package is first imported under the trace, so its module-level
    # lines count as run
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    by_path = {}
    for name, lines in ran.items():
        if lines is not None:
            by_path.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    return int(status), by_path


def main(argv: list) -> int:
    status, ran = trace_suite(argv)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/ransomflow never run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
