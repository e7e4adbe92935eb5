"""List the lines of ``src/ransomflow`` that no tier-1 test, or no command
of a fixed pipeline, runs.

Usage (from anywhere; extra arguments go to pytest):

    python3 tools/never_run.py [PYTEST_ARGS ...]
    python3 tools/never_run.py --pipeline

The tier-1 suite runs in this process under :func:`sys.settrace`. Only frames
whose code lives in ``src/ransomflow`` are traced line by line, so the suite
runs two to three times as slowly as without the trace. A line is executable
when the compiler gives it bytecode; each executable line that no test ran is
printed as ``path:line: source``, then their count. The exit status is
pytest's.

``--pipeline`` traces :func:`digests.digest_lines` instead, which runs the
:data:`digests.PIPELINE` commands in this process through
:func:`ransomflow.cli.main` in a temporary directory, on one
``perfbench/gen.py`` CSV (seed 7, 6,000 raw rows), on a copy of it with
quoted and padded cells, and on its header line alone. It prints each command's exit status before the lines none of them
ran, and exits 1, naming each command, when a command exits other than
listed.

Uses the standard library, and pytest for the suite or numpy for ``--pipeline``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import types
from pathlib import Path

from digests import PIPELINE, digest_lines

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


def traced(run) -> tuple:
    """Call ``run()`` under the line trace; returns (its result, {path: lines
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
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    by_path = {}
    for name, lines in ran.items():
        if lines is not None:
            by_path.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    return result, by_path


def run_suite(pytest_args: list) -> int:
    import pytest

    os.chdir(ROOT)
    return int(pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args]))


def run_pipeline() -> int:
    """Run :data:`PIPELINE` through :func:`digest_lines` in a temporary
    directory; 1 when a command exits other than listed, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(Path(tmp))
    status = 0
    for line, (argv, expected) in zip(lines, PIPELINE):
        ran = line.split(";", 1)[0]
        print(ran)
        if not ran.startswith(f"exit {expected}:"):
            print(f"expected exit {expected}: {' '.join(argv)}",
                  file=sys.stderr)
            status = 1
    return status


def main(argv: list) -> int:
    if argv == ["--pipeline"]:
        status, ran = traced(run_pipeline)
    else:
        status, ran = traced(lambda: run_suite(argv))
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
