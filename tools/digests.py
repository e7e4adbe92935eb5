"""Print one digest line per command of the fixed pipeline in
``tools/never_run.py``.

Usage (from anywhere):

    PYTHONPATH=src python3 tools/digests.py
    PYTHONPATH=<another checkout>/src python3 tools/digests.py

Each :data:`never_run.PIPELINE` command runs untraced, in order, through
:func:`ransomflow.cli.main` in one temporary directory that holds the inputs
:func:`never_run.write_inputs` writes. A line gives the command's exit status,
the sha256 of its stdout and of its stderr, and the sha256 of every file it
wrote or rewrote, by its path in that directory.

``ransomflow`` is imported from ``sys.path`` as given, so the second form
runs the other checkout's code on the same inputs: two runs print the same
lines exactly when every command exits alike and writes the same bytes.

Uses the standard library, and numpy through ``ransomflow``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from never_run import PIPELINE, write_inputs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: Path) -> dict:
    """sha256 of each file under ``directory``, by its POSIX relative path."""
    return {path.relative_to(directory).as_posix(): _sha256(path.read_bytes())
            for path in directory.rglob("*") if path.is_file()}


def digest_lines(directory: Path) -> list:
    """Write the inputs into ``directory``, a new or empty one, run
    :data:`PIPELINE` there and return one line per command."""
    from ransomflow import cli

    directory.mkdir(parents=True, exist_ok=True)
    write_inputs(directory)
    lines, cwd = [], os.getcwd()
    os.chdir(directory)
    try:
        for argv, _ in PIPELINE:
            before = _files(directory)
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                status = cli.main(argv)
            written = sorted((path, digest) for path, digest
                             in _files(directory).items()
                             if before.get(path) != digest)
            lines.append("; ".join([
                f"exit {status}: {' '.join(argv)}",
                f"stdout {_sha256(out.getvalue().encode())}",
                f"stderr {_sha256(err.getvalue().encode())}",
                *(f"{path} {digest}" for path, digest in written)]))
    finally:
        os.chdir(cwd)
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print(*digest_lines(Path(tmp)), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
