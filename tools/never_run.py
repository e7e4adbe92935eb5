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

``--pipeline`` traces the :data:`PIPELINE` commands instead, run in this
process through :func:`ransomflow.cli.main` in a temporary directory on one
``perfbench/gen.py`` CSV (seed 7, 6,000 raw rows) and on its header line
alone, and prints each command's exit status before the lines none of them
ran. It exits 1, naming the command, when a command exits other than listed.

Uses the standard library, and pytest for the suite or numpy for ``--pipeline``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ransomflow"

_SAE_LSTM = ["--kind", "sae-lstm", "--sae-epochs", "1", "--lstm-epochs", "2",
             "--lstm-hidden", "16"]
# (argv, exit status) in order; the config files are written beside raw.csv
PIPELINE = (
    (["ingest", "raw.csv", "--output", "art"], 0),
    (["ingest", "raw.csv", "--split-before-dedup", "--subsample", "0.5",
      "--output", "art-sub"], 0),
    (["analyze", "art", "--output", "analysis"], 0),
    (["train", "art", *_SAE_LSTM, "--output", "sae"], 0),
    (["train", "art", *_SAE_LSTM, "--fine-tune", "--output", "tuned"], 0),
    (["train", "art", *_SAE_LSTM, "--config", "steps.json",
      "--output", "steps"], 0),
    (["train", "art", "--kind", "gbt", "--gbt-rounds", "3",
      "--output", "gbt"], 0),
    (["evaluate", "sae/bundle.json", "art", "--output", "eval-sae"], 0),
    (["evaluate", "tuned/bundle.json", "art", "--output", "eval-tuned"], 0),
    (["evaluate", "steps/bundle.json", "art", "--output", "eval-steps"], 0),
    (["evaluate", "gbt/bundle.json", "art", "--split", "train",
      "--output", "eval-gbt"], 0),
    (["evaluate", "gbt/bundle.json", "art", "--output", "eval-gbt-test"], 0),
    (["compare", "eval-sae/report.json", "eval-tuned/report.json",
      "--output", "comparison"], 0),
    # the LSTM saturates and trains on; at 1e308 its softmax rows stop
    # summing to 1; the SAE's loss overflows
    (["train", "art", *_SAE_LSTM, "--config", "huge-lstm-rate.json",
      "--output", "saturated"], 0),
    (["train", "art", *_SAE_LSTM, "--config", "overflowing-lstm-rate.json",
      "--output", "overflowed"], 3),
    (["train", "art", *_SAE_LSTM, "--config", "huge-sae-rate.json",
      "--output", "diverged"], 3),
    (["ingest", "header-only.csv", "--output", "empty"], 3),
)
CONFIGS = {
    "steps.json": {"lstm": {"sequence_layout": "feature-steps",
                            "num_layers": 2, "clip_threshold": 0.01},
                   "sae": {"activation": "tanh",
                           "convergence_threshold": 0.5}},
    "huge-lstm-rate.json": {"lstm": {"learning_rate": 1e300}},
    "overflowing-lstm-rate.json": {"lstm": {"learning_rate": 1e308}},
    "huge-sae-rate.json": {"sae": {"learning_rate": 1e300}},
}


def write_inputs(directory: Path) -> None:
    """``raw.csv``, ``header-only.csv`` and the :data:`CONFIGS` files the
    pipeline reads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # the benchmark's input generator

    text, _ = gen.generate(7, raw_rows=6000, duplicates=600, bad_times=40)
    (directory / "raw.csv").write_text(text, encoding="utf-8")
    (directory / "header-only.csv").write_text(text[:text.index("\n") + 1],
                                               encoding="utf-8")
    for name, doc in CONFIGS.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


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
    """Run :data:`PIPELINE` in a temporary directory; 1 when a command exits
    other than listed, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            from ransomflow import cli

            for argv, expected in PIPELINE:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    status = cli.main(argv)
                command = "ransomflow " + " ".join(argv)
                print(f"exit {status}: {command}")
                if status != expected:
                    print(f"expected exit {expected}: {command}\n"
                          f"{err.getvalue()}", end="", file=sys.stderr)
                    return 1
        finally:
            os.chdir(ROOT)
    return 0


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
