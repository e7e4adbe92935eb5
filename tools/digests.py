"""Print one digest line per command of the fixed pipeline :data:`PIPELINE`.

Usage (from anywhere):

    PYTHONPATH=src python3 tools/digests.py
    PYTHONPATH=<another checkout>/src python3 tools/digests.py

Each :data:`PIPELINE` command runs, in order, through
:func:`ransomflow.cli.main` in one temporary directory that holds the inputs
:func:`write_inputs` writes. A line gives the command's exit status, the
sha256 of its stdout and of its stderr, and the sha256 of every file it
wrote or rewrote, by its path in that directory. ``tools/never_run.py
--pipeline`` runs the same commands, through :func:`digest_lines`, under its
line trace.

``ransomflow`` is imported from ``sys.path`` as given, so the second form
runs the other checkout's code on the same inputs: two runs print the same
lines exactly when every command exits alike and writes the same bytes.

Uses the standard library, and numpy through ``ransomflow``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
    # a zero-round model predicts A for every row, so S and SS score 0 for
    # a zero denominator
    (["train", "art", "--kind", "gbt", "--gbt-rounds", "0",
      "--output", "gbt-0"], 0),
    (["evaluate", "gbt-0/bundle.json", "art", "--output", "eval-gbt-0"], 0),
    (["compare", "eval-gbt-0/report.json", "eval-gbt-test/report.json",
      "--output", "comparison-gbt"], 0),
    # the LSTM saturates and trains on; at 1e308 its softmax rows stop
    # summing to 1; the SAE's loss overflows
    (["train", "art", *_SAE_LSTM, "--config", "huge-lstm-rate.json",
      "--output", "saturated"], 0),
    (["train", "art", *_SAE_LSTM, "--config", "overflowing-lstm-rate.json",
      "--output", "overflowed"], 3),
    (["train", "art", *_SAE_LSTM, "--config", "huge-sae-rate.json",
      "--output", "diverged"], 3),
    (["ingest", "header-only.csv", "--output", "empty"], 3),
    # these CSVs hold a quote, so csv reads them record by record; its
    # field size limit refuses the oversized cell
    (["ingest", "quoted.csv", "--output", "art-quoted"], 0),
    (["analyze", "art-quoted", "--output", "analysis-quoted"], 0),
    (["ingest", "oversized.csv", "--output", "art-oversized"], 3),
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


def quoted_copy(text: str) -> str:
    """``text`` with the family ``WannaCry`` written ``"Wanna,Cry"``, and
    every third row's ``SeedAddress`` padded with a space and a tab, the row
    after each such row's with a no-break space."""
    header, *rows = text.splitlines()
    family, seed = (header.split(",").index(name)
                    for name in ("Ransomware", "SeedAddress"))
    lines = [header]
    for i, row in enumerate(rows):
        cells = row.split(",")
        if cells[family] == "WannaCry":
            cells[family] = '"Wanna,Cry"'
        if i % 3 == 0:
            cells[seed] = f" {cells[seed]}\t"
        elif i % 3 == 1:
            cells[seed] = f"\u00a0{cells[seed]}\u00a0"
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_inputs(directory: Path) -> None:
    """``raw.csv``, its :func:`quoted_copy` ``quoted.csv``,
    ``oversized.csv`` (its header and first row, the family a quoted cell
    over ``csv``'s field size limit), ``header-only.csv`` and the
    :data:`CONFIGS` files the pipeline reads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # the benchmark's input generator

    text, _ = gen.generate(7, raw_rows=6000, duplicates=600, bad_times=40)
    (directory / "raw.csv").write_text(text, encoding="utf-8")
    (directory / "quoted.csv").write_text(quoted_copy(text), encoding="utf-8")
    header, row = text.splitlines()[:2]
    cells = row.split(",")
    cells[header.split(",").index("Ransomware")] = f'"{"x" * 131_073}"'
    (directory / "oversized.csv").write_text(
        f"{header}\n{','.join(cells)}\n", encoding="utf-8")
    (directory / "header-only.csv").write_text(text[:text.index("\n") + 1],
                                               encoding="utf-8")
    for name, doc in CONFIGS.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


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
