"""Columnar CSV parsing against the row-by-row reference.

The reference is the straightforward parser: ``csv.reader`` over the whole
stream, one validated tuple of stripped cells per row, then one encoding
pass per row and cell. The parser under test splits the bytes into cells
with array scans and handles each column as one block; it must give the
same rows, the same category tables and byte-identical encoded values, and
on bad input the same fault, line, column and cell, read from the error's
message, for path and bytes sources alike.
"""

import ast
import csv
import gc
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import HEADER, cell_rows, synthetic_csv_text

from ransomflow.dataset import (
    COLUMNS,
    HEADER_ALIASES,
    NAMES,
    NUMERIC,
    label_encode,
    parse_csv,
)
from ransomflow.errors import DataError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


def _ref_open(source):
    # every source is read with newline="", as a path always was, and
    # "utf-8-sig" drops one byte-order mark
    if isinstance(source, Path):
        return open(source, "r", encoding="utf-8-sig", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8-sig"), newline="")
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    return io.StringIO(data, newline="")


def missing_column(name):
    return DataError(f"required column {name!r} not found in header")


def ref_parse(source):
    with _ref_open(source) as stream:
        reader = csv.reader(stream)
        header_raw = next(reader, None)
        if header_raw is None:
            raise missing_column(NAMES[0])
        canonical = [HEADER_ALIASES.get(h.strip(), h.strip())
                     for h in header_raw]
        positions = []
        for name in NAMES:
            try:
                positions.append(canonical.index(name))
            except ValueError:
                raise missing_column(name) from None
        width = len(header_raw)
        numeric_cols = [(i, name) for i, (name, kind) in enumerate(COLUMNS)
                        if kind == NUMERIC]
        rows = []
        # a record names the line it starts on; a quoted field may span lines
        start = reader.line_num + 1
        for record in reader:
            line_no, start = start, reader.line_num + 1
            if not record:
                continue
            if len(record) != width:
                raise DataError(f"line {line_no}: expected {width} fields, "
                                f"found {len(record)}")
            cells = tuple(record[p].strip() for p in positions)
            for i, name in numeric_cols:
                try:
                    finite = math.isfinite(float(cells[i]))
                except ValueError:
                    finite = False
                if not finite:
                    raise DataError(f"line {line_no}: column {name!r} holds "
                                    f"non-numeric or non-finite value "
                                    f"{cells[i]!r}")
            rows.append(cells)
        return rows


def ref_encode(rows):
    maps = {name: sorted({row[j] for row in rows},
                         key=lambda s: s.encode("utf-8"))
            for j, (name, kind) in enumerate(COLUMNS) if kind != NUMERIC}
    values = np.empty((len(rows), len(NAMES)), dtype=np.float64)
    for j, (name, kind) in enumerate(COLUMNS):
        cells = [row[j] for row in rows]
        if kind == NUMERIC:
            values[:, j] = np.asarray(cells, dtype=np.float64)
            continue
        for i, cell in enumerate(cells):
            values[i, j] = maps[name].index(cell)
    return values, maps


# the messages of the three faults of a CSV's shape or cells; a quoted part
# is the repr of a column name or cell
FAULTS = {
    "missing-column": r"required column (?P<column>'\w+') not found in header",
    "ragged-row": r"line (?P<line_no>\d+): expected \d+ fields, "
                  r"found (?P<found>\d+)",
    "non-numeric-cell": r"line (?P<line_no>\d+): column (?P<column>'\w+') "
                        r"holds non-numeric or non-finite value (?P<value>.*)",
}


def fault(message: str) -> tuple:
    """(kind, line, column, cell, fields found) that a fault's message names,
    None for each part it does not hold; a message of no fault in
    :data:`FAULTS` has the kind "DataError" and no parts."""
    for kind, pattern in FAULTS.items():
        match = re.fullmatch(pattern, message, re.DOTALL)
        if match:
            parts = match.groupdict()
            return (kind, *(None if parts.get(part) is None
                            else ast.literal_eval(parts[part])
                            for part in ("line_no", "column", "value", "found")))
    return ("DataError", None, None, None, None)


def outcome(run):
    """What a parse gives: its tables, or the fault its error names."""
    try:
        return ("ok",) + run()
    except DataError as exc:
        return ("error", *fault(str(exc)))


def ref_outcome(source):
    def run():
        rows = ref_parse(source)
        values, used = ref_encode(rows)
        return len(rows), rows, used, values.tobytes()
    return outcome(run)


def new_outcome(source):
    def run():
        table = parse_csv(source)
        encoded, used = label_encode(table)
        assert encoded.values.flags.c_contiguous
        return (table.row_count, cell_rows(table), used,
                encoded.values.tobytes())
    return outcome(run)


def sources(text: str, tmp_path):
    data = text.encode("utf-8")
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    return {
        "path": lambda: path,
        "bytes": lambda: data,
    }


def assert_same(text, tmp_path):
    expected = None
    for kind, make in sources(text, tmp_path).items():
        got = new_outcome(make())
        assert got == ref_outcome(make()), kind
        expected = expected or got
        assert got == expected, kind
    return expected


ROWS = synthetic_csv_text(n_per_class=6, seed=5, duplicates=0,
                          bad_times=2)[0].splitlines()[1:]


def lines_text(*rows, header=HEADER, end="\n"):
    return end.join([header, *rows]) + end


def with_cell(row: str, column: int, value: str) -> str:
    cells = row.split(",")
    cells[column] = value
    return ",".join(cells)


def padded(row: str, pad: str = " ") -> str:
    return ",".join(f"{pad}{c}{pad}" for c in row.split(","))


CASES = {
    "plain": lines_text(*ROWS),
    "crlf": lines_text(*ROWS, end="\r\n"),
    "cr-only": lines_text(*ROWS, end="\r"),
    "mixed-line-ends": HEADER + "\r\n" + "\n".join(ROWS[:5]) + "\r"
    + "\r\n".join(ROWS[5:]) + "\n",
    "no-final-newline": lines_text(*ROWS)[:-1],
    "blank-lines": lines_text(ROWS[0], "", ROWS[1], "", "", *ROWS[2:], ""),
    "blank-crlf-lines": lines_text(ROWS[0], "", ROWS[1], "", *ROWS[2:],
                                   end="\r\n"),
    "padded-cells": lines_text(*(padded(r) for r in ROWS)),
    "tab-padded-header": lines_text(*ROWS, header=padded(HEADER, "\t")),
    "padding-only-differs": lines_text(ROWS[0], padded(ROWS[0]), ROWS[1],
                                       with_cell(ROWS[1], 2, " AP "),
                                       with_cell(ROWS[0], 0, "\t10 ")),
    "unicode-padding": lines_text(
        with_cell(ROWS[0], 1, "\u00a0TCP\u2003"),
        with_cell(ROWS[1], 7, "\u30001.5\u00a0"), *ROWS[2:]),
    "unicode-cells": lines_text(with_cell(ROWS[0], 3, "Lock\u00ffy"),
                                with_cell(ROWS[1], 3, "\u00e9da"), *ROWS),
    "quoted-commas": lines_text(with_cell(ROWS[0], 3, '"Wanna,Cry"'),
                                *ROWS[1:], with_cell(ROWS[2], 3, '"A,B"')),
    "quoted-newlines": lines_text(with_cell(ROWS[0], 3, '"Wanna\nCry"'),
                                  with_cell(ROWS[1], 5, '"x\r\ny"'), *ROWS,
                                  with_cell(ROWS[2], 3, '"Wanna\nCry"')),
    "quoted-newline-then-bad-cell": lines_text(
        with_cell(ROWS[0], 3, '"Wanna\nCry"'), ROWS[1],
        with_cell(ROWS[2], 7, "x")),
    "bad-cell-in-multi-line-record": lines_text(
        ROWS[0], with_cell(with_cell(ROWS[1], 3, '"Wanna\r\nCry"'), 8, "x"),
        ROWS[2]),
    "ragged-multi-line-record-after-quoted-lines": lines_text(
        with_cell(ROWS[0], 5, '"a\nb\nc"'), ROWS[1],
        with_cell(ROWS[2], 3, '"Wanna\nCry"') + ",extra"),
    "aliases-reordered-extra-column": "\n".join(
        ",".join(reversed(line.split(","))) + ",Extra"
        for line in [HEADER, *ROWS]) + "\n",
    "canonical-header": lines_text(*ROWS, header=HEADER.replace(
        "Ransomware", "Family").replace("Malware", "Threats")),
    "duplicated-lines": lines_text(*ROWS, *ROWS[::2], ROWS[0], ROWS[0]),
    "duplicated-bad-line": lines_text(ROWS[0], with_cell(ROWS[1], 8, "1e999"),
                                      ROWS[2], with_cell(ROWS[1], 8, "1e999")),
    "bad-line-duplicated-before-worse": lines_text(
        ROWS[0], with_cell(ROWS[1], 12, "port"), ROWS[2],
        with_cell(ROWS[1], 12, "port"), with_cell(ROWS[3], 0, "t")),
    "inf-cell": lines_text(ROWS[0], with_cell(ROWS[1], 7, "inf"), ROWS[2]),
    "nan-cell": lines_text(ROWS[0], ROWS[1], with_cell(ROWS[2], 0, "nan")),
    "infinity-spelled": lines_text(with_cell(ROWS[0], 9, "-Infinity")),
    "overflow-cell": lines_text(ROWS[0], with_cell(ROWS[1], 4, "1e400")),
    "empty-numeric-cell": lines_text(ROWS[0], with_cell(ROWS[1], 9, "")),
    "ragged-before-bad-cell": lines_text(ROWS[0], ROWS[1][:-3] + ",", ROWS[2],
                                         with_cell(ROWS[3], 0, "x")),
    "ragged-after-bad-cell": lines_text(ROWS[0], with_cell(ROWS[1], 0, "x"),
                                        ROWS[2], ROWS[3] + ",extra"),
    "ragged-and-bad-on-one-line": lines_text(
        ROWS[0], with_cell(ROWS[1], 0, "x") + ",extra"),
    "ragged-duplicated": lines_text(ROWS[0], "1,2,3", ROWS[1], "1,2,3"),
    "whitespace-only-line": lines_text(ROWS[0], " ", ROWS[1]),
    "bad-cells-in-two-columns-one-line": lines_text(
        ROWS[0], with_cell(with_cell(ROWS[1], 12, "p"), 7, "b")),
    "bad-cells-in-two-columns-two-lines": lines_text(
        ROWS[0], with_cell(ROWS[1], 12, "p"), with_cell(ROWS[2], 0, "t")),
    "header-repeated-as-data": lines_text(ROWS[0], HEADER, ROWS[1]),
    "header-only": HEADER + "\n",
    "header-then-blank-lines": HEADER + "\n\n\r\n",
    "empty-text": "",
    "blank-first-line": "\n" + lines_text(*ROWS),
    "missing-column": lines_text(*ROWS, header=HEADER.replace("BTC", "XBT")),
    "byte-order-mark": "\ufeff" + lines_text(*ROWS),
    "byte-order-mark-quoted": "\ufeff" + lines_text(
        with_cell(ROWS[0], 3, '"Wanna,Cry"'), *ROWS[1:]),
    "byte-order-mark-twice": "\ufeff\ufeff" + lines_text(*ROWS),
    "byte-order-mark-quoted-header": "\ufeff" + lines_text(
        *ROWS, header='"Time"' + HEADER[len("Time"):]),
    "byte-order-mark-blank-first-line": "\ufeff\n" + lines_text(*ROWS),
}


@pytest.mark.parametrize("name", list(CASES))
def test_parse_matches_reference(name, tmp_path):
    assert_same(CASES[name], tmp_path)


def test_cases_cover_errors_and_successes(tmp_path):
    kinds = {ref_outcome(text.encode("utf-8"))[:2] for text in CASES.values()}
    assert {("error", "ragged-row"), ("error", "non-numeric-cell"),
            ("error", "missing-column")} <= kinds
    assert any(kind[0] == "ok" for kind in kinds)


def test_duplicated_bad_line_reports_first_occurrence(tmp_path):
    result = assert_same(CASES["duplicated-bad-line"], tmp_path)
    assert result[:4] == ("error", "non-numeric-cell", 3, "USD")


def test_errors_name_the_physical_line_a_record_starts_on(tmp_path):
    # header, then a record spanning lines 2-3, then line 4, then line 5
    result = assert_same(CASES["quoted-newline-then-bad-cell"], tmp_path)
    assert result[:4] == ("error", "non-numeric-cell", 5, "BTC")
    # the bad cell sits on line 4, inside the record that starts on line 3
    result = assert_same(CASES["bad-cell-in-multi-line-record"], tmp_path)
    assert result[:4] == ("error", "non-numeric-cell", 3, "USD")
    # lines 2-4 and 5 hold rows; the ragged record starts on line 6
    result = assert_same(
        CASES["ragged-multi-line-record-after-quoted-lines"], tmp_path)
    assert result[:3] == ("error", "ragged-row", 6)


def test_benchmark_generator_csv_matches_reference(tmp_path):
    text, meta = gen.generate(41, raw_rows=20_000, duplicates=5_600,
                              bad_times=100)
    result = assert_same(text, tmp_path)
    assert result[0] == "ok" and result[1] == meta["parsed_rows"] == 20_000


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_gc_state_after_an_error(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with pytest.raises(DataError, match="non-numeric"):
            parse_csv(lines_text(ROWS[0], with_cell(ROWS[1], 0, "x")).encode())
        assert gc.isenabled() == enabled
        parse_csv(lines_text(*ROWS).encode())
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
