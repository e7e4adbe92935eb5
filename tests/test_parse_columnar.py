"""The columnar parser on larger and adversarial input, its numeric kernel
against ``float``, its hash grouping under forced collisions, and its heap.

Outcomes are compared with the row-by-row reference of
``test_parse_reference``: the same rows, category tables and encoded bytes,
or the same error.
"""

import csv
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import cell_rows
from test_parse_reference import (
    ROWS,
    lines_text,
    new_outcome,
    padded,
    ref_outcome,
    with_cell,
)

from ransomflow import dataset
from ransomflow.dataset import deduplicate, label_encode, parse_csv
from ransomflow.errors import DataError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

TEXT, _ = gen.generate(43, raw_rows=20_000, duplicates=5_000, bad_times=100)
HEADER, *LINES = TEXT.splitlines()
FAMILY, BTC = 3, 7  # cell positions in a generated line


def edited(column, values, every=7):
    """The generated lines with every ``every``-th line's ``column`` cell
    replaced by the next of ``values``, in turn."""
    out = list(LINES)
    for n, i in enumerate(range(0, len(out), every)):
        out[i] = with_cell(out[i], column, values[n % len(values)])
    return out


BIG_CASES = {
    "crlf": lines_text(*LINES, header=HEADER, end="\r\n"),
    "cr": lines_text(*LINES, header=HEADER, end="\r"),
    "padded": lines_text(*(padded(line, " \t"[i % 2] * (1 + i % 3))
                           for i, line in enumerate(LINES)), header=HEADER),
    "one-quoted-cell": lines_text(*edited(FAMILY, ['"Wanna,Cry"'], every=10**9),
                                  header=HEADER),
    "non-ascii-family": lines_text(
        *edited(FAMILY, ["Lockÿy", "ÉDA2", " JigŠaw　"]),
        header=HEADER),
    "prefix-categories": lines_text(*edited(FAMILY, ["A", "AP", "APx", "B"],
                                            every=2), header=HEADER),
    "nul-ended-cell": lines_text(*edited(FAMILY, ["Locky\x00", "Locky",
                                                  "\x00", "Locky\x00\x00"]),
                                 header=HEADER),
    "long-cells": lines_text(
        *edited(BTC, ["0.1000000000000000055511151231257827021181583404541015625",
                      "1." + "0" * 40], every=5),
        header=HEADER),
}
BIG_CASES["long-family-cells"] = lines_text(
    *edited(FAMILY, ["x" * 33, "x" * 40, "y" * 33, "x" * 32]), header=HEADER)


@pytest.mark.parametrize("name", list(BIG_CASES))
def test_large_input_matches_reference(name):
    data = BIG_CASES[name].encode("utf-8")
    result = new_outcome(data)
    assert result[0] == "ok" and result[1] == len(LINES)
    assert result == ref_outcome(data)


def test_hash_collisions_change_no_outcome(monkeypatch):
    data = BIG_CASES["nul-ended-cell"].encode("utf-8")
    expected = new_outcome(data)
    monkeypatch.setattr(dataset, "_row_hash",
                        lambda words: np.zeros(len(words), np.uint64))
    assert new_outcome(data) == expected
    encoded, _ = label_encode(parse_csv(data))
    monkeypatch.undo()
    again, _ = label_encode(parse_csv(data))
    assert deduplicate(encoded)[0].values.tobytes() == \
        deduplicate(again)[0].values.tobytes()


def numeric_csv(cells) -> bytes:
    """A CSV whose BTC column holds ``cells``, one row each."""
    return lines_text(*(with_cell(ROWS[i % len(ROWS)], BTC, cell)
                        for i, cell in enumerate(cells))).encode("utf-8")


def float_or_none(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


SPECIAL_CELLS = [
    "-0", "+5", "5.", ".5", "007", "-0.0", "+.5", "-5.", "0", "-.0",
    "123456789012345", "-1.23456789012345", "0.00000000000001",
    "999999999999999", "99999999999999.9", ".999999999999999",
    "1234567890123456", "0.1234567890123456", "9007199254740993",
    "0." + "1234567890" * 2 + "12", "0." + "1234567890" * 2 + "123",
    "1." + "0" * 21 + "1", "1_0", "1e5", "-2.5E-3", "0x10", ".", "-", "", "+",
    "+-1", "1.2.3", "1-", "1 2", "5\x00", "١٢٣",
    "١.٥", "inf", "-inf", "nan", "Infinity", "1e400",
]


@pytest.mark.parametrize("cell", SPECIAL_CELLS)
def test_numeric_kernel_matches_float_on_special_cells(cell):
    expected = float_or_none(cell)
    if expected is None:
        with pytest.raises(DataError) as err:
            parse_csv(numeric_csv([cell]))
        assert str(err.value) == (f"line 2: column 'BTC' holds non-numeric "
                                  f"or non-finite value {cell!r}")
        return
    [got] = parse_csv(numeric_csv([cell])).numbers["BTC"]
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def decimal_cells(draw, count):
    """Cells of the kernel's own form: a sign or none, then 1-15 digits with
    a ``.`` or none among them."""
    cells = []
    for _ in range(count):
        digits = "".join(map(str, draw.integers(0, 10, draw.integers(1, 16))))
        dot = int(draw.integers(-1, len(digits) + 1))
        if dot >= 0:
            digits = digits[:dot] + "." + digits[dot:]
        cells.append("+-"[draw.integers(0, 2)] * int(draw.integers(0, 2))
                     + digits)
    return cells


def test_numeric_kernel_is_bit_identical_to_float():
    draw = np.random.default_rng(25)
    randoms = [repr(v) for v in (draw.standard_normal(10_000)
                                 * 10.0 ** draw.integers(-12, 13, 10_000)).tolist()]
    decimals = decimal_cells(draw, 10_000)
    cells = randoms + decimals + [c for c in SPECIAL_CELLS
                                  if float_or_none(c) is not None]
    table = parse_csv(numeric_csv(cells))
    expected = np.array([float(c) for c in cells])
    assert table.numbers["BTC"].tobytes() == expected.tobytes()
    # the vectorized step read every cell of its form, not float()
    cells = table.cells[dataset.column_index("BTC")]
    _, fast = dataset._decimals(cells.block[:, :17], cells.length)
    assert fast[len(randoms):len(randoms) + len(decimals)].all()


# tracemalloc peak of parse, encode and dedup over the CSV's bytes, on 60k
# generated rows: 10.5 with one str per distinct record's cell, 5.8 with
# the cells held as byte blocks.
HEAP_BOUND = 8.0


def test_ingest_heap_peak_is_bounded_by_the_csv_size():
    text, _ = gen.generate(11, raw_rows=60_000, duplicates=16_800,
                           bad_times=300)
    data = text.encode("utf-8")
    del text
    tracemalloc.start()
    try:
        deduplicate(label_encode(parse_csv(data))[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < HEAP_BOUND * len(data)


@pytest.mark.parametrize("quote", ["", '"'])
def test_a_field_over_the_csv_limit_names_its_line(quote):
    limit = csv.field_size_limit()
    fits = with_cell(ROWS[1], FAMILY, quote + "x" * limit + quote)
    # more bytes than the limit, but not more characters
    wide = with_cell(ROWS[2], FAMILY, "é" * (limit // 2 + 1))
    over = with_cell(ROWS[3], FAMILY, quote + "x" * (limit + 1) + quote)
    table = parse_csv(lines_text(ROWS[0], fits, wide).encode("utf-8"))
    assert [len(row[FAMILY]) for row in cell_rows(table)] == [
        len(cell_rows(parse_csv(lines_text(ROWS[0]).encode()))[0][FAMILY]),
        limit, limit // 2 + 1]
    with pytest.raises(DataError, match=rf"^<bytes>: line 5: field larger "
                                        rf"than field limit \({limit}\)$"):
        parse_csv(lines_text(ROWS[0], fits, wide, over).encode("utf-8"))


@pytest.mark.parametrize("quote", ["", '"'])
def test_an_unreadable_field_is_reported_in_file_order(quote):
    first = with_cell(ROWS[0], FAMILY, quote + "Wanna" + quote)
    over = with_cell(ROWS[3], FAMILY, "x" * (csv.field_size_limit() + 1))
    for rows in ([first, ROWS[1] + ",extra", ROWS[2], over],
                 [first, with_cell(ROWS[1], BTC, "x"), over]):
        data = lines_text(*rows).encode("utf-8")
        assert new_outcome(data) == ref_outcome(data)
    with pytest.raises(DataError, match=r"^<bytes>: line 3: field larger"):
        parse_csv(lines_text(first, over, ROWS[1] + ",extra").encode("utf-8"))


def test_quoted_cells_lose_edge_line_ends_as_in_the_reference():
    data = lines_text(with_cell(ROWS[0], FAMILY, '"\nWanna\r\n"'),
                      *ROWS[1:4]).encode("utf-8")
    result = new_outcome(data)
    assert result[0] == "ok" and result == ref_outcome(data)
