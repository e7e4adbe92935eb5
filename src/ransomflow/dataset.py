"""Tabular pipeline for the UGRansome netflow layout, fixed in ``COLUMNS``.

Raw CSV rows pass through a fixed sequence: parse -> label-encode -> drop
duplicate rows -> drop non-positive timestamps -> stratified split. Each stage
is a standalone function so the CLI can reorder the split for leakage
experiments, and every stage is deterministic given its inputs.

Min-max scaling is not an ingest stage: ``feature_bounds`` fits the bounds on
the training rows, ``normalize`` scales rows with them, and a loaded artifact
fits them on first use and scales only the side a command reads.

Parsing holds no Python object per cell. Text without a ``"`` is split by
byte scans for line ends and commas; text with one is read by ``csv``. Each
column's stripped cells are gathered into one zero-padded byte block. A
numeric column is read by one vectorized decimal kernel, with ``float`` for
the cells outside its form; a categorical column, and ``deduplicate``, group
rows by a 64-bit hash checked against each group's first row.

Categorical codes are assigned by sorting the distinct strings of a column in
lexicographic UTF-8 byte order, so the mapping depends only on the value set,
never on row order. The encoding is a plain dict of those lists, one per
categorical column: the code of a name is its position in its list, and the
same dict is what ``dataset.json`` stores.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .errors import DataError, SchemaMismatch
from .serialize import csv_text

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Published copies of the dataset circulate with slightly different headers.
HEADER_ALIASES = {
    "Ransomware": "Family",
    "Malware": "Threats",
    "Netflow_Bytes": "NetflowBytes",
}

# The one UGRansome layout: 13 feature columns and the categorical target,
# in stored order. Every stored file holds this layout, so changing it must
# bump serialize.SCHEMA_VERSION.
COLUMNS = (
    ("Time", NUMERIC),
    ("Protocol", CATEGORICAL),
    ("Flag", CATEGORICAL),
    ("Family", CATEGORICAL),
    ("Clusters", NUMERIC),
    ("SeedAddress", CATEGORICAL),
    ("ExpAddress", CATEGORICAL),
    ("BTC", NUMERIC),
    ("USD", NUMERIC),
    ("NetflowBytes", NUMERIC),
    ("IPAddress", CATEGORICAL),
    ("Threats", CATEGORICAL),
    ("Port", NUMERIC),
    ("Prediction", CATEGORICAL),
)
TARGET = "Prediction"
NAMES = tuple(name for name, _ in COLUMNS)
FEATURE_NAMES = tuple(name for name in NAMES if name != TARGET)
NUMERIC_NAMES = tuple(name for name, kind in COLUMNS if kind == NUMERIC)
CATEGORICAL_NAMES = tuple(name for name, kind in COLUMNS if kind == CATEGORICAL)


def column_index(name: str) -> int:
    return NAMES.index(name)


# positions of the name lists above, as lists for numpy's fancy indexing
FEATURE_IDX = [column_index(n) for n in FEATURE_NAMES]
NUMERIC_IDX = [column_index(n) for n in NUMERIC_NAMES]
CATEGORICAL_IDX = [column_index(n) for n in CATEGORICAL_NAMES]


# The widest cell a column block holds; a longer cell is kept as bytes.
_WIDTH = 32
# Rows per step of the numeric kernel and the row hash: a step's
# temporaries stay small and in cache.
_ROWS = 1 << 15
# The ASCII bytes str.strip removes; every other whitespace is not ASCII.
_SPACE = np.array([b < 128 and chr(b).isspace() for b in range(256)])
# Those of them an unquoted cell may hold: all but CR and LF, which end lines.
_PADDING = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"
# _KEEP[n]: the mask that keeps the first n bytes of a block row
_KEEP = np.where(np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None], 255,
                 0).astype(np.uint8)
# 10**k, exact as a double for k <= 22
_POW10 = np.array([float(10 ** k) for k in range(17)])


@dataclass
class Cells:
    """One column's stripped UTF-8 cells, one per data row in file order.

    Row ``i`` of the zero-padded ``block`` holds cell ``i``'s ``length[i]``
    bytes, unless the cell is longer than ``_WIDTH``: ``long`` maps the row
    of each such cell to its bytes, its block row is zero and its length
    ``_WIDTH + 1``.
    """

    block: np.ndarray   # (rows, width) uint8
    length: np.ndarray  # (rows,) uint8
    long: dict

    def cell(self, i: int) -> bytes:
        if i in self.long:
            return self.long[i]
        return self.block[i, :self.length[i]].tobytes()

    def keys(self) -> np.ndarray:
        """A uint64 word row per cell, equal only for equal cells: the block
        row, zero-padded, then the length, or above ``_WIDTH`` an id of a
        long cell."""
        rows, width = self.block.shape
        words = np.zeros((rows, -(-width // 8) + 1), np.uint64)
        words.view(np.uint8)[:, :width] = self.block
        words[:, -1] = self.length
        ids = {}
        for i, cell in self.long.items():
            words[i, -1] = _WIDTH + 1 + ids.setdefault(cell, len(ids))
        return words


@dataclass
class RawTable:
    """Parsed cells in ``COLUMNS`` order: ``cells[j]`` holds column ``j``'s
    :class:`Cells`, and ``numbers`` maps each numeric column to its cells
    parsed as float64."""

    cells: tuple
    numbers: dict

    @property
    def row_count(self) -> int:
        return len(self.cells[0].length)


def _not_utf8(data: bytes, exc: UnicodeDecodeError, name: str) -> DataError:
    """The error for ``data`` whose decoding failed with ``exc``."""
    # the sentinel makes the prefix's last line the bad byte's line
    prefix = data[:exc.start].decode("utf-8") + "."
    line = len(io.StringIO(prefix, newline="").readlines())
    return DataError(f"{name}: line {line}: not UTF-8 text "
                     f"({exc.reason} at byte {exc.start})")


def _split(data: bytes, name: str):
    """(buf, start, end, comma, fields, line, unread) for text holding no
    ``"``.

    ``buf`` is ``data`` followed by ``_WIDTH`` zero bytes. Record ``r`` is
    line ``line[r]``, the bytes ``start[r]:end[r]`` with its end left out; it
    holds ``fields[r]`` fields, none if the line is blank, split at the
    sorted ``comma`` positions. CR, LF and CRLF each end a line, as in a file
    opened with ``newline=""``. The records stop before the first one
    ``csv`` cannot read, and ``unread`` is its :class:`DataError`, or None.
    """
    size = len(data)
    buf = np.zeros(size + _WIDTH, np.uint8)
    buf[:size] = np.frombuffer(data, np.uint8)
    text = buf[:size]
    end = np.flatnonzero(text == 10)
    cr = np.flatnonzero(text == 13)
    if cr.size:  # an LF right after a CR ends no further line
        end = np.union1d(cr, end[buf[end - 1] != 13])
    start = np.concatenate(
        ([0], end + 1 + ((buf[end] == 13) & (buf[end + 1] == 10))))
    if start[-1] < size:
        end = np.append(end, size)
    else:
        start = start[:-1]
    comma = np.flatnonzero(text == 44)
    fields = np.searchsorted(comma, end) - np.searchsorted(comma, start) + 1
    fields[start == end] = 0
    unread = None
    limit = csv.field_size_limit()  # csv refuses a longer field
    for r in np.flatnonzero(end - start > limit).tolist():
        cells = buf[start[r]:end[r]].tobytes().decode().split(",")
        if max(map(len, cells)) > limit:
            unread = DataError(f"{name}: line {r + 1}: field larger than "
                               f"field limit ({limit})")
            start, end, fields = start[:r], end[:r], fields[:r]
            break
    return (buf, start, end, comma, fields, np.arange(1, len(start) + 1),
            unread)


def _split_quoted(data: bytes, name: str):
    """:func:`_split`'s arrays for text holding a ``"``, read record by record
    by ``csv`` since a quoted field may span lines. ``buf`` holds the
    records' cells, each field after the first preceded by one separator
    byte, and ``line[r]`` is the line record ``r`` starts on."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    records, line, unread = [], [1], None
    try:
        for record in reader:
            records.append(record)
            line.append(reader.line_num + 1)
    except csv.Error as exc:
        unread = DataError(f"{name}: line {reader.line_num}: {exc}")
    cells = [cell.encode("utf-8") for record in records for cell in record]
    fields = np.fromiter(map(len, records), np.int64, len(records))
    # offsets[c]: where cell c starts, with a separator after every cell
    offsets = np.cumsum([0, *map(len, cells)]) + np.arange(len(cells) + 1)
    first = np.cumsum(fields) - fields
    start = offsets[first]
    end = np.maximum(offsets[first + fields] - 1, start)
    joined = b",".join(cells)
    buf = np.zeros(len(joined) + _WIDTH, np.uint8)
    buf[:len(joined)] = np.frombuffer(joined, np.uint8)
    return (buf, start, end, offsets[1:-1] - 1, fields,
            np.array(line[:-1], dtype=np.int64), unread)


def _strip(buf, start, end) -> None:
    """Narrow each cell span ``start:end`` of ``buf``, in place, to what
    ``str.strip`` leaves of its text."""
    for edge, step in ((start, 1), (end, -1)):
        at = np.arange(len(start))
        while at.size:
            at = at[(start[at] < end[at]) & _SPACE[buf[edge[at] - (step < 0)]]]
            edge[at] += step
    # an edge byte that is not ASCII may begin or end non-ASCII whitespace
    for i in np.flatnonzero((start < end)
                            & ((buf[start] | buf[end - 1]) >= 128)).tolist():
        cell = buf[start[i]:end[i]].tobytes().decode("utf-8")
        start[i] += len(cell.encode("utf-8")) - len(cell.lstrip().encode("utf-8"))
        end[i] = start[i] + len(cell.strip().encode("utf-8"))


def _cells(buf, start, end) -> Cells:
    """The :class:`Cells` of the spans ``start:end`` of ``buf``."""
    long = np.flatnonzero(end - start > _WIDTH).tolist()
    length = np.minimum(end - start, _WIDTH + 1).astype(np.uint8)
    short = np.where(length > _WIDTH, 0, length)
    width = max(1, int(short.max(initial=0)))
    block = sliding_window_view(buf, width)[start]
    block &= _KEEP[short, :width]
    return Cells(block, length, {i: buf[start[i]:end[i]].tobytes() for i in long})


def _decimals(block, length):
    """(value, fast) for the cells ``block[i, :length[i]]``: where ``fast``,
    the cell is ``[+-]?`` then at most 15 digits with at most one ``.`` among
    them, and ``value`` is ``float(cell)``.

    The digits form an integer m < 2**53 and the k after the ``.`` a power
    10**k <= 10**15; both are exact doubles, and IEEE division rounds m / 10**k
    correctly, as ``float`` rounds the decimal (Clinger's fast path).
    """
    mantissa, count, scale, dots = np.zeros((4, len(length)), np.int64)
    fast = (length > 0) & (length <= block.shape[1])
    for c, byte in enumerate(np.ascontiguousarray(block.T)):
        inside = c < length
        digit = (byte - 48 < 10) & inside
        dot = (byte == 46) & inside
        fast &= digit | dot | (((byte == 43) | (byte == 45)) if c == 0
                               else ~inside)
        mantissa = np.where(digit, mantissa * 10 + (byte - 48), mantissa)
        scale += digit & (dots > 0)
        dots += dot
        count += digit
    fast &= (dots <= 1) & (count > 0) & (count <= 15)
    value = mantissa / _POW10[scale]
    np.negative(value, out=value, where=block[:, 0] == 45)
    return value, fast


def _numbers(cells: Cells) -> np.ndarray:
    """A numeric column's cells as float64, NaN where ``float`` refuses one.

    Cells the vectorized kernel cannot read, such as ``1e5``, ``inf``, long
    or non-ASCII ones, go to ``float`` one at a time.
    """
    values = np.empty(len(cells.length))
    for a in range(0, len(values), _ROWS):
        rows = slice(a, a + _ROWS)
        value, fast = _decimals(cells.block[rows, :17], cells.length[rows])
        values[rows] = value
        for i in (a + np.flatnonzero(~fast)).tolist():
            try:
                values[i] = float(cells.cell(i).decode("utf-8"))
            except ValueError:
                values[i] = np.nan
    return values


def _missing(column: str) -> DataError:
    return DataError(f"required column {column!r} not found in header")


def parse_csv(source) -> RawTable:
    """Read a CSV, the file at the path ``source`` or the bytes ``source``,
    into ``COLUMNS`` order, validating shape and numeric cells.

    The header may list columns in any order and may use the known aliases;
    extra columns are rejected only when a required one is missing, and one
    byte-order mark before the header is dropped. A row whose field count
    differs from the header's, or a numeric cell that is not a finite float,
    raises :class:`DataError` naming the 1-based line (and the column and
    cell). The first bad line in file order is reported; on that line a
    wrong field count comes before a bad cell, and bad cells go in column
    order. Text that is not UTF-8 or that ``csv`` cannot read raises
    :class:`DataError` naming the source and line.

    Text holding no ``"`` is split into lines and fields by byte scans. Text
    holding one is read record by record by ``csv``, since a quoted field may
    span lines; an error in a record that spans lines names the line the
    record starts on.
    """
    if isinstance(source, bytes):
        data, name = source, "<bytes>"
    else:
        data, name = Path(source).read_bytes(), str(source)
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(data, exc, name) from None
    # a spreadsheet's "CSV UTF-8" export begins with a byte-order mark
    data = data.removeprefix("\ufeff".encode())
    quoted = b'"' in data
    padded = quoted or not data.isascii() or any(c in data for c in _PADDING)
    buf, start, end, comma, fields, line, unread = (
        _split_quoted if quoted else _split)(data, name)
    del data  # the cells are read from buf
    if not len(fields):
        raise unread or _missing(NAMES[0])
    first = np.searchsorted(comma, start)
    width = int(fields[0])
    cuts = comma[first[0]:first[0] + max(width - 1, 0)]
    header = [buf[s:e].tobytes().decode("utf-8")
              for s, e in zip([start[0], *(cuts + 1)], [*cuts, end[0]])]
    canonical = [HEADER_ALIASES.get(h.strip(), h.strip()) for h in header]
    positions = []
    for column in NAMES:
        try:
            positions.append(canonical.index(column))
        except ValueError:
            raise _missing(column) from None

    # A blank line holds no row; the first ragged or unread record stops the
    # parse once the cells before it are checked.
    ragged = np.flatnonzero(fields[1:] != width) + 1
    ragged = ragged[fields[ragged] > 0]
    stop = ragged[0] if ragged.size else len(fields)
    rows = np.flatnonzero(fields[1:stop]) + 1
    first = first[rows]
    cells = []
    for p in positions:
        s = start[rows] if p == 0 else comma[first + p - 1] + 1
        e = end[rows] if p == width - 1 else comma[first + p]
        if padded:
            _strip(buf, s, e)
        cells.append(_cells(buf, s, e))
    numbers = {}
    bad_cells = []
    for order, column in enumerate(NUMERIC_NAMES):
        j = column_index(column)
        numbers[column] = _numbers(cells[j])
        bad = np.flatnonzero(~np.isfinite(numbers[column]))
        if bad.size:
            bad_cells.append((int(line[rows[bad[0]]]), order, column,
                              cells[j].cell(int(bad[0])).decode("utf-8")))
    if bad_cells:
        line_no, _, column, cell = min(bad_cells)
        raise DataError(f"line {line_no}: column {column!r} holds non-numeric "
                        f"or non-finite value {cell!r}")
    if ragged.size:
        raise DataError(f"line {line[stop]}: expected {width} fields, found "
                        f"{fields[stop]}")
    if unread:
        raise unread
    return RawTable(cells=tuple(cells), numbers=numbers)


@dataclass
class EncodedTable:
    """All-numeric table; categorical cells hold integer codes as floats.

    ``maps`` is the encoding: each categorical column's names in code order,
    the lists ``dataset.json`` stores under ``preprocess.encoding``.
    """

    values: np.ndarray
    maps: dict

    @property
    def row_count(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, column_index(name)]

    def codes(self, name: str) -> np.ndarray:
        return self.column(name).astype(np.int64)

    def decoded(self, name: str) -> list:
        return [self.maps[name][c] for c in self.codes(name).tolist()]

    def target_codes(self) -> np.ndarray:
        return self.codes(TARGET)

    def with_values(self, values: np.ndarray) -> "EncodedTable":
        return EncodedTable(values=values, maps=self.maps)


def _codes(cells: Cells):
    """(categories, codes): a categorical column's distinct cells in UTF-8
    byte order, and each row's cell as its position among them."""
    first, group = first_occurrences(cells.keys())
    distinct = [cells.cell(i) for i in first.tolist()]
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    return ([distinct[i].decode("utf-8") for i in order],
            np.argsort(order)[group])


def label_encode(table: RawTable):
    """Turn string cells into a float matrix. Returns (EncodedTable, its
    encoding), the encoding mapping each categorical column to its names in
    code order.

    Codes are built from this table's own value set.
    """
    categories = {}
    values = np.empty((table.row_count, len(NAMES)), dtype=np.float64)
    for j, (name, kind) in enumerate(COLUMNS):
        if kind == NUMERIC:
            values[:, j] = table.numbers[name]
        else:
            categories[name], values[:, j] = _codes(table.cells[j])
    return EncodedTable(values=values, maps=categories), categories


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _row_hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of the uint64 matrix ``words``."""
    h = np.zeros(len(words), np.uint64)
    for a in range(0, len(words), _ROWS):  # a block of rows stays in cache
        part = h[a:a + _ROWS]
        for column in words[a:a + _ROWS].T:
            part ^= column
            part *= _MIX
            part ^= part >> np.uint64(29)
    return h


def _groups(keys: np.ndarray):
    """(first, group): the index of each distinct key's first occurrence, in
    key order, and each key's position among the distinct keys."""
    _, group = np.unique(keys, return_inverse=True)
    first = np.full(group.max(initial=-1) + 1, len(keys))
    np.minimum.at(first, group, np.arange(len(keys)))
    return first, group


def first_occurrences(rows: np.ndarray):
    """(first, group) for the rows of a 2-D array of 8-byte items, compared
    by their bytes, so -0.0 and 0.0 differ: the index of each distinct row's
    first occurrence, ascending, and each row's position in ``first``.

    Rows are grouped by a 64-bit hash and then checked against their group's
    first row; if two distinct rows share a hash, the rows' bytes are grouped
    instead.
    """
    words = rows.view(np.uint64)
    first, group = _groups(_row_hash(words))
    held = first[group]
    if any((words[held[a:a + _ROWS]] != words[a:a + _ROWS]).any()
           for a in range(0, len(words), _ROWS)):
        whole = np.dtype((np.void, words.itemsize * words.shape[1]))
        first, group = _groups(np.ascontiguousarray(words).view(whole).ravel())
    order = np.argsort(first)
    return first[order], np.argsort(order)[group]


def deduplicate(table: EncodedTable):
    """Drop exact duplicate rows, keeping the first occurrence.

    Returns (table, removed_count). Row order of survivors is preserved.
    """
    first, _ = first_occurrences(table.values)
    return table.with_values(table.values[first]), table.row_count - len(first)


def clean_timestamps(table: EncodedTable):
    """Drop rows whose timestamp is not positive. Returns (table, removed)."""
    times = table.column("Time")
    mask = times > 0.0
    removed = int((~mask).sum())
    return table.with_values(table.values[mask]), removed


def feature_bounds(table: EncodedTable):
    """The min-max bounds of the 13 feature columns: per-column (mins, maxs)
    arrays of ``table``, the training rows, of which there is at least one."""
    raw = table.values[:, FEATURE_IDX]
    return raw.min(axis=0), raw.max(axis=0)


def normalize(table: EncodedTable, bounds) -> np.ndarray:
    """The 13 feature columns of ``table`` min-max scaled with the training
    ``bounds`` into [0, 1].

    Rows outside the training range are clamped into [0, 1], so unseen
    extremes cannot escape it. Constant columns map to 0.
    """
    x = table.values[:, FEATURE_IDX]  # a copy, scaled in place
    mins, maxs = bounds
    span = maxs - mins
    constant = ~(span > 0.0)
    x -= mins
    x /= np.where(constant, 1.0, span)
    x[:, constant] = 0.0
    return np.clip(x, 0.0, 1.0, out=x)


def stratified_indices(y: np.ndarray, test_ratio: float, seed: int):
    """Per-class random partition. Returns (train_idx, test_idx), each sorted.

    Each class contributes floor(count * ratio + 0.5) rows to the test side
    (round half up), drawn by a seeded shuffle of that class's row positions;
    ``test_ratio`` lies in (0, 1). Zero rows, or a class with fewer than 2
    rows, which cannot appear on both sides, raise :class:`DataError`.
    """
    if y.size == 0:
        raise DataError("cannot split zero rows")
    test_parts = []
    train_parts = []
    for c in np.unique(y):
        rows = np.flatnonzero(y == c)
        if rows.size < 2:
            raise DataError(f"cannot build stratified split: class {int(c)} "
                            f"has only {rows.size} row(s)")
        take = int(math.floor(rows.size * test_ratio + 0.5))
        order = rng.permutation(rng.derive(seed, "split", int(c)), rows.size)
        shuffled = rows[order]
        test_parts.append(shuffled[:take])
        train_parts.append(shuffled[take:])
    train_idx = np.sort(np.concatenate(train_parts)).astype(np.int64)
    test_idx = np.sort(np.concatenate(test_parts)).astype(np.int64)
    return train_idx, test_idx


# the stored name of each ColumnStats field, in field order
_STAT_NAMES = ("count", "mean", "std", "min", "25%", "50%", "75%", "max")


@dataclass
class ColumnStats:
    count: int
    mean: float
    std: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float

    def to_dict(self) -> dict:
        return dict(zip(_STAT_NAMES, astuple(self)))


@dataclass
class SummaryStats:
    """Describe-style numbers for each numeric column."""

    columns: dict  # name -> ColumnStats

    def to_dict(self) -> dict:
        return {name: cs.to_dict() for name, cs in self.columns.items()}

    def to_csv(self) -> str:
        return csv_text(("column", *_STAT_NAMES), ((name, *astuple(cs))
                        for name, cs in self.columns.items()))


def dataset_stats(table: EncodedTable) -> SummaryStats:
    """Count, mean, sample std, min, quartiles, and max per numeric column.

    Std uses the n-1 denominator; quartiles use linear interpolation. Columns
    with fewer than 2 rows report std 0. Each column is read contiguously
    from one Fortran-order copy, which gives the strided columns' bits.
    """
    numeric = np.asfortranarray(table.values[:, NUMERIC_IDX])
    out = {}
    for name, col in zip(NUMERIC_NAMES, numeric.T):
        std = float(col.std(ddof=1)) if col.size > 1 else 0.0
        quartiles = (float(v) for v in np.percentile(col, [25, 50, 75]))
        out[name] = ColumnStats(col.size, float(col.mean()), std,
                                float(col.min()), *quartiles, float(col.max()))
    return SummaryStats(out)


# ---------------------------------------------------------------------------
# Serialization of the fitted preprocessing state


def preprocess_to_dict(maps: dict, bounds) -> dict:
    """The fitted preprocessing state as one document: the encoding and the
    ``normalize`` bounds as [name, min, max] lists in feature order."""
    return {"encoding": maps,
            "normalization": [[name, float(lo), float(hi)] for name, lo, hi
                              in zip(FEATURE_NAMES, *bounds)]}


def preprocess_from_dict(doc: dict) -> dict:
    """The encoding a stored ``preprocess`` object holds, as stored;
    :class:`SchemaMismatch` unless it holds exactly the encoding, one list of
    distinct strings in UTF-8 byte order per categorical column, as
    :func:`label_encode` gives it. The bounds are not stored: they derive
    from the training rows."""
    if not isinstance(doc, dict) or set(doc) != {"encoding"}:
        raise SchemaMismatch("preprocess must hold exactly encoding")
    encoding = doc["encoding"]
    if not isinstance(encoding, dict) \
            or sorted(encoding) != sorted(CATEGORICAL_NAMES):
        raise SchemaMismatch(f"encoding columns are not "
                             f"{sorted(CATEGORICAL_NAMES)}")
    for column, values in encoding.items():
        strings = isinstance(values, list) and all(
            isinstance(v, str) for v in values)
        keys = [v.encode("utf-8") for v in values] if strings else []
        if not strings or keys != sorted(set(keys)):
            raise SchemaMismatch(f"encoding of {column!r} is not a list of "
                                 f"distinct strings in UTF-8 byte order")
    return encoding


def encoded_table_to_rows(table: EncodedTable) -> tuple:
    """The rows as stored: (numeric, codes), the float64 numeric columns and
    the categorical codes in the smallest unsigned type that holds the
    largest."""
    codes = table.values[:, CATEGORICAL_IDX]
    top = int(codes.max()) if codes.size else 0
    return table.values[:, NUMERIC_IDX], codes.astype(np.min_scalar_type(top))


def encoded_table_from_rows(numeric, codes, maps: dict) -> EncodedTable:
    """The table that stored rows hold, as :func:`encoded_table_to_rows`
    gives them; ``codes`` is an unsigned integer array.

    Every cell must be finite and every categorical code must lie in
    [0, category count) of its column; otherwise :class:`SchemaMismatch`.
    """
    if not np.isfinite(numeric).all():
        raise SchemaMismatch("stored table holds a non-finite cell")
    for name, column in zip(CATEGORICAL_NAMES, codes.T):
        if column.size and column.max() >= len(maps[name]):
            raise SchemaMismatch(f"stored table column {name!r} holds a code "
                                 f"outside [0, {len(maps[name])})")
    values = np.empty((numeric.shape[0], len(NAMES)))
    values[:, NUMERIC_IDX] = numeric
    values[:, CATEGORICAL_IDX] = codes
    return EncodedTable(values=values, maps=maps)
