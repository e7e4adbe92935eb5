"""Tabular pipeline for the UGRansome netflow layout, fixed in ``COLUMNS``.

Raw CSV rows pass through a fixed sequence: parse -> label-encode -> drop
duplicate rows -> drop non-positive timestamps -> stratified split. Each stage
is a standalone function so the CLI can reorder the split for leakage
experiments, and every stage is deterministic given its inputs.

Min-max scaling is not an ingest stage: ``feature_bounds`` fits the bounds on
the training rows, ``normalize`` scales rows with them, and a loaded artifact
fits them on first use and scales only the side a command reads.

Parsing works on distinct lines and whole columns: the text is read once,
identical lines are collapsed through one dict, ``csv`` parses each distinct
line once, and the records are transposed into columns. Each numeric column
is checked and converted by one float64 array, each categorical column is
encoded by one dict lookup per distinct record, and the encoded records are
then copied out to every row that holds them.

Categorical codes are assigned by sorting the distinct strings of a column in
lexicographic byte order, so the mapping depends only on the value set, never
on row order.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import math
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import rng
from .errors import (
    ConfigError,
    DataError,
    DegenerateSplit,
    EmptyData,
    MissingColumn,
    NonNumericCell,
    RaggedRow,
    SchemaMismatch,
    UnknownCategory,
)
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
    try:
        return NAMES.index(name)
    except ValueError:
        raise MissingColumn(name) from None


# positions of the name lists above, as lists for numpy's fancy indexing
FEATURE_IDX = [column_index(n) for n in FEATURE_NAMES]
NUMERIC_IDX = [column_index(n) for n in NUMERIC_NAMES]
CATEGORICAL_IDX = [column_index(n) for n in CATEGORICAL_NAMES]


@dataclass
class RawTable:
    """Parsed string cells in column order, held once per distinct record.

    ``cells[j]`` holds column ``j``'s stripped cells, one per distinct record
    in first-occurrence order, and ``numbers`` maps each numeric column to
    those cells parsed as float64. ``inverse`` maps every data row, in file
    order, to its distinct record.
    """

    cells: tuple
    numbers: dict
    inverse: np.ndarray

    @property
    def row_count(self) -> int:
        return len(self.inverse)

    @property
    def rows(self) -> list:
        records = list(zip(*self.cells))
        return [records[i] for i in self.inverse.tolist()]


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its previous state.

    Parsing builds one list per record, none of them part of a cycle; with
    the collector on, their allocation keeps triggering scans of them all.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _not_utf8(data: bytes, exc: UnicodeDecodeError, name: str) -> DataError:
    """The error for ``data`` whose decoding failed with ``exc``."""
    # the sentinel makes the prefix's last line the bad byte's line
    prefix = data[:exc.start].decode("utf-8") + "."
    line = len(io.StringIO(prefix, newline="").readlines())
    return DataError(f"{name}: line {line}: not UTF-8 text "
                     f"({exc.reason} at byte {exc.start})")


# The ASCII characters str.isspace accepts, but CR and LF, which the reader
# only meets at line ends; every other whitespace character is not ASCII.
_PADDING = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _read_lines(data: bytes, name: str):
    """The lines of the CSV bytes ``data`` with their ends kept, whether any
    holds a ``"``, and whether any cell may hold whitespace to strip.

    CR, LF and CRLF each end a line, as in a file opened with ``newline=""``.
    Bytes that are not UTF-8 raise :class:`DataError` naming the line.
    """
    try:
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                 newline="").readlines()
    except UnicodeDecodeError:
        # the stream decodes in chunks; decode whole for the byte offset
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(data, exc, name) from None
        raise
    padded = not data.isascii() or any(c in data for c in _PADDING)
    return lines, b'"' in data, padded


def _distinct_records(data: bytes, name: str):
    """(records, record_of, start_line, padded): the csv records of ``data``,
    the index of each position's record in file order (position 0 is the
    header), the 1-based line each position starts on, and whether any cell
    may hold whitespace to strip.

    Identical lines share one record, parsed once; records follow their
    lines' first occurrence and positions are lines. Text holding a ``"`` is
    read record by record, since a quoted field may span lines: each record
    stands alone and positions count records.
    """
    lines, quoted, padded = _read_lines(data, name)
    if quoted:
        reader = csv.reader(lines)
        records, ends = [], [0]  # lines read after each record
        try:
            for record in reader:
                records.append(record)
                ends.append(reader.line_num)
        except csv.Error as exc:
            raise DataError(f"{name}: line {reader.line_num}: {exc}") from None
        return (records, np.arange(len(records)),
                np.array(ends[:-1], dtype=np.int64) + 1, padded)
    units = {}
    record_of = np.fromiter((units.setdefault(line, len(units)) for line in lines),
                            np.int64, len(lines))
    del lines  # freed before csv allocates the records
    reader = csv.reader(units)
    try:
        records = list(reader)
    except csv.Error as exc:
        line = int(np.argmax(record_of == reader.line_num - 1)) + 1
        raise DataError(f"{name}: line {line}: {exc}") from None
    return records, record_of, np.arange(1, len(record_of) + 1), padded


def _finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def parse_csv(source) -> RawTable:
    """Read a CSV, the file at the path ``source`` or the bytes ``source``,
    into ``COLUMNS`` order, validating shape and numeric cells.

    The header may list columns in any order and may use the known aliases;
    extra columns are rejected only when a required one is missing. Rows whose
    field count differs from the header raise :class:`RaggedRow` with the
    1-based line number, and numeric columns must parse as finite floats
    (:class:`NonNumericCell`). The first bad line in file order is reported;
    on that line a wrong field count comes before a bad cell, and bad cells
    go in column order. Text that is not UTF-8 or that ``csv`` cannot
    read raises :class:`DataError` naming the source and line.

    Identical lines are parsed once. Text holding a ``"`` is read record by
    record instead, since a quoted field may span lines; an error in a
    record that spans lines names the line the record starts on.
    """
    if isinstance(source, bytes):
        data, name = source, "<bytes>"
    else:
        data, name = Path(source).read_bytes(), str(source)
    with _gc_paused():
        records, record_of, start_line, padded = _distinct_records(data, name)
        if not records:
            raise MissingColumn(NAMES[0])
        canonical = [HEADER_ALIASES.get(h.strip(), h.strip()) for h in records[0]]
        positions = []
        for column in NAMES:
            try:
                positions.append(canonical.index(column))
            except ValueError:
                raise MissingColumn(column) from None
        width = len(records[0])

        # The records data rows hold, in first-occurrence order, and the line
        # each first occurs on. A blank line holds no row; the first ragged
        # record stops the parse once the cells before it are checked.
        row_records = record_of[1:]
        ids, first_row = np.unique(row_records, return_index=True)
        first_line = start_line[1:][first_row]
        widths = np.fromiter(map(len, records), np.int64, len(records))[ids]
        filled = widths > 0
        ragged = np.flatnonzero(filled & (widths != width))
        stop = ragged[0] if ragged.size else len(ids)
        keep = np.flatnonzero(filled[:stop])
        # every kept record has ``width`` cells: column p is a stride of them
        flat = list(itertools.chain.from_iterable(
            map(records.__getitem__, ids[keep].tolist())))
        del records
        cells = tuple(list(map(str.strip, flat[p::width])) if padded
                      else flat[p::width] for p in positions)
        del flat
        numbers = {}
        bad_cells = []
        for order, column in enumerate(NUMERIC_NAMES):
            j = column_index(column)
            try:
                numbers[column] = np.array(cells[j], dtype=np.float64)
                finite = np.isfinite(numbers[column]).all()
            except ValueError:
                finite = False
            if not finite:
                k = next(k for k, cell in enumerate(cells[j])
                         if not _finite_number(cell))
                bad_cells.append((int(first_line[keep[k]]), order, column,
                                  cells[j][k]))
        if bad_cells:
            line, _, column, cell = min(bad_cells)
            raise NonNumericCell(line, column, cell)
        if ragged.size:
            raise RaggedRow(int(first_line[stop]), width, int(widths[stop]))

        at = np.searchsorted(ids, row_records)
        inverse = (np.cumsum(filled) - 1)[at[filled[at]]]
        return RawTable(cells=cells, numbers=numbers, inverse=inverse)


@dataclass
class EncodingMap:
    """Category-to-code tables, one per categorical column.

    Codes follow lexicographic byte order of the category strings, so they
    are a pure function of the value set.
    """

    categories: dict
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.categories = {
            col: tuple(values) for col, values in self.categories.items()
        }
        self._index = {
            col: {value: code for code, value in enumerate(values)}
            for col, values in self.categories.items()
        }

    def code(self, column: str, value: str) -> int:
        table = self._index.get(column)
        if table is None:
            raise MissingColumn(column)
        code = table.get(value)
        if code is None:
            raise UnknownCategory(column, value)
        return code

    def value(self, column: str, code: int) -> str:
        values = self.categories.get(column)
        if values is None:
            raise MissingColumn(column)
        if not 0 <= code < len(values):
            raise UnknownCategory(column, str(code))
        return values[code]

    def size(self, column: str) -> int:
        values = self.categories.get(column)
        if values is None:
            raise MissingColumn(column)
        return len(values)

    def to_dict(self) -> dict:
        return {col: list(values) for col, values in self.categories.items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "EncodingMap":
        """The map a stored document holds; :class:`SchemaMismatch` unless it
        is one list of distinct strings in UTF-8 byte order per categorical
        column, as :func:`build_encoding` writes it."""
        if not isinstance(doc, dict) or sorted(doc) != sorted(CATEGORICAL_NAMES):
            raise SchemaMismatch(f"encoding columns are not "
                                 f"{sorted(CATEGORICAL_NAMES)}")
        for column, values in doc.items():
            strings = isinstance(values, list) and all(
                isinstance(v, str) for v in values)
            keys = [v.encode("utf-8") for v in values] if strings else []
            if not strings or keys != sorted(set(keys)):
                raise SchemaMismatch(f"encoding of {column!r} is not a list of "
                                     f"distinct strings in UTF-8 byte order")
        return cls(doc)


@dataclass
class EncodedTable:
    """All-numeric table; categorical cells hold integer codes as floats."""

    values: np.ndarray
    maps: EncodingMap

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(NAMES):
            raise SchemaMismatch(
                f"encoded values shape {self.values.shape} does not match "
                f"{len(NAMES)} columns"
            )

    @property
    def row_count(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, column_index(name)]

    def codes(self, name: str) -> np.ndarray:
        return self.column(name).astype(np.int64)

    def decoded(self, name: str) -> list:
        return [self.maps.value(name, int(c)) for c in self.codes(name)]

    def target_codes(self) -> np.ndarray:
        return self.codes(TARGET)

    def with_values(self, values: np.ndarray) -> "EncodedTable":
        return EncodedTable(values=values, maps=self.maps)


def build_encoding(table: RawTable) -> EncodingMap:
    """Derive codes from the distinct values of each categorical column."""
    categories = {}
    for name in CATEGORICAL_NAMES:
        values = set(table.cells[column_index(name)])
        categories[name] = tuple(sorted(values, key=lambda s: s.encode("utf-8")))
    return EncodingMap(categories)


def label_encode(table: RawTable):
    """Turn string cells into a float matrix. Returns (EncodedTable, EncodingMap).

    Codes are built from this table's own value set. Each distinct record is
    encoded once and then copied to every row that holds it.
    """
    maps = build_encoding(table)
    distinct = len(table.cells[0])
    values = np.empty((distinct, len(NAMES)), dtype=np.float64)
    for j, (name, kind) in enumerate(COLUMNS):
        if kind == NUMERIC:
            values[:, j] = table.numbers[name]
            continue
        values[:, j] = np.fromiter(map(maps._index[name].__getitem__,
                                       table.cells[j]), np.float64, distinct)
    return EncodedTable(values=values[table.inverse], maps=maps), maps


def row_keys(values: np.ndarray) -> list:
    """Each row's bytes, equal to ``row.tobytes()``, as one hashable key:
    -0.0 and 0.0 cells keep two rows apart."""
    values = np.ascontiguousarray(values)
    row = np.dtype((np.void, values.dtype.itemsize * values.shape[1]))
    return values.view(row).ravel().tolist()


def deduplicate(table: EncodedTable):
    """Drop exact duplicate rows, keeping the first occurrence.

    Returns (table, removed_count). Row order of survivors is preserved.
    """
    first = {}
    for i, key in enumerate(row_keys(table.values)):
        if key not in first:
            first[key] = i
    keep = list(first.values())
    removed = table.row_count - len(keep)
    return table.with_values(table.values[keep]), removed


def clean_timestamps(table: EncodedTable):
    """Drop rows whose timestamp is not positive. Returns (table, removed)."""
    times = table.column("Time")
    mask = times > 0.0
    removed = int((~mask).sum())
    return table.with_values(table.values[mask]), removed


def feature_bounds(table: EncodedTable):
    """The min-max bounds of the 13 feature columns: per-column (mins, maxs)
    arrays of ``table``, the training rows. Zero rows raise
    :class:`EmptyData`."""
    if table.row_count == 0:
        raise EmptyData("cannot derive normalization bounds from zero rows")
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
    (round half up), drawn by a seeded shuffle of that class's row positions.
    Classes with fewer than 2 rows cannot appear on both sides and raise
    :class:`DegenerateSplit`.
    """
    y = np.asarray(y)
    if not 0.0 < test_ratio < 1.0:
        raise ConfigError(f"test ratio must lie in (0, 1), got {test_ratio}")
    if y.size == 0:
        raise EmptyData("cannot split zero rows")
    test_parts = []
    train_parts = []
    for c in np.unique(y):
        rows = np.flatnonzero(y == c)
        if rows.size < 2:
            raise DegenerateSplit(f"class {int(c)} has only {rows.size} row(s)")
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
        if col.size == 0:
            out[name] = ColumnStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            continue
        std = float(col.std(ddof=1)) if col.size > 1 else 0.0
        quartiles = (float(v) for v in np.percentile(col, [25, 50, 75]))
        out[name] = ColumnStats(col.size, float(col.mean()), std,
                                float(col.min()), *quartiles, float(col.max()))
    return SummaryStats(out)


# ---------------------------------------------------------------------------
# Serialization of the fitted preprocessing state


def preprocess_to_dict(maps: EncodingMap, bounds) -> dict:
    """The fitted preprocessing state as one document: the encoding and the
    ``normalize`` bounds as [name, min, max] lists in feature order."""
    return {"encoding": maps.to_dict(),
            "normalization": [[name, float(lo), float(hi)] for name, lo, hi
                              in zip(FEATURE_NAMES, *bounds)]}


def preprocess_from_dict(doc: dict) -> EncodingMap:
    """The encoding a stored ``preprocess`` object holds; :class:`SchemaMismatch`
    unless it holds exactly an encoding of the layout. The bounds are not
    stored: they derive from the training rows."""
    if not isinstance(doc, dict) or set(doc) != {"encoding"}:
        raise SchemaMismatch("preprocess must hold exactly encoding")
    return EncodingMap.from_dict(doc["encoding"])


def encoded_table_to_rows(table: EncodedTable) -> np.ndarray:
    """The (rows, columns) float64 value matrix, as stored."""
    return table.values


def encoded_table_from_rows(rows, maps: EncodingMap) -> EncodedTable:
    """The table stored value rows in ``COLUMNS`` order hold.

    Every cell must be finite and every categorical code must lie in
    [0, category count) of its column; otherwise :class:`SchemaMismatch`.
    """
    table = EncodedTable(values=rows, maps=maps)
    if not np.isfinite(table.values).all():
        raise SchemaMismatch("stored table holds a non-finite cell")
    for name in CATEGORICAL_NAMES:
        codes = table.column(name)
        if codes.size and not 0 <= codes.min() <= codes.max() < maps.size(name):
            raise SchemaMismatch(f"stored table column {name!r} holds a code "
                                 f"outside [0, {maps.size(name)})")
    return table
