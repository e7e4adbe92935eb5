"""Exception hierarchy for the pipeline.

Every failure a caller is expected to handle maps onto one of three broad
families: configuration problems (bad settings, bad flags), I/O problems
(missing or unreadable files), and data problems (malformed rows, impossible
shapes, degenerate inputs). The CLI translates these families into exit codes.
"""

from __future__ import annotations

import math


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PipelineError):
    """Invalid configuration value, unknown key, or malformed flag."""


class DataError(PipelineError):
    """Input data violates a structural or semantic precondition."""


# ---------------------------------------------------------------------------
# CSV / table parsing


class MissingColumn(DataError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column {column!r} not found in header")


class RaggedRow(DataError):
    def __init__(self, line_no: int, expected: int, found: int):
        self.line_no = line_no
        self.found = found
        super().__init__(
            f"line {line_no}: expected {expected} fields, found {found}"
        )


class NonNumericCell(DataError):
    def __init__(self, line_no: int, column: str, value: str):
        self.line_no = line_no
        self.column = column
        self.value = value
        super().__init__(
            f"line {line_no}: column {column!r} holds non-numeric or non-finite "
            f"value {value!r}"
        )


class UnknownCategory(DataError):
    def __init__(self, column: str, value: str):
        self.column = column
        self.value = value
        super().__init__(f"column {column!r}: value {value!r} not in encoding map")


class DegenerateSplit(DataError):
    def __init__(self, detail: str):
        super().__init__(f"cannot build stratified split: {detail}")


# ---------------------------------------------------------------------------
# Numeric / shape checks shared by the learning modules


class ShapeMismatch(DataError):
    pass


class LengthMismatch(DataError):
    pass


class LabelOutOfRange(DataError):
    def __init__(self, label: int, k_classes: int):
        super().__init__(f"label {label} outside [0, {k_classes})")


def check_label_range(labels, k_classes: int) -> None:
    """Raise :class:`LabelOutOfRange` for the first label outside [0, k)."""
    if labels.size and (labels.min() < 0 or labels.max() >= k_classes):
        bad = int(labels[(labels < 0) | (labels >= k_classes)][0])
        raise LabelOutOfRange(bad, k_classes)


def check_labeled_rows(x, y, k_classes: int) -> None:
    """Require 2-d, non-empty ``x``, at least 2 classes and labels ``y`` in
    [0, k_classes)."""
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyData("cannot train on zero rows")
    if k_classes < 2:
        raise DegenerateClasses(f"need at least 2 classes, got {k_classes}")
    check_label_range(y, k_classes)


def check_int(name: str, value, low: int | None = None) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an int (not a bool),
    and at least ``low`` when one is given."""
    if not isinstance(value, int) or isinstance(value, bool) \
            or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float (not a bool) that is finite as a
    float: what a configured or stored real number must be."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def check_number(name: str, value, low: float | None = None) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite number, and at
    least ``low`` when one is given."""
    if not is_finite_number(value) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{name} must be a finite number{bound}, "
                          f"got {value!r}")


def check_positive(name: str, value, optional: bool = False) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite number greater
    than 0, or None when ``optional``."""
    if optional and value is None:
        return
    if not is_finite_number(value) or not value > 0:
        none = "None or " if optional else ""
        raise ConfigError(f"{name} must be {none}a finite number > 0, "
                          f"got {value!r}")


class EmptyData(DataError):
    pass


class EmptyMatrix(DataError):
    pass


class DegenerateClasses(DataError):
    pass


class ClassSetMismatch(DataError):
    def __init__(self, left, right):
        super().__init__(f"class sets differ: {sorted(left)} vs {sorted(right)}")


# ---------------------------------------------------------------------------
# Serialized artifacts


class SchemaMismatch(DataError):
    pass


class ChecksumMismatch(DataError):
    def __init__(self, path, expected, found: str):
        super().__init__(
            f"{path}: checksum mismatch: recorded {str(expected)[:12]}..., "
            f"recomputed {found[:12]}..."
        )
