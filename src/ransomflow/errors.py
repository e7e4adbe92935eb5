"""Exception hierarchy for the pipeline.

Every failure a caller is expected to handle maps onto one of three broad
families: configuration problems (bad settings, bad flags), I/O problems
(missing or unreadable files), and data problems (malformed rows, impossible
shapes, degenerate inputs). The CLI translates these families into exit codes.
"""

from __future__ import annotations


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
        self.expected = expected
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
            f"line {line_no}: column {column!r} holds non-numeric value {value!r}"
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
    def __init__(self, detail: str):
        super().__init__(detail)


class LengthMismatch(DataError):
    def __init__(self, detail: str):
        super().__init__(detail)


class LabelOutOfRange(DataError):
    def __init__(self, label: int, k_classes: int):
        self.label = label
        self.k_classes = k_classes
        super().__init__(f"label {label} outside [0, {k_classes})")


def check_label_range(labels, k_classes: int) -> None:
    """Raise :class:`LabelOutOfRange` for the first label outside [0, k)."""
    if labels.size and (labels.min() < 0 or labels.max() >= k_classes):
        bad = int(labels[(labels < 0) | (labels >= k_classes)][0])
        raise LabelOutOfRange(bad, k_classes)


def check_int(name: str, value, low: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an int (not a bool) >= low."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


class EmptyData(DataError):
    def __init__(self, detail: str = "no rows to operate on"):
        super().__init__(detail)


class EmptyMatrix(DataError):
    def __init__(self, detail: str = "empty matrix"):
        super().__init__(detail)


class DegenerateClasses(DataError):
    def __init__(self, detail: str):
        super().__init__(detail)


class InsufficientRows(DataError):
    def __init__(self, needed: int, found: int, context: str = ""):
        self.needed = needed
        self.found = found
        suffix = f" for {context}" if context else ""
        super().__init__(f"need at least {needed} rows{suffix}, found {found}")


class ClassSetMismatch(DataError):
    def __init__(self, left, right):
        self.left = tuple(left)
        self.right = tuple(right)
        super().__init__(
            f"class sets differ: {sorted(self.left)} vs {sorted(self.right)}"
        )


# ---------------------------------------------------------------------------
# Serialized artifacts


class SchemaMismatch(DataError):
    def __init__(self, detail: str):
        super().__init__(detail)


class ChecksumMismatch(DataError):
    def __init__(self, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(
            f"artifact checksum mismatch: recorded {expected[:12]}..., "
            f"recomputed {found[:12]}..."
        )
