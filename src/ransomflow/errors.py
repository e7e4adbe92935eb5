"""The pipeline's exception types and its settings checks.

Every failure a caller is expected to handle is a :class:`ConfigError` (bad
settings, bad flags) or a :class:`DataError` (malformed rows, stored files or
degenerate inputs); the CLI maps them, and ``OSError`` for unreadable or
missing files, to exit codes 1, 3 and 2. The type rule: a fault gets a class
of its own only when some code in a command catches it by that type, or
reads fields it carries; any other fault raises :class:`DataError` (or
:class:`ConfigError`) with a message that says what went wrong. That leaves
three: the two above, which the CLI tells apart, and :class:`SchemaMismatch`,
which the loaders catch to name the stored file. A bad CSV line, column or
cell is a :class:`DataError` whose message names it. A lookup that may
miss, such as a class name in the encoding, is a membership test, not an
exception.
"""

from __future__ import annotations

import math


class ConfigError(Exception):
    """Invalid configuration value, unknown key, or malformed flag."""


class DataError(Exception):
    """Input data violates a structural or semantic precondition."""


class SchemaMismatch(DataError):
    """A stored file, or a field in it, that the loaders refuse."""


# ---------------------------------------------------------------------------
# Settings checks


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
