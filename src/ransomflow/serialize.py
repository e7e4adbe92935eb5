"""Versioned JSON helpers shared by every artifact the pipeline writes."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, SchemaMismatch

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    """Minimal, key-sorted JSON used for hashing. NaN/Inf are rejected."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def checksum(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def dump_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_json(path):
    """Parse a JSON file. NaN and Infinity, which ``dump_json`` never writes,
    raise ``ValueError``, as malformed JSON does."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


def require_version(doc: dict, what: str) -> None:
    found = doc.get("schema_version")
    if found != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"{what}: schema_version {found!r} is not supported "
            f"(expected {SCHEMA_VERSION})"
        )


def read_fields(cls, doc, stored_names: dict | None = None):
    """Dataclass ``cls`` built from a stored document holding exactly its fields.

    ``stored_names`` maps a field to its document key where the two differ.
    Missing or unknown keys, or a value the class rejects, raise
    :class:`SchemaMismatch` naming them.
    """
    keys = {f.name: f.name for f in fields(cls)} | (stored_names or {})
    missing = sorted(set(keys.values()) - set(doc))
    unknown = sorted(set(doc) - set(keys.values()))
    if missing or unknown:
        raise SchemaMismatch(f"{cls.__name__}: missing key(s) {missing}, "
                             f"unknown key(s) {unknown}")
    try:
        return cls(**{name: doc[key] for name, key in keys.items()})
    except (ConfigError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{cls.__name__}: {exc}") from None


def csv_text(header, rows) -> str:
    """CSV text: the header line, one line per row, and a trailing newline.

    Float cells, Python or numpy, are written as ``repr(float(v))``, which
    round-trips exactly; every other cell with ``str``. Nothing is quoted.
    """
    floats = (float, np.floating)
    lines = [",".join([repr(float(v)) if isinstance(v, floats) else str(v)
                       for v in row]) for row in (header, *rows)]
    return "\n".join(lines) + "\n"


def float_list(array) -> list:
    """Nested lists of Python floats; repr round-trips exactly in JSON."""
    return np.asarray(array, dtype=np.float64).tolist()
