"""Versioned JSON helpers shared by every artifact the pipeline writes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import SchemaMismatch

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    """Minimal, key-sorted JSON used for hashing. NaN/Inf are rejected."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def checksum(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def dump_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def require_version(doc: dict, what: str) -> None:
    found = doc.get("schema_version")
    if found != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"{what}: schema_version {found!r} is not supported "
            f"(expected {SCHEMA_VERSION})"
        )


def curve_csv(header: str, rows) -> str:
    """A training curve as CSV text; repr cells round-trip floats exactly."""
    lines = [header] + [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def float_list(array) -> list:
    """Nested lists of Python floats; repr round-trips exactly in JSON."""
    import numpy as np

    return np.asarray(array, dtype=np.float64).tolist()
