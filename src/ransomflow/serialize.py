"""Versioned JSON helpers shared by every artifact the pipeline writes.

Layout rules: JSON documents are key-sorted and hold no NaN/Inf; CSV goes
through :func:`csv_text`, which quotes only a cell holding ``,``, ``"``, CR
or LF; float arrays inside JSON are :func:`array_doc` objects holding their
raw little-endian bytes in base64.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaMismatch

# Stored dataset artifacts and model bundles; version 2 stores numbers as
# bytes, version 3 states each fact once, version 4 leaves the column layout
# (dataset.COLUMNS) to the code, version 5 drops the derived stage seeds and
# class count from the config echo, version 6 stores only what training
# changed (no decoders, loss curves or seeded LSTM blocks; no split sizes),
# version 7 stores no normalization bounds (they derive from the training
# rows) and no derivable stage counts, and a bundle names the preprocessing
# state by its checksum, version 8 drops the LSTM forget rows that one-step
# training never changes, version 9 stores no path in the config echo.
SCHEMA_VERSION = 9
# Reports (report.json, comparison.json, analysis.json), whose layout
# versions 2 to 5 left unchanged. report.json dropped its config echo and
# analysis.json gained the summary that stats.json held; no reader read the
# echo and nothing reads analysis.json, so the version stays.
REPORT_VERSION = 1


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


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is beyond the float range")
    return value


def load_json(path):
    """Parse a JSON file. Text that is not UTF-8 JSON, NaN and Infinity,
    which ``dump_json`` never writes, numbers such as 1e400 that overflow
    a float and arrays or objects nested beyond the recursion limit raise
    :class:`SchemaMismatch` naming ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_reject_constant,
                          parse_float=_finite_float)
    # a UnicodeDecodeError is a ValueError
    except (ValueError, RecursionError) as exc:
        raise SchemaMismatch(f"{path}: not valid JSON ({exc})") from None


def require_version(doc: dict, what: str,
                    expected: int = SCHEMA_VERSION) -> None:
    found = doc.get("schema_version")
    if type(found) is not int or found != expected:
        raise SchemaMismatch(
            f"{what}: schema_version {found!r} is not supported "
            f"(expected {expected})"
        )


def require_keys(doc, keys, what: str) -> None:
    """Raise :class:`SchemaMismatch` naming ``what`` and the missing and the
    unknown keys, each side only if it has any, unless the stored object
    ``doc`` holds exactly the keys ``keys``."""
    sides = [f"{side} key(s) {names}" for side, names in
             (("missing", sorted(set(keys) - set(doc))),
              ("unknown", sorted(set(doc) - set(keys)))) if names]
    if sides:
        raise SchemaMismatch(f"{what}: {', '.join(sides)}")


def csv_cell(v) -> str:
    """One cell as :func:`csv_text` writes it."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header, rows) -> str:
    """CSV text: the header line, one line per row, and a trailing newline.

    Float cells, Python or numpy, are written as ``repr(float(v))``, which
    round-trips exactly; every other cell with ``str``. A cell holding ``,``,
    ``"``, CR or LF (a category or class name can) is quoted, its ``"``
    doubled, as ``csv.reader`` reads it back; no other cell is quoted.
    """
    lines = [",".join([csv_cell(v) for v in row]) for row in (header, *rows)]
    return "\n".join(lines) + "\n"


_ARRAY_DTYPE = "<f8"


def array_doc(array, name: str) -> dict:
    """A float64 array as {"dtype", "shape", "b64"}: its raw little-endian
    bytes in base64, so every bit round-trips. ``name`` labels the array in
    the :class:`DataError` raised for a NaN or Inf, which is never stored."""
    a = np.asarray(array, dtype=_ARRAY_DTYPE)
    if not np.isfinite(a).all():
        raise DataError(f"cannot store {name}: it holds a non-finite value")
    return {"dtype": _ARRAY_DTYPE, "shape": list(a.shape),
            "b64": base64.b64encode(a.tobytes()).decode("ascii")}


def array_from_doc(doc) -> np.ndarray:
    """The writable float64 array an :func:`array_doc` object holds.

    Keys other than exactly dtype, shape and b64, a wrong dtype or shape,
    invalid base64, a byte count that does not match the shape, or a
    non-finite value raises :class:`SchemaMismatch`.
    """
    if not isinstance(doc, dict) or doc.get("dtype") != _ARRAY_DTYPE:
        raise SchemaMismatch(f"array is not a {_ARRAY_DTYPE!r} array object")
    require_keys(doc, ("dtype", "shape", "b64"), "array")
    shape = doc.get("shape")
    if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape):
        raise SchemaMismatch(f"array shape {shape!r} is not a list of sizes")
    try:
        raw = base64.b64decode(doc.get("b64"), validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise SchemaMismatch("array bytes are not valid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise SchemaMismatch(f"array holds {len(raw)} bytes, shape {shape} "
                             f"needs {8 * math.prod(shape)}")
    a = np.frombuffer(raw, dtype=_ARRAY_DTYPE).reshape(shape).astype(np.float64)
    if not np.isfinite(a).all():
        raise SchemaMismatch("array holds a non-finite value")
    return a
