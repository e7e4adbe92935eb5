"""On-disk layout for the two pipeline products.

A dataset artifact is a directory:

    dataset.json   stage counts, the label encoding, config echo and the
                   sha256 of table.npz's bytes
    table.npz      encoded, deduplicated, timestamp-cleaned rows and the
                   split, as an uncompressed numpy archive of four members:
                   numeric      float64 (rows, 6), the numeric columns
                   codes        (rows, 8) categorical codes, in the smallest
                                unsigned type that holds the largest code
                   train_index  int64, ordered row indices of each side
                   test_index

Both files are verified when the artifact is loaded: dataset.json by its
checksum, table.npz by the sha256 dataset.json records. table.npz is the only
row store, and nothing derived from it is stored: ``analyze`` computes the
describe-style summary, and a loaded :class:`DatasetArtifact` derives the
min-max bounds from the training rows on first use. A command scales only
the side it reads (``train`` the training rows, ``evaluate`` the split it
scores, ``analyze`` none), so the fitted preprocessing state is stored once.

A model bundle is a single JSON file {"checksum", "payload"}; the checksum is
the sha256 of the canonical (key-sorted, minimal) JSON of the payload, so any
edit to the stored weights is detected at load time. Weight arrays are
:func:`serialize.array_doc` objects (raw float64 bytes in base64); every other
float is a JSON number written via repr.

Every stored float therefore round-trips bit-exactly, and writing the same
artifact twice yields identical bytes (zip members carry a fixed timestamp).

A bundle names the preprocessing state it was trained on by
``preprocess_sha256``, the checksum of
:func:`ransomflow.dataset.preprocess_to_dict`; the loader refuses an artifact
whose state has another checksum.

A bundle stores what training changed and derives the rest. Its components
are the SAE encoders' weights and biases (the decoders only train the stack,
and the epoch records go to the history CSVs), the parts of the LSTM
that Adam stepped (see :func:`ransomflow.lstm.trained_slices`) or the boosted
trees. The loader takes the encoders' activation from the settings, rebuilds
the seeded LSTM from the master seed and writes the stored parts in.

Each stored fact has one home: the payload states the schema version and
kind, the target column's encoding is the class list, an array's shape is its
layer's size, and the ``config`` echo holds the settings, laid out as a
configuration file (see :mod:`ransomflow.config`); both loaders read it as
one, and refuse an echo that does not hold every setting. Each loader refuses
payload keys and bundle components other than its declared ones. The bundle
loader checks the weight shapes against the settings and the feature count,
and the model's class count (GBT tree lists, LSTM head outputs) against the
class list. Values derived from others are not stored: stage seeds come from
the master ``seed``, the class count is the class list's length, and the
stage counts keep only what the other counts and the config echo do not give.
Those counts must chain: the parsed rows (or, with ``dataset.subsample``, the
subsampled rows) less the duplicates and bad timestamps removed are the rows
of the two sides, and no side lists a row twice.
The column layout is not stored either: it is ``dataset.COLUMNS``, fixed for
a schema version.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import gbt as gbt_mod
from . import lstm as lstm_mod
from . import sae as sae_mod
from .config import PipelineConfig, from_dict
from .dataset import (
    CATEGORICAL_IDX,
    FEATURE_NAMES,
    NUMERIC_IDX,
    TARGET,
    EncodedTable,
    encoded_table_from_rows,
    encoded_table_to_rows,
    feature_bounds,
    normalize,
    preprocess_from_dict,
    preprocess_to_dict,
)
from .errors import ConfigError, DataError, SchemaMismatch
from .serialize import (
    SCHEMA_VERSION,
    canonical_json,
    checksum,
    dump_json,
    load_json,
    require_keys,
    require_version,
)

TABLE_FILE = "table.npz"
# table.npz member -> (dtype, or "unsigned" for any unsigned integer, ndim)
_TABLE_LAYOUT = {"numeric": ("float64", 2), "codes": ("unsigned", 2),
                 "train_index": ("int64", 1), "test_index": ("int64", 1)}
# payload keys of each stored file, and each bundle kind's components
_DATASET_KEYS = ("schema_version", "kind", "config", "preprocess", "stages",
                 "table_sha256")
_BUNDLE_KEYS = ("schema_version", "kind", "config", "preprocess_sha256",
                "components")
_COMPONENTS = {"sae-lstm": ("sae", "lstm"), "gbt": ("gbt",)}
# the model families: a bundle's and a report's kind
KINDS = tuple(_COMPONENTS)
# a dataset artifact's sides; a report names the one it scores
SPLITS = ("test", "train")
# dataset.json stage counts; "subsampled_rows" joins them with a subsample
STAGES = ("parsed_rows", "duplicates_removed", "bad_timestamps_removed",
          "table_rows")


def _table_npz(table: EncodedTable, train_idx, test_idx) -> bytes:
    """The bytes of table.npz for ``table`` and its split."""
    numeric, codes = encoded_table_to_rows(table)
    buffer = io.BytesIO()
    np.savez(buffer, numeric=numeric, codes=codes,
             train_index=train_idx, test_index=test_idx)
    return buffer.getvalue()


def _read_table_npz(raw: bytes, maps):
    """(table, train index, test index) held by the bytes of a table.npz.

    Raises :class:`SchemaMismatch` unless the archive holds exactly the four
    members with their dtypes and shapes, finite numbers, codes below their
    column's category count and distinct row indices inside the table on
    each side.
    """
    try:
        stored = np.load(io.BytesIO(raw), allow_pickle=False)
        if not isinstance(stored, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with stored:
            require_keys(stored.files, _TABLE_LAYOUT, "npz members")
            members = {name: stored[name] for name in _TABLE_LAYOUT}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SchemaMismatch(f"not a readable npz archive ({exc})") from None
    for name, (dtype, ndim) in _TABLE_LAYOUT.items():
        a = members[name]
        if not (isinstance(a, np.ndarray) and a.ndim == ndim
                and (a.dtype.kind == "u" if dtype == "unsigned"
                     else a.dtype == dtype)):
            raise SchemaMismatch(f"member {name!r} is not a {ndim}-d {dtype} "
                                 f"array")
    numeric, codes = members["numeric"], members["codes"]
    rows = numeric.shape[0]
    shapes = (rows, len(NUMERIC_IDX)), (rows, len(CATEGORICAL_IDX))
    if (numeric.shape, codes.shape) != shapes:
        raise SchemaMismatch(
            f"members 'numeric' {numeric.shape} and 'codes' {codes.shape} are "
            f"not {shapes[0]} and {shapes[1]}")
    table = encoded_table_from_rows(numeric, codes, maps)
    for side in ("train_index", "test_index"):
        idx = members[side]
        if idx.size and not 0 <= idx.min() <= idx.max() < rows:
            raise SchemaMismatch(f"{side} out of range")
        if idx.size and np.bincount(idx).max() > 1:
            raise SchemaMismatch(f"{side} repeats a row")
    return table, members["train_index"], members["test_index"]


def save_artifact(directory, table: EncodedTable, train_idx, test_idx,
                  stages: dict, config_echo: dict) -> Path:
    """Write a dataset artifact directory; returns its path.

    ``train_idx``/``test_idx`` are each side's ordered row indices into table.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table_bytes = _table_npz(table, train_idx, test_idx)
    (directory / TABLE_FILE).write_bytes(table_bytes)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "dataset",
        "config": config_echo,
        "preprocess": {"encoding": table.maps},
        "stages": stages,
        "table_sha256": hashlib.sha256(table_bytes).hexdigest(),
    }
    dump_json(directory / "dataset.json",
              {"checksum": checksum(payload), "payload": payload})
    return directory


@dataclass
class DatasetArtifact:
    """The table and each side's ordered row indices; a side is scaled only
    when a command reads it."""

    table: EncodedTable
    train_index: np.ndarray
    test_index: np.ndarray

    def _rows(self, index) -> EncodedTable:
        return self.table.with_values(self.table.values[index])

    @cached_property
    def bounds(self) -> tuple:
        """``normalize``'s (mins, maxs), fitted on the training rows."""
        return feature_bounds(self._rows(self.train_index))

    def side(self, name: str) -> tuple:
        """(x, y) of the side ``name``, one of :data:`SPLITS`: its feature
        rows scaled with the training bounds, and its labels. The training
        side fits the bounds, if not yet fitted, on the rows it gathered."""
        index = dict(zip(SPLITS, (self.test_index, self.train_index)))[name]
        rows = self._rows(index)
        if name == "train" and "bounds" not in vars(self):
            self.bounds = feature_bounds(rows)
        return normalize(rows, self.bounds), rows.target_codes()


def _checksum_mismatch(path, recorded, actual: str) -> DataError:
    return DataError(f"{path}: checksum mismatch: recorded "
                     f"{str(recorded)[:12]}..., recomputed {actual[:12]}...")


def _verified_payload(path, what: str, kinds, keys) -> dict:
    """Payload of a {checksum, payload} file after its envelope checks.

    The file must hold a JSON object of exactly a checksum and a payload
    object, the recorded checksum must match the payload, the schema version
    must be current, the payload kind must be one of ``kinds`` and the
    payload keys must be ``keys``.
    """
    doc = load_json(path)
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if not isinstance(payload, dict):
        raise SchemaMismatch(f"{what} {path}: no payload object")
    recorded = doc.get("checksum", "")
    actual = checksum(payload)
    if recorded != actual:
        raise _checksum_mismatch(path, recorded, actual)
    require_keys(doc, ("checksum", "payload"), f"{what} {path}")
    require_version(payload, f"{what} {path}")
    kind = payload.get("kind")
    if not (isinstance(kind, str) and kind in kinds):
        raise SchemaMismatch(f"{what} {path}: unexpected kind {kind!r}")
    require_keys(payload, keys, f"{what} {path}")
    return payload


@contextmanager
def stored_fields(path, what: str):
    """Raise :class:`SchemaMismatch` naming ``path`` for a stored field the
    block finds missing, of the wrong type or holding a rejected value (any
    :class:`DataError`, or a :class:`ConfigError` from a stored setting)."""
    try:
        yield
    except KeyError as exc:
        raise SchemaMismatch(f"{path}: {what} is missing key {exc}") from None
    except (ConfigError, DataError, AttributeError, TypeError,
            ValueError) as exc:
        raise SchemaMismatch(f"{path}: invalid {what}: {exc}") from None


def _stored_config(doc) -> PipelineConfig:
    """The settings a stored ``config`` echo holds, read as a configuration
    file; :class:`SchemaMismatch` unless the echo holds every setting."""
    cfg = from_dict(doc)
    if canonical_json(cfg.echo()) != canonical_json(doc):
        raise SchemaMismatch("config echo does not hold every setting")
    return cfg


def _check_stages(stages, subsample, table_rows: int, side_rows: int) -> None:
    """Raise :class:`SchemaMismatch` unless the stage counts chain.

    ``stages`` must hold exactly the :data:`STAGES` counts, plus
    ``subsampled_rows`` when ``subsample`` is set, each a non-negative int;
    no more rows may be subsampled than were parsed; ``table_rows`` must be
    the table's row count; and the parsed (or subsampled) rows less the
    duplicates and bad timestamps removed must be ``side_rows``, the rows of
    the two sides.
    """
    require_keys(stages, STAGES + (() if subsample is None
                                    else ("subsampled_rows",)), "stages")
    if not all(type(n) is int and n >= 0 for n in stages.values()):
        raise SchemaMismatch(f"stages {stages} are not all non-negative ints")
    kept = stages.get("subsampled_rows", stages["parsed_rows"])
    if kept > stages["parsed_rows"]:
        raise SchemaMismatch(f"stages.subsampled_rows {kept} exceeds the "
                             f"{stages['parsed_rows']} parsed rows")
    if stages["table_rows"] != table_rows:
        raise SchemaMismatch(f"stages.table_rows {stages['table_rows']} is "
                             f"not the {table_rows} rows of {TABLE_FILE}")
    left = kept - stages["duplicates_removed"] - stages["bad_timestamps_removed"]
    if left != side_rows:
        raise SchemaMismatch(f"stages leave {left} rows, but the two sides of "
                             f"{TABLE_FILE} hold {side_rows}")


def load_artifact(directory) -> DatasetArtifact:
    directory = Path(directory)
    payload = _verified_payload(directory / "dataset.json", "dataset artifact",
                                ("dataset",), _DATASET_KEYS)
    with stored_fields(directory, "dataset artifact"):
        cfg = _stored_config(payload["config"])
        maps = preprocess_from_dict(payload["preprocess"])
        table_sha256 = payload["table_sha256"]
    table_path = directory / TABLE_FILE
    raw = table_path.read_bytes()
    actual = hashlib.sha256(raw).hexdigest()
    if actual != table_sha256:
        raise _checksum_mismatch(table_path, table_sha256, actual)
    try:
        table, train_idx, test_idx = _read_table_npz(raw, maps)
    except SchemaMismatch as exc:
        raise SchemaMismatch(f"{table_path}: {exc}") from None
    with stored_fields(directory, "dataset artifact"):
        if train_idx.size == 0:
            raise SchemaMismatch("the training side holds zero rows")
        _check_stages(payload["stages"], cfg.dataset.subsample,
                      table.row_count, train_idx.size + test_idx.size)
    return DatasetArtifact(table, train_idx, test_idx)


def _preprocess_sha256(artifact: DatasetArtifact) -> str:
    """The checksum of an artifact's fitted preprocessing state."""
    return checksum(preprocess_to_dict(artifact.table.maps, artifact.bounds))


# ---------------------------------------------------------------------------
# Model bundles


def save_bundle(path, kind: str, config_echo: dict,
                artifact: DatasetArtifact, components: dict) -> Path:
    """Write a checksummed model bundle trained from ``artifact``; returns the
    file path."""
    path = Path(path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config_echo,
        "preprocess_sha256": _preprocess_sha256(artifact),
        "components": components,
    }
    # Kept though no test reaches it: at gbt.lambda 0 and min_child_hessian
    # 0, a leaf whose gradient sum G is positive and whose hessian sum H is
    # subnormal gets the weight -G/H = -inf. softmax maps a -inf score to
    # probability 0, so the rounds' losses stay finite and only this refuses.
    try:
        digest = checksum(payload)
    except ValueError as exc:  # a NaN or Inf, which JSON cannot hold
        raise DataError(f"{path}: cannot store the model bundle: {exc}") \
            from None
    dump_json(path, {"checksum": digest, "payload": payload})
    return path


@dataclass
class ModelBundle:
    kind: str
    predict: Callable  # normalized feature rows -> labels


def load_bundle(path, artifact: DatasetArtifact) -> ModelBundle:
    """The model a bundle holds, for the rows of ``artifact``; refused unless
    the bundle was trained on the artifact's preprocessing state."""
    payload = _verified_payload(path, "model bundle", _COMPONENTS, _BUNDLE_KEYS)
    kind = payload["kind"]
    if payload["preprocess_sha256"] != _preprocess_sha256(artifact):
        raise SchemaMismatch(
            f"{path}: bundle and artifact disagree on preprocessing state; "
            f"evaluate against the artifact the model was trained from")
    with stored_fields(path, "model bundle"):
        cfg = _stored_config(payload["config"])
        components = payload["components"]
        require_keys(components, _COMPONENTS[kind], "components")
        classes = len(artifact.table.maps[TARGET])
        if kind == "sae-lstm":
            encoders = sae_mod.model_from_dict(components["sae"], cfg.sae,
                                               len(FEATURE_NAMES))
            classifier = lstm_mod.model_from_dict(
                components["lstm"], cfg.lstm, cfg.sae.encoder_dims[-1], classes,
                cfg.seed_for("lstm"))

            def predict(x):
                return lstm_mod.predict(classifier, sae_mod.encode(encoders, x))
        else:
            trees = gbt_mod.model_from_dict(components["gbt"], cfg.gbt.rounds,
                                            classes, len(FEATURE_NAMES))

            def predict(x):
                return gbt_mod.predict_labels(trees, x)
    return ModelBundle(kind=kind, predict=predict)
