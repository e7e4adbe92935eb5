"""On-disk layout for the two pipeline products.

A dataset artifact is a directory:

    dataset.json   stage counts, fitted preprocessing state, config echo,
                   the split as ordered row indices into table.csv, and the
                   sha256 of table.csv's bytes
    table.csv      encoded, deduplicated, timestamp-cleaned rows (14 columns)
    stats.json     describe-style numeric summaries
    stats.txt      the same, human readable

table.csv is the only row store: at load time the train and test matrices are
the indexed rows scaled by ``normalize`` with the stored bounds, bit for bit.

A model bundle is a single JSON file {"checksum", "payload"}; the checksum is
the sha256 of the canonical (key-sorted, minimal) JSON of the payload, so any
edit to the stored weights or preprocessing state is detected at load time.

Every float is serialized via repr and therefore round-trips bit-exactly;
writing the same artifact twice yields identical bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gbt as gbt_mod
from . import lstm as lstm_mod
from . import sae as sae_mod
from .dataset import (
    EncodedTable,
    FeatureMatrix,
    NormStats,
    RecordSchema,
    encoded_table_from_rows,
    encoded_table_to_rows,
    normalize,
    preprocess_from_dict,
    preprocess_to_dict,
)
from .errors import ChecksumMismatch, SchemaMismatch
from .serialize import (
    SCHEMA_VERSION,
    canonical_json,
    checksum,
    csv_text,
    dump_json,
    load_json,
    require_version,
)


def save_artifact(directory, schema: RecordSchema, maps, stats: NormStats,
                  table: EncodedTable, train_idx, test_idx, stages: dict,
                  summary, config_echo: dict) -> Path:
    """Write a dataset artifact directory; returns its path.

    ``train_idx``/``test_idx`` are each side's ordered row indices into table.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table_bytes = ("# config: " + canonical_json(config_echo) + "\n"
                   + csv_text(*encoded_table_to_rows(table))).encode("utf-8")
    (directory / "table.csv").write_bytes(table_bytes)
    target = schema.target_column
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "dataset",
        "config": config_echo,
        "preprocess": preprocess_to_dict(schema, maps, stats),
        "stages": stages,
        "split": {"train_rows": len(train_idx), "test_rows": len(test_idx),
                  "train_index": np.asarray(train_idx).tolist(),
                  "test_index": np.asarray(test_idx).tolist()},
        "table_sha256": hashlib.sha256(table_bytes).hexdigest(),
        "k_classes": maps.size(target),
        "class_names": list(maps.categories[target]),
    }
    dump_json(directory / "dataset.json",
              {"checksum": checksum(payload), "payload": payload})
    dump_json(directory / "stats.json",
              {"schema_version": SCHEMA_VERSION, "columns": summary.to_dict()})
    (directory / "stats.txt").write_text(summary.table_text(), encoding="utf-8")
    return directory


@dataclass
class DatasetArtifact:
    directory: Path
    config: dict
    schema: RecordSchema
    maps: object
    stats: NormStats
    table: EncodedTable
    train: FeatureMatrix
    test: FeatureMatrix
    stages: dict
    k_classes: int
    class_names: tuple


def _verified_payload(path, what: str, kinds) -> dict:
    """Payload of a {checksum, payload} file after its envelope checks.

    The file must hold a JSON object whose payload is an object, the
    recorded checksum must match the payload, the schema version must be
    current and the payload kind must be one of ``kinds``.
    """
    try:
        doc = load_json(path)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SchemaMismatch(f"{what} {path}: not valid JSON ({exc})") from None
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if not isinstance(payload, dict):
        raise SchemaMismatch(f"{what} {path}: no payload object")
    recorded = doc.get("checksum", "")
    actual = checksum(payload)
    if recorded != actual:
        raise ChecksumMismatch(recorded, actual)
    require_version(payload, what)
    if payload.get("kind") not in kinds:
        raise SchemaMismatch(f"{what}: unexpected kind {payload.get('kind')!r}")
    return payload


def _split_side(table: EncodedTable, stats: NormStats, index, side: str):
    idx = np.asarray(index, dtype=np.int64)
    if idx.size and not 0 <= idx.min() <= idx.max() < table.row_count:
        raise SchemaMismatch(f"dataset artifact: {side} index out of range")
    return normalize(table.with_values(table.values[idx], side), stats)[0]


def load_artifact(directory) -> DatasetArtifact:
    directory = Path(directory)
    payload = _verified_payload(directory / "dataset.json", "dataset artifact",
                                ("dataset",))
    try:
        schema, maps, stats = preprocess_from_dict(payload["preprocess"])
        raw = (directory / "table.csv").read_bytes()
        actual = hashlib.sha256(raw).hexdigest()
        if actual != payload["table_sha256"]:
            raise ChecksumMismatch(payload["table_sha256"], actual)
        rows = [ln.split(",") for ln in raw.decode("utf-8").splitlines()
                if ln and not ln.startswith("#")]
        table = encoded_table_from_rows(rows[0] if rows else (), rows[1:],
                                        schema, maps)
        split = payload["split"]
        return DatasetArtifact(
            directory=directory,
            config=payload["config"],
            schema=schema,
            maps=maps,
            stats=stats,
            table=table,
            train=_split_side(table, stats, split["train_index"], "train"),
            test=_split_side(table, stats, split["test_index"], "test"),
            stages=payload["stages"],
            k_classes=int(payload["k_classes"]),
            class_names=tuple(payload["class_names"]),
        )
    except KeyError as exc:
        raise SchemaMismatch(
            f"{directory}: dataset artifact is missing key {exc}") from None


# ---------------------------------------------------------------------------
# Model bundles


BUNDLE_KINDS = ("sae-lstm", "gbt")


def save_bundle(path, kind: str, config_echo: dict, preprocess_doc: dict,
                components: dict) -> Path:
    """Write a checksummed model bundle; returns the file path."""
    if kind not in BUNDLE_KINDS:
        raise SchemaMismatch(f"unknown bundle kind {kind!r}")
    path = Path(path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config_echo,
        "preprocess": preprocess_doc,
        "components": components,
    }
    dump_json(path, {"checksum": checksum(payload), "payload": payload})
    return path


@dataclass
class ModelBundle:
    kind: str
    config: dict
    schema: RecordSchema
    maps: object
    stats: NormStats
    sae_model: object = None
    sae_head: object = None
    lstm_model: object = None
    gbt_model: object = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels for normalized feature rows, via whichever model is present."""
        if self.kind == "sae-lstm":
            codes = sae_mod.encode(self.sae_model, x)
            return lstm_mod.predict(self.lstm_model, codes)
        return gbt_mod.predict_labels(self.gbt_model, x)


def load_bundle(path) -> ModelBundle:
    payload = _verified_payload(path, "model bundle", BUNDLE_KINDS)
    kind = payload["kind"]
    try:
        schema, maps, stats = preprocess_from_dict(payload["preprocess"])
        components = payload["components"]
        bundle = ModelBundle(kind=kind, config=payload["config"],
                             schema=schema, maps=maps, stats=stats)
        if kind == "sae-lstm":
            bundle.sae_model, bundle.sae_head = sae_mod.model_from_dict(
                components["sae"])
            bundle.lstm_model = lstm_mod.model_from_dict(components["lstm"])
        else:
            bundle.gbt_model = gbt_mod.model_from_dict(components["gbt"])
    except KeyError as exc:
        raise SchemaMismatch(f"{path}: model bundle is missing key {exc}") from None
    except (SchemaMismatch, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{path}: invalid model bundle: {exc}") from None
    return bundle
