"""On-disk layout for the two pipeline products.

A dataset artifact is a directory:

    dataset.json   stage counts, fitted preprocessing state, config echo
    table.csv      encoded, deduplicated, timestamp-cleaned rows (14 columns)
    train.csv      normalized features + integer label, training rows
    test.csv       normalized features + integer label, held-out rows
    stats.json     describe-style numeric summaries
    stats.txt      the same, human readable

A model bundle is a single JSON file {"checksum", "payload"}; the checksum is
the sha256 of the canonical (key-sorted, minimal) JSON of the payload, so any
edit to the stored weights or preprocessing state is detected at load time.

Every float is serialized via repr and therefore round-trips bit-exactly;
writing the same artifact twice yields identical bytes.
"""

from __future__ import annotations

import json
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
    preprocess_from_dict,
    preprocess_to_dict,
)
from .errors import ChecksumMismatch, SchemaMismatch
from .serialize import (
    SCHEMA_VERSION,
    canonical_json,
    checksum,
    dump_json,
    load_json,
    require_version,
)


def _write_csv(path: Path, header_cells, rows, config_echo=None) -> None:
    lines = []
    if config_echo is not None:
        lines.append("# config: " + canonical_json(config_echo))
    lines.append(",".join(header_cells))
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise SchemaMismatch(f"{path.name}: no header row")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def _feature_rows(fm: FeatureMatrix):
    rows = []
    for i in range(fm.row_count):
        cells = [repr(float(v)) for v in fm.x[i]]
        cells.append(str(int(fm.y[i])))
        rows.append(cells)
    return rows


def save_artifact(directory, schema: RecordSchema, maps, stats: NormStats,
                  table: EncodedTable, train: FeatureMatrix,
                  test: FeatureMatrix, stages: dict, summary,
                  config_echo: dict) -> Path:
    """Write a dataset artifact directory; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = schema.target_column
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "dataset",
        "config": config_echo,
        "preprocess": preprocess_to_dict(schema, maps, stats),
        "stages": stages,
        "split": {"train_rows": train.row_count, "test_rows": test.row_count},
        "k_classes": train.k_classes,
        "class_names": list(maps.categories[target]),
    }
    dump_json(directory / "dataset.json",
              {"checksum": checksum(payload), "payload": payload})
    header, rows = encoded_table_to_rows(table)
    _write_csv(directory / "table.csv", header, rows, config_echo)
    feature_header = list(schema.feature_names) + [target]
    _write_csv(directory / "train.csv", feature_header, _feature_rows(train),
               config_echo)
    _write_csv(directory / "test.csv", feature_header, _feature_rows(test),
               config_echo)
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


def _load_feature_csv(path: Path, schema: RecordSchema, k_classes: int):
    header, rows = _read_csv(path)
    expected = list(schema.feature_names) + [schema.target_column]
    if header != expected:
        raise SchemaMismatch(f"{path.name}: header does not match the schema")
    if rows:
        data = np.asarray(rows, dtype=np.float64)
    else:
        data = np.empty((0, len(expected)))
    return FeatureMatrix(data[:, :-1], data[:, -1].astype(np.int64), k_classes)


def _verified_payload(path, what: str, kinds) -> dict:
    """Payload of a {checksum, payload} file after its envelope checks.

    The recorded checksum must match the payload, the schema version must be
    current and the payload kind must be one of ``kinds``.
    """
    doc = load_json(path)
    payload = doc.get("payload", {})
    recorded = doc.get("checksum", "")
    actual = checksum(payload)
    if recorded != actual:
        raise ChecksumMismatch(recorded, actual)
    require_version(payload, what)
    if payload.get("kind") not in kinds:
        raise SchemaMismatch(f"{what}: unexpected kind {payload.get('kind')!r}")
    return payload


def load_artifact(directory) -> DatasetArtifact:
    directory = Path(directory)
    payload = _verified_payload(directory / "dataset.json", "dataset artifact",
                                ("dataset",))
    schema, maps, stats = preprocess_from_dict(payload["preprocess"])
    header, rows = _read_csv(directory / "table.csv")
    table = encoded_table_from_rows(header, rows, schema, maps)
    k = int(payload["k_classes"])
    train = _load_feature_csv(directory / "train.csv", schema, k)
    test = _load_feature_csv(directory / "test.csv", schema, k)
    return DatasetArtifact(
        directory=directory,
        config=payload["config"],
        schema=schema,
        maps=maps,
        stats=stats,
        table=table,
        train=train,
        test=test,
        stages=payload["stages"],
        k_classes=k,
        class_names=tuple(payload["class_names"]),
    )


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
    return bundle
