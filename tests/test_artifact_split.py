"""The split a dataset artifact rebuilds from table.csv at load time.

The reference is the in-memory path: scrub and split the encoded rows (or,
for the leakage experiment, split first and scrub each side on its own), then
min-max scale the training side with its own bounds and the test side with
the training bounds. The loaded matrices must equal it bit for bit, in the
same row order.
"""

import json

import numpy as np
import pytest

from conftest import synthetic_csv_text

from ransomflow.artifacts import load_artifact
from ransomflow.cli import main
from ransomflow.config import PipelineConfig
from ransomflow.dataset import (
    clean_timestamps,
    deduplicate,
    label_encode,
    normalize,
    parse_csv,
    stratified_indices,
)
from ransomflow.serialize import checksum, dump_json

SEED = 7
TEST_RATIO = 0.25


@pytest.fixture(scope="module")
def dup_heavy_csv(tmp_path_factory):
    text, _ = synthetic_csv_text(n_per_class=40, duplicates=40, bad_times=6)
    path = tmp_path_factory.mktemp("split") / "raw.csv"
    path.write_text(text, encoding="utf-8")
    return path


def scrub(table):
    deduped, duplicates = deduplicate(table)
    cleaned, bad = clean_timestamps(deduped)
    return cleaned, duplicates, bad


def reference_split(csv_path, cfg: PipelineConfig):
    """(train, test, duplicates removed, bad timestamps removed)."""
    encoded, _ = label_encode(parse_csv(csv_path))
    if cfg.subsample is not None:
        _, keep = stratified_indices(encoded.target_codes(), cfg.subsample,
                                     cfg.subsample_seed())
        encoded = encoded.with_values(encoded.values[keep], "subsampled")
    if cfg.split_before_dedup:
        sides = stratified_indices(encoded.target_codes(), cfg.test_ratio,
                                   cfg.split_seed())
        scrubbed = [scrub(encoded.with_values(encoded.values[idx], "side"))
                    for idx in sides]
        (train_tbl, test_tbl), dups, bads = zip(*scrubbed)
        duplicates, bad = sum(dups), sum(bads)
    else:
        table, duplicates, bad = scrub(encoded)
        train_tbl, test_tbl = (
            table.with_values(table.values[idx], "side")
            for idx in stratified_indices(table.target_codes(),
                                          cfg.test_ratio, cfg.split_seed()))
    train, stats = normalize(train_tbl)
    test, _ = normalize(test_tbl, stats)
    return train, test, duplicates, bad


@pytest.mark.parametrize("flags", [
    [],
    ["--split-before-dedup"],
    ["--subsample", "0.5"],
], ids=["dedup-clean-split", "split-before-dedup", "subsample"])
def test_loaded_split_equals_reference(flags, dup_heavy_csv, tmp_path):
    out = tmp_path / "art"
    assert main(["ingest", str(dup_heavy_csv), "--output", str(out),
                 "--seed", str(SEED), "--test-ratio", str(TEST_RATIO),
                 *flags]) == 0
    cfg = PipelineConfig(seed=SEED, test_ratio=TEST_RATIO,
                         split_before_dedup="--split-before-dedup" in flags,
                         subsample=0.5 if "--subsample" in flags else None)
    train, test, duplicates, bad = reference_split(dup_heavy_csv, cfg)
    artifact = load_artifact(out)
    for loaded, expected in ((artifact.train, train), (artifact.test, test)):
        assert np.array_equal(loaded.x, expected.x)
        assert np.array_equal(loaded.y, expected.y)
        assert loaded.k_classes == expected.k_classes
    assert artifact.stages["duplicates_removed"] == duplicates
    assert artifact.stages["bad_timestamps_removed"] == bad
    if cfg.split_before_dedup:
        split = json.loads((out / "dataset.json").read_text())["payload"]["split"]
        # the case this ordering exists for: shared rows on both sides, each
        # side in its own first-occurrence order rather than table order
        assert set(split["train_index"]) & set(split["test_index"])
        assert split["train_index"] != sorted(split["train_index"])


def test_artifact_without_split_lists_exits_3(dup_heavy_csv, tmp_path,
                                              capsys):
    out = tmp_path / "art"
    assert main(["ingest", str(dup_heavy_csv), "--output", str(out)]) == 0
    payload = json.loads((out / "dataset.json").read_text())["payload"]
    del payload["split"]["train_index"], payload["split"]["test_index"]
    dump_json(out / "dataset.json",
              {"checksum": checksum(payload), "payload": payload})
    capsys.readouterr()
    assert main(["analyze", str(out), "--output", str(tmp_path / "a")]) == 3
    assert "missing key 'train_index'" in capsys.readouterr().err
