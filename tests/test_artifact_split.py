"""The rows and split a dataset artifact rebuilds from table.npz at load time.

The reference is the in-memory path: scrub and split the encoded rows (or,
for the leakage experiment, split first and scrub each side on its own), then
min-max scale the training side with its own bounds and the test side with
the training bounds. Each side the loaded artifact scales must equal it bit
for bit, in the same row order.
"""

import json

import numpy as np
import pytest

from conftest import rewrite_table, synthetic_csv_text

from ransomflow import artifacts, cli, dataset
from ransomflow.artifacts import load_artifact
from ransomflow.cli import main
from ransomflow.config import DatasetConfig, PipelineConfig
from ransomflow.dataset import (
    clean_timestamps,
    deduplicate,
    feature_bounds,
    label_encode,
    normalize,
    parse_csv,
    stratified_indices,
)

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
    """((x, y) of the training side, (x, y) of the test side, duplicates
    removed, bad timestamps removed)."""
    ds = cfg.dataset
    encoded, _ = label_encode(parse_csv(csv_path))
    if ds.subsample is not None:
        _, keep = stratified_indices(encoded.target_codes(), ds.subsample,
                                     cfg.seed_for("subsample"))
        encoded = encoded.with_values(encoded.values[keep])
    if ds.split_before_dedup:
        sides = stratified_indices(encoded.target_codes(), ds.test_ratio,
                                   cfg.seed_for("split"))
        scrubbed = [scrub(encoded.with_values(encoded.values[idx]))
                    for idx in sides]
        (train_tbl, test_tbl), dups, bads = zip(*scrubbed)
        duplicates, bad = sum(dups), sum(bads)
    else:
        table, duplicates, bad = scrub(encoded)
        train_tbl, test_tbl = (
            table.with_values(table.values[idx])
            for idx in stratified_indices(table.target_codes(),
                                          ds.test_ratio, cfg.seed_for("split")))
    bounds = feature_bounds(train_tbl)
    train, test = ((normalize(tbl, bounds), tbl.target_codes())
                   for tbl in (train_tbl, test_tbl))
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
    cfg = PipelineConfig(seed=SEED, dataset=DatasetConfig(
        test_ratio=TEST_RATIO,
        split_before_dedup="--split-before-dedup" in flags,
        subsample=0.5 if "--subsample" in flags else None))
    train, test, duplicates, bad = reference_split(dup_heavy_csv, cfg)
    artifact = load_artifact(out)
    for name, (x, y) in (("train", train), ("test", test)):
        loaded_x, loaded_y = artifact.side(name)
        assert np.array_equal(loaded_x, x)
        assert np.array_equal(loaded_y, y)
    payload = json.loads((out / "dataset.json").read_text())["payload"]
    stages = payload["stages"]
    assert stages["duplicates_removed"] == duplicates
    assert stages["bad_timestamps_removed"] == bad
    if cfg.dataset.split_before_dedup:
        with np.load(out / "table.npz") as stored:
            train_index = stored["train_index"].tolist()
            test_index = stored["test_index"].tolist()
        # the case this ordering exists for: shared rows on both sides, each
        # side in its own first-occurrence order rather than table order
        assert set(train_index) & set(test_index)
        assert train_index != sorted(train_index)


@pytest.mark.parametrize("flags", [[], ["--split-before-dedup"]],
                         ids=["dedup-clean-split", "split-before-dedup"])
def test_ingest_groups_the_records_once(flags, dup_heavy_csv, tmp_path,
                                        monkeypatch):
    """One first-occurrence pass over the encoded records serves the dedup
    and, when splitting first, each raw row's group."""
    kernel = dataset.first_occurrences
    passes = []

    def counted(rows):
        if rows.dtype == np.float64:  # the records, not a column's cell keys
            passes.append(rows.shape)
        return kernel(rows)

    monkeypatch.setattr(dataset, "first_occurrences", counted)
    monkeypatch.setattr(cli, "first_occurrences", counted)
    assert main(["ingest", str(dup_heavy_csv), "--output",
                 str(tmp_path / "art"), *flags]) == 0
    assert len(passes) == 1


def test_artifact_without_split_lists_exits_3(dup_heavy_csv, tmp_path,
                                              capsys):
    out = tmp_path / "art"
    assert main(["ingest", str(dup_heavy_csv), "--output", str(out)]) == 0
    rewrite_table(out, lambda members: members.pop("train_index"))
    capsys.readouterr()
    assert main(["analyze", str(out), "--output", str(tmp_path / "a")]) == 3
    err = capsys.readouterr().err
    assert "table.npz" in err and "missing key(s) ['train_index']" in err


@pytest.fixture(scope="module")
def trained(dup_heavy_csv, tmp_path_factory):
    """(artifact directory, gbt bundle, training rows, test rows)."""
    root = tmp_path_factory.mktemp("scaled")
    art = root / "art"
    assert main(["ingest", str(dup_heavy_csv), "--output", str(art)]) == 0
    assert main(["train", str(art), "--kind", "gbt", "--gbt-rounds", "1",
                 "--output", str(root / "gbt")]) == 0
    with np.load(art / "table.npz") as stored:
        sides = stored["train_index"].size, stored["test_index"].size
    return art, root / "gbt" / "bundle.json", *sides


def _counting(fn, rows: list):
    """``fn`` appending the row count of each table it is given to ``rows``."""
    def counted(table, *rest):
        rows.append(table.row_count)
        return fn(table, *rest)
    return counted


@pytest.mark.parametrize("command", [
    "analyze", "train-sae-lstm", "train-gbt", "evaluate-test",
    "evaluate-train"])
def test_a_command_scales_only_the_side_it_reads(command, trained, tmp_path,
                                                 monkeypatch, capsys):
    """The rows each bounds fit and each scaling receives: analyze reads no
    side, train the training side and evaluate the split it scores; the
    bounds are fitted once, on the training rows."""
    art, bundle, train_rows, test_rows = trained
    calls = {"feature_bounds": [], "normalize": []}
    for name, rows in calls.items():
        monkeypatch.setattr(artifacts, name,
                            _counting(getattr(artifacts, name), rows))
    out = str(tmp_path / "o")
    argv, scaled = {
        "analyze": (["analyze", str(art)], []),
        "train-sae-lstm": (["train", str(art), "--kind", "sae-lstm",
                            "--sae-epochs", "1", "--lstm-epochs", "1",
                            "--lstm-hidden", "4"], [train_rows]),
        "train-gbt": (["train", str(art), "--kind", "gbt", "--gbt-rounds",
                       "1"], [train_rows]),
        "evaluate-test": (["evaluate", str(bundle), str(art)], [test_rows]),
        "evaluate-train": (["evaluate", str(bundle), str(art), "--split",
                            "train"], [train_rows]),
    }[command]
    assert main(argv + ["--output", out]) == 0
    capsys.readouterr()
    assert calls == {"feature_bounds": [train_rows] if scaled else [],
                     "normalize": scaled}
    assert train_rows != test_rows
