"""The dataset artifact's row store, table.npz: exact round trip, stable
bytes, and refusal of archives that break its layout."""

import io
import json
import shutil
import zipfile

import numpy as np
import pytest

from conftest import record_table_sha, rewrite_table, synthetic_csv_text

from ransomflow import cli
from ransomflow.artifacts import load_artifact, save_artifact
from ransomflow.cli import main
from ransomflow.config import PipelineConfig
from ransomflow.dataset import (
    NUMERIC_NAMES,
    column_index,
    label_encode,
    parse_csv,
    stratified_indices,
)
from ransomflow.serialize import checksum, csv_text, dump_json


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    text, _ = synthetic_csv_text(n_per_class=20, duplicates=4, bad_times=2)
    root = tmp_path_factory.mktemp("store")
    (root / "raw.csv").write_text(text, encoding="utf-8")
    assert main(["ingest", str(root / "raw.csv"), "--output",
                 str(root / "art")]) == 0
    return root / "art"


def save_twice(tmp_path):
    """The encoded table ingest would save, and two artifacts saved from it.

    A few numeric cells hold values whose bits a decimal round trip could
    lose track of: -0.0, the smallest subnormal, 1e100 / 3 and 0.1 + 0.2.
    """
    text, _ = synthetic_csv_text(n_per_class=8, duplicates=0, bad_times=0)
    encoded, _ = label_encode(parse_csv(text.encode()))
    values = encoded.values.copy()
    for row, value in enumerate((-0.0, 5e-324, 1e100 / 3, 0.1 + 0.2)):
        values[row, column_index("BTC")] = value
    table = encoded.with_values(values)
    train_idx, test_idx = stratified_indices(table.target_codes(), 0.25, 3)
    dirs = [tmp_path / name for name in ("a", "b")]
    for directory in dirs:
        save_artifact(directory, table, train_idx, test_idx,
                      {"parsed_rows": table.row_count,
                       "duplicates_removed": 0, "bad_timestamps_removed": 0,
                       "table_rows": table.row_count},
                      PipelineConfig(seed=3).echo())
    return table, dirs


def test_loaded_values_are_bit_equal_to_the_saved_table(tmp_path):
    table, (directory, _) = save_twice(tmp_path)
    loaded = load_artifact(directory).table
    assert loaded.values.dtype == np.float64
    assert loaded.values.shape == table.values.shape
    assert loaded.values.tobytes() == table.values.tobytes()


def test_loaded_values_are_bit_equal_to_the_table_ingest_held(
        ingested, tmp_path, monkeypatch):
    held = []

    def save_and_keep(directory, table, *rest):
        held.append(table.values.copy())
        return save_artifact(directory, table, *rest)

    monkeypatch.setattr(cli, "save_artifact", save_and_keep)
    art = tmp_path / "art"
    assert main(["ingest", str(ingested.parent / "raw.csv"),
                 "--output", str(art)]) == 0
    assert load_artifact(art).table.values.tobytes() == held[0].tobytes()
    assert (art / "table.npz").read_bytes() \
        == (ingested / "table.npz").read_bytes()


def test_saved_bytes_are_stable(tmp_path):
    _, (first, second) = save_twice(tmp_path)
    for name in ("dataset.json", "table.npz"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    with zipfile.ZipFile(first / "table.npz") as archive:
        infos = archive.infolist()
    assert [info.filename for info in infos] == [
        "numeric.npy", "codes.npy", "train_index.npy", "test_index.npy"]
    for info in infos:
        assert info.date_time == (1980, 1, 1, 0, 0, 0)
        assert info.compress_type == zipfile.ZIP_STORED


def reference_summary(table) -> dict:
    """Describe-style numbers computed column by column over the table's
    strided columns: the straightforward version of ``dataset_stats``."""
    out = {}
    for name in NUMERIC_NAMES:
        col = table.column(name)
        std = float(col.std(ddof=1)) if col.size > 1 else 0.0
        q25, q50, q75 = (float(v) for v in np.percentile(col, [25, 50, 75]))
        out[name] = {"count": int(col.size), "mean": float(col.mean()),
                     "std": std, "min": float(col.min()), "25%": q25,
                     "50%": q50, "75%": q75, "max": float(col.max())}
    return out


def _bits(doc: dict) -> dict:
    return {name: {key: v.hex() if isinstance(v, float) else v
                   for key, v in stats.items()} for name, stats in doc.items()}


@pytest.mark.parametrize("source", ["fixture", "signed-zero-and-subnormal"])
def test_analyze_summary_is_bit_equal_to_the_column_reference(
        source, ingested, tmp_path):
    if source == "fixture":
        art = ingested
    else:
        _, (art, _) = save_twice(tmp_path)
    out = tmp_path / "analysis"
    assert main(["analyze", str(art), "--output", str(out)]) == 0
    expected = reference_summary(load_artifact(art).table)
    if source != "fixture":
        assert expected["BTC"]["min"].hex() == (-0.0).hex()
    summary = json.loads((out / "analysis.json").read_text())["summary"]
    assert _bits(summary) == _bits(expected)
    assert (out / "summary.csv").read_text() == csv_text(
        ("column", *expected["Time"]),
        ((name, *stats.values()) for name, stats in expected.items()))


def test_codes_use_the_smallest_unsigned_type(ingested):
    with np.load(ingested / "table.npz") as stored:
        assert stored["codes"].dtype == np.uint8
        assert stored["numeric"].dtype == np.float64
        assert stored["train_index"].dtype == np.int64


def _set(name, row, column, value):
    def edit(members):
        members[name] = members[name].copy()
        members[name][row, column] = value
    return edit


def _cast(name, dtype):
    def edit(members):
        members[name] = members[name].astype(dtype)
    return edit


def _update(**replacements):
    def edit(members):
        members.update({name: make(members)
                        for name, make in replacements.items()})
    return edit


# (edit of the member dict, words the error must hold)
CRAFTED = {
    "unknown-member": (_update(extra=lambda m: np.zeros(3)),
                       "unknown key(s) ['extra']"),
    "float-codes": (_cast("codes", np.float64), "'codes' is not a 2-d unsigned"),
    "signed-codes": (_cast("codes", np.int16), "'codes' is not a 2-d unsigned"),
    "float32-numeric": (_cast("numeric", np.float32),
                        "'numeric' is not a 2-d float64"),
    "int32-index": (_cast("test_index", np.int32),
                    "'test_index' is not a 1-d int64"),
    "2-d-index": (_update(train_index=lambda m: m["train_index"][:, None]),
                  "'train_index' is not a 1-d int64"),
    "code-at-category-count": (_set("codes", 4, -1, 3),
                               "'Prediction' holds a code outside [0, 3)"),
    "nan-cell": (_set("numeric", 2, 1, np.nan), "non-finite cell"),
    "inf-cell": (_set("numeric", 0, 0, -np.inf), "non-finite cell"),
    "numeric-columns": (_update(numeric=lambda m: m["numeric"][:, :5]),
                        "'numeric' (60, 5)"),
    "row-counts-differ": (_update(codes=lambda m: m["codes"][1:]),
                          "'codes' (59, 8)"),
    "index-out-of-range": (_update(test_index=lambda m: m["test_index"] + 60),
                           "test_index out of range"),
    "index-repeated": (_update(train_index=lambda m: np.append(
        m["train_index"], m["train_index"][0])), "train_index repeats a row"),
    "index-dropped": (_update(test_index=lambda m: m["test_index"][1:]),
                      "stages leave 60 rows, but the two sides of table.npz "
                      "hold 59"),
}


@pytest.mark.parametrize("case", CRAFTED, ids=list(CRAFTED))
def test_crafted_table_exits_3(case, ingested, tmp_path, capsys):
    edit, words = CRAFTED[case]
    art = tmp_path / "art"
    shutil.copytree(ingested, art)
    rewrite_table(art, edit)
    capsys.readouterr()
    assert main(["analyze", str(art), "--output", str(tmp_path / "a")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "table.npz" in err
    assert words in err


def test_artifact_without_training_rows_exits_3(ingested, tmp_path, capsys):
    art = tmp_path / "art"
    shutil.copytree(ingested, art)
    rewrite_table(art, _update(train_index=lambda m: m["train_index"][:0]))
    capsys.readouterr()
    assert main(["analyze", str(art), "--output", str(tmp_path / "a")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {art}: ") and "zero rows" in err


def test_table_that_is_not_an_archive_exits_3(ingested, tmp_path, capsys):
    art = tmp_path / "art"
    shutil.copytree(ingested, art)
    buffer = io.BytesIO()
    np.save(buffer, np.zeros((2, 14)))
    (art / "table.npz").write_bytes(buffer.getvalue())
    record_table_sha(art)
    capsys.readouterr()
    assert main(["analyze", str(art), "--output", str(tmp_path / "a")]) == 3
    err = capsys.readouterr().err
    assert "table.npz" in err and "not a readable npz archive" in err


def test_version_1_artifact_exits_3(ingested, tmp_path, capsys):
    art = tmp_path / "art"
    shutil.copytree(ingested, art)
    payload = json.loads((art / "dataset.json").read_text())["payload"]
    payload["schema_version"] = payload["preprocess"]["schema_version"] = 1
    dump_json(art / "dataset.json",
              {"checksum": checksum(payload), "payload": payload})
    capsys.readouterr()
    assert main(["analyze", str(art), "--output", str(tmp_path / "a")]) == 3
    assert "schema_version 1 is not supported" in capsys.readouterr().err
