"""CSV parsing, encoding, cleaning, scaling, and splitting behavior.

The tiny literal fixtures keep expected values checkable by eye; the larger
randomized loops re-verify structural invariants (partitions, idempotence)
by brute force.
"""

import json
import math

import numpy as np
import pytest

from conftest import cell_rows, require_real_csv, synthetic_csv_text

from ransomflow import dataset, rng
from ransomflow.artifacts import load_artifact
from ransomflow.cli import main
from ransomflow.config import DatasetConfig
from ransomflow.dataset import (
    CATEGORICAL_NAMES,
    FEATURE_NAMES,
    EncodedTable,
    clean_timestamps,
    column_index,
    dataset_stats,
    deduplicate,
    encoded_table_from_rows,
    encoded_table_to_rows,
    feature_bounds,
    first_occurrences,
    label_encode,
    normalize,
    parse_csv,
    preprocess_from_dict,
    preprocess_to_dict,
    stratified_indices,
)
from ransomflow.errors import ConfigError, DataError, SchemaMismatch
from ransomflow.serialize import checksum, dump_json

CANONICAL_HEADER = ("Time,Protocol,Flag,Family,Clusters,SeedAddress,"
                    "ExpAddress,BTC,USD,NetflowBytes,IPAddress,Threats,"
                    "Port,Prediction")

ALIAS_HEADER = ("Time,Protocol,Flag,Ransomware,Clusters,SeedAddress,"
                "ExpAddress,BTC,USD,Netflow_Bytes,IPAddress,Malware,"
                "Port,Prediction")

ROW_A = "10,TCP,A,WannaCry,2,1DA11mPS,1MMSaaXn,1.5,500,1200,A,Bonet,5062,SS"
ROW_B = "20,UDP,AP,Locky,3,1BonuSr7,1KZaaKuwi,0.1,60,800,B,Scan,5061,S"
ROW_C = "30,ICMP,A,EDA2,1,1DA11mPS,princexx,2.0,900,4000,C,SSH,5063,A"


def _csv(header, *rows):
    return ("\n".join([header, *rows]) + "\n").encode()


def test_parse_canonical_header():
    table = parse_csv(_csv(CANONICAL_HEADER, ROW_A, ROW_B))
    assert table.row_count == 2
    assert cell_rows(table)[0][0] == "10"
    assert cell_rows(table)[1][3] == "Locky"


def test_parse_alias_header_maps_to_canonical():
    table = parse_csv(_csv(ALIAS_HEADER, ROW_A))
    [row] = cell_rows(table)
    assert row[column_index("Family")] == "WannaCry"
    assert row[column_index("Threats")] == "Bonet"
    assert row[column_index("NetflowBytes")] == "1200"


def test_parse_reordered_columns():
    # same cells, column order scrambled in the file
    header = "Prediction,Time,Protocol,Flag,Family,Clusters,SeedAddress," \
             "ExpAddress,BTC,USD,NetflowBytes,IPAddress,Threats,Port"
    row = "SS,10,TCP,A,WannaCry,2,1DA11mPS,1MMSaaXn,1.5,500,1200,A,Bonet,5062"
    table = parse_csv(_csv(header, row))
    canonical = parse_csv(_csv(CANONICAL_HEADER, ROW_A))
    assert cell_rows(table)[0] == cell_rows(canonical)[0]


def test_parse_header_only_gives_empty_table():
    table = parse_csv(_csv(CANONICAL_HEADER))
    assert table.row_count == 0


def test_parse_missing_column():
    header = CANONICAL_HEADER.replace("BTC,", "")
    row = ROW_A.replace("1.5,", "")
    with pytest.raises(DataError) as err:
        parse_csv(_csv(header, row))
    assert str(err.value) == "required column 'BTC' not found in header"


def test_parse_ragged_row_reports_line():
    bad = ROW_B + ",extra"
    with pytest.raises(DataError) as err:
        parse_csv(_csv(CANONICAL_HEADER, ROW_A, bad))
    assert str(err.value) == "line 3: expected 14 fields, found 15"


def test_parse_non_numeric_cell_reports_position():
    bad = ROW_B.replace("5061", "not-a-port")
    with pytest.raises(DataError) as err:
        parse_csv(_csv(CANONICAL_HEADER, ROW_A, bad))
    assert str(err.value) == ("line 3: column 'Port' holds non-numeric or "
                              "non-finite value 'not-a-port'")


def test_parse_strips_whitespace():
    row = ROW_A.replace("TCP", " TCP ")
    table = parse_csv(_csv(CANONICAL_HEADER, row))
    assert cell_rows(table)[0][1] == "TCP"


def test_label_encode_lexicographic_codes():
    table = parse_csv(_csv(CANONICAL_HEADER, ROW_A, ROW_B, ROW_C))
    encoded, maps = label_encode(table)
    # byte order: ICMP < TCP < UDP and A < S < SS
    assert maps["Protocol"] == ["ICMP", "TCP", "UDP"]
    assert maps["Prediction"] == ["A", "S", "SS"]
    assert encoded.column("Protocol").tolist() == [1.0, 2.0, 0.0]
    assert encoded.target_codes().tolist() == [2, 1, 0]
    assert encoded.column("USD").tolist() == [500.0, 60.0, 900.0]


def test_label_encode_round_trip():
    table = parse_csv(_csv(CANONICAL_HEADER, ROW_A, ROW_B, ROW_C))
    encoded, maps = label_encode(table)
    for column in CATEGORICAL_NAMES:
        j = column_index(column)
        original = [row[j] for row in cell_rows(table)]
        assert encoded.decoded(column) == original


def test_label_encode_single_category_gets_zero():
    table = parse_csv(_csv(CANONICAL_HEADER, ROW_A, ROW_A))
    encoded, maps = label_encode(table)
    assert maps["Family"] == ["WannaCry"]
    assert encoded.column("Family").tolist() == [0.0, 0.0]


def _ingested(csv_path, directory):
    """(the encoding label_encode gives the CSV, its ingested artifact)."""
    art = directory / "art"
    assert main(["ingest", str(csv_path), "--output", str(art)]) == 0
    return label_encode(parse_csv(csv_path))[1], art


def test_stored_encoding_is_the_label_encode_lists(synthetic_csv, tmp_path):
    maps, art = _ingested(synthetic_csv[0], tmp_path)
    stored = json.loads((art / "dataset.json").read_text())
    assert stored["payload"]["preprocess"]["encoding"] == maps
    assert load_artifact(art).table.maps == maps


_NOT_SORTED = ("encoding of 'Protocol' is not a list of distinct strings in "
               "UTF-8 byte order")


@pytest.mark.parametrize("edit, message", [
    (lambda e: e.pop("Flag"),
     f"encoding columns are not {sorted(CATEGORICAL_NAMES)}"),
    (lambda e: e["Protocol"].insert(0, 1), _NOT_SORTED),
    (lambda e: e["Protocol"].append(e["Protocol"][-1]), _NOT_SORTED),
    (lambda e: e["Protocol"].reverse(), _NOT_SORTED),
], ids=["columns", "non-string", "duplicate", "order"])
def test_stored_encoding_refusals_exit_3(edit, message, synthetic_csv,
                                         tmp_path, capsys):
    _, art = _ingested(synthetic_csv[0], tmp_path)
    doc = json.loads((art / "dataset.json").read_text())
    edit(doc["payload"]["preprocess"]["encoding"])
    doc["checksum"] = checksum(doc["payload"])
    dump_json(art / "dataset.json", doc)
    capsys.readouterr()
    assert main(["analyze", str(art), "--output", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == \
        f"error: {art}: invalid dataset artifact: {message}\n"


def test_deduplicate_keeps_first_occurrence():
    table = parse_csv(_csv(CANONICAL_HEADER, ROW_A, ROW_A, ROW_B, ROW_A))
    encoded, _ = label_encode(table)
    deduped, removed = deduplicate(encoded)
    assert removed == 2
    assert deduped.row_count == 2
    # survivors are the first copies: original rows 0 and 2
    expected = encoded.target_codes()[[0, 2]].tolist()
    assert deduped.target_codes().tolist() == expected
    again, removed_again = deduplicate(deduped)
    assert removed_again == 0
    assert np.array_equal(again.values, deduped.values)


def test_deduplicate_all_distinct_is_identity():
    table = parse_csv(_csv(CANONICAL_HEADER, ROW_A, ROW_B, ROW_C))
    encoded, _ = label_encode(table)
    deduped, removed = deduplicate(encoded)
    assert removed == 0
    assert np.array_equal(deduped.values, encoded.values)


def _first_occurrences_reference(rows):
    """(first, group) through one dict of ``row.tobytes()`` keys."""
    first = {}
    group = [first.setdefault(row.tobytes(), len(first)) for row in rows]
    index = {}
    for i, g in enumerate(group):
        index.setdefault(g, i)
    return list(index.values()), group


@pytest.mark.parametrize("collide", [False, True])
def test_first_occurrences_match_row_bytes_reference(collide, monkeypatch):
    if collide:  # every row shares one hash: the kernel must sort the bytes
        monkeypatch.setattr(dataset, "_row_hash",
                            lambda words: np.zeros(len(words), np.uint64))
    values = np.array([[0.0, 1.5, 0.0], [-0.0, 1.5, 0.0], [0.0, 1.5, 0.0]])
    gen = np.random.default_rng(3)
    cases = [values, np.asfortranarray(values)[:, :2], np.empty((0, 14)),
             gen.integers(0, 3, (500, 4)).astype(np.float64),
             gen.integers(0, 2, (300, 2)).astype(np.uint64) << np.uint64(63)]
    for rows in cases:
        first, group = first_occurrences(rows)
        expected_first, expected_group = _first_occurrences_reference(rows)
        assert first.tolist() == expected_first
        assert group.tolist() == expected_group
    assert first_occurrences(values)[0].tolist() == [0, 1]
    maps = {name: ["x"] for name in CATEGORICAL_NAMES}
    table = EncodedTable(values=np.zeros((3, 14)), maps=maps)
    table.values[1, 0] = -0.0
    deduped, removed = deduplicate(table)
    assert removed == 1
    assert np.array_equal(np.signbit(deduped.values[:, 0]), [False, True])
    empty, removed = deduplicate(table.with_values(np.empty((0, 14))))
    assert (empty.row_count, removed) == (0, 0)


def test_clean_timestamps_drops_non_positive():
    rows = [ROW_A.replace("10,", f"{t},", 1) for t in (-10, 0, 1, 96)]
    # vary another cell so the rows stay distinct
    rows = [r.replace("1200", str(1200 + i)) for i, r in enumerate(rows)]
    table = parse_csv(_csv(CANONICAL_HEADER, *rows))
    encoded, _ = label_encode(table)
    cleaned, removed = clean_timestamps(encoded)
    assert removed == 2
    assert cleaned.column("Time").tolist() == [1.0, 96.0]


def test_clean_then_dedup_partition_property():
    text, meta = synthetic_csv_text(n_per_class=30, seed=5, duplicates=9,
                                    bad_times=4)
    table = parse_csv(text.encode())
    encoded, _ = label_encode(table)
    deduped, dup_removed = deduplicate(encoded)
    cleaned, time_removed = clean_timestamps(deduped)
    assert dup_removed == meta["duplicates"]
    assert time_removed == meta["bad_times"]
    assert cleaned.row_count == meta["clean_rows"]
    assert (cleaned.column("Time") > 0).all()


def test_normalize_hand_case():
    text, _ = synthetic_csv_text(n_per_class=4, seed=8, duplicates=0,
                                 bad_times=0)
    table = parse_csv(text.encode())
    encoded, _ = label_encode(table)
    mins, maxs = feature_bounds(encoded)
    x = normalize(encoded, (mins, maxs))
    assert x.shape == (encoded.row_count, 13)
    assert x.min() >= 0.0 and x.max() <= 1.0
    # every non-constant column touches both bounds on its own training data
    for j, (lo, hi) in enumerate(zip(mins, maxs)):
        if hi > lo:
            assert x[:, j].min() == 0.0
            assert x[:, j].max() == 1.0


def test_normalize_simple_values():
    values = np.zeros((3, 14))
    values[:, column_index("USD")] = [0.0, 5.0, 10.0]
    values[:, column_index("Time")] = [2.0, 2.0, 2.0]  # constant column
    maps = {name: ["x"] for name in CATEGORICAL_NAMES}
    from ransomflow.dataset import EncodedTable

    table = EncodedTable(values=values, maps=maps)
    mins, maxs = feature_bounds(table)
    x = normalize(table, (mins, maxs))
    usd = FEATURE_NAMES.index("USD")
    assert x[:, usd].tolist() == [0.0, 0.5, 1.0]
    time_col = x[:, FEATURE_NAMES.index("Time")]
    assert time_col.tolist() == [0.0, 0.0, 0.0]
    assert (mins[usd], maxs[usd]) == (0.0, 10.0)


def test_normalize_with_training_stats_clamps():
    maps = {name: ["x"] for name in CATEGORICAL_NAMES}
    from ransomflow.dataset import EncodedTable

    train_values = np.zeros((2, 14))
    train_values[:, column_index("USD")] = [0.0, 10.0]
    train_table = EncodedTable(values=train_values, maps=maps)
    bounds = feature_bounds(train_table)

    test_values = np.zeros((2, 14))
    test_values[:, column_index("USD")] = [12.0, -3.0]
    test_table = EncodedTable(values=test_values, maps=maps)
    usd = normalize(test_table, bounds)[:, FEATURE_NAMES.index("USD")]
    assert usd.tolist() == [1.0, 0.0]


def test_stratified_split_hand_counts():
    # 50/30/20 rows at ratio 0.2 -> 10/6/4 test rows
    y = np.array([0] * 50 + [1] * 30 + [2] * 20)
    train_idx, test_idx = stratified_indices(y, 0.2, seed=11)
    assert len(test_idx) == 20
    assert len(train_idx) == 80
    counts = np.bincount(y[test_idx], minlength=3)
    assert counts.tolist() == [10, 6, 4]


def test_stratified_split_rounds_half_up():
    # 3 rows at ratio 0.5 -> floor(1.5 + 0.5) = 2 test rows
    y = np.array([0, 0, 0])
    _, test_idx = stratified_indices(y, 0.5, seed=3)
    assert len(test_idx) == 2


def test_stratified_split_is_a_partition():
    for seed in (1, 5, 9):
        y = (rng.splitmix64(seed, 200) % 4).astype(np.int64)
        train_idx, test_idx = stratified_indices(y, 0.25, seed)
        merged = np.sort(np.concatenate([train_idx, test_idx]))
        assert np.array_equal(merged, np.arange(200))
        # per-class proportion within one row of the target
        for c in range(4):
            n_c = int((y == c).sum())
            t_c = int((y[test_idx] == c).sum())
            assert t_c == int(math.floor(n_c * 0.25 + 0.5))


def test_stratified_split_deterministic_and_seed_sensitive():
    y = (rng.splitmix64(2, 120) % 3).astype(np.int64)
    a = stratified_indices(y, 0.2, 7)
    b = stratified_indices(y, 0.2, 7)
    c = stratified_indices(y, 0.2, 8)
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_stratified_split_rejects_degenerate_class():
    y = np.array([0, 0, 0, 1])
    with pytest.raises(DataError, match=r"^cannot build stratified split: "
                                        r"class 1 has only 1 row\(s\)$"):
        stratified_indices(y, 0.2, 1)


def test_dataset_config_rejects_a_fraction_outside_0_1():
    for ratio in (0.0, 1.0):
        with pytest.raises(ConfigError, match=r"^test ratio must lie in "
                                              rf"\(0, 1\), got {ratio}$"):
            DatasetConfig(test_ratio=ratio)
        with pytest.raises(ConfigError, match="^subsample fraction must lie"):
            DatasetConfig(subsample=ratio)


def test_stratified_indices_partition_every_row():
    y = np.repeat(np.arange(3), 20)
    train_idx, test_idx = stratified_indices(y, 0.2, seed=2)
    assert train_idx.size == 48
    assert test_idx.size == 12
    assert np.bincount(y[test_idx]).tolist() == [4, 4, 4]
    # no row shared; all rows accounted for
    assert sorted(np.concatenate([train_idx, test_idx]).tolist()) == list(range(60))


def test_dataset_stats_hand_case():
    maps = {name: ["x"] for name in CATEGORICAL_NAMES}
    from ransomflow.dataset import EncodedTable

    values = np.zeros((4, 14))
    values[:, column_index("Time")] = [1.0, 2.0, 3.0, 4.0]
    table = EncodedTable(values=values, maps=maps)
    stats = dataset_stats(table)
    time_stats = stats.columns["Time"]
    assert time_stats.count == 4
    assert time_stats.mean == 2.5
    # sample std of 1..4 = sqrt(5/3)
    assert abs(time_stats.std - math.sqrt(5.0 / 3.0)) < 1e-12
    # linear interpolation: q25 of [1,2,3,4] sits at position 0.75 -> 1.75
    assert time_stats.q25 == 1.75
    assert time_stats.median == 2.5
    assert time_stats.q75 == 3.25
    assert time_stats.minimum == 1.0
    assert time_stats.maximum == 4.0


def test_preprocess_document_round_trip():
    text, _ = synthetic_csv_text(n_per_class=5, seed=3, duplicates=0,
                                 bad_times=0)
    table = parse_csv(text.encode())
    encoded, maps = label_encode(table)
    bounds = feature_bounds(encoded)
    doc = preprocess_to_dict(maps, bounds)
    assert preprocess_from_dict({"encoding": doc["encoding"]}) == maps
    assert doc["normalization"] == [[name, lo, hi] for name, lo, hi
                                    in zip(FEATURE_NAMES, *bounds)]
    with pytest.raises(SchemaMismatch):
        preprocess_from_dict(doc)  # bounds are derived, never read


def test_encoded_table_csv_rows_round_trip_exactly():
    text, _ = synthetic_csv_text(n_per_class=6, seed=13, duplicates=0,
                                 bad_times=0)
    table = parse_csv(text.encode())
    encoded, maps = label_encode(table)
    restored = encoded_table_from_rows(*encoded_table_to_rows(encoded), maps)
    assert np.array_equal(restored.values, encoded.values)


# ---------------------------------------------------------------------------
# Full-dataset checks (skip with a warning when the CSV is absent)


def test_real_dataset_stage_counts():
    path = require_real_csv()
    table = parse_csv(path)
    assert table.row_count == 207533
    encoded, _ = label_encode(table)
    deduped, removed = deduplicate(encoded)
    assert removed == 58491
    assert deduped.row_count == 149042
    cleaned, _ = clean_timestamps(deduped)
    assert cleaned.row_count == 147985


def test_real_dataset_label_codes():
    path = require_real_csv()
    table = parse_csv(path)
    _, maps = label_encode(table)
    assert maps["Protocol"].index("TCP") == 1
    assert maps["Protocol"].index("UDP") == 2
    assert maps["Prediction"].index("A") == 0
    assert maps["Prediction"].index("SS") == 2
    assert maps["Flag"].index("A") == 0
