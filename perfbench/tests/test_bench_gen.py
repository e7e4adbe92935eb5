"""The benchmark's generator plants exactly the counts it reports."""

import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
from ransomflow.dataset import (  # noqa: E402
    clean_timestamps,
    deduplicate,
    label_encode,
    parse_csv,
)

SMALL = dict(raw_rows=900, duplicates=250, bad_times=31)


def test_ingest_stages_see_the_planted_counts():
    text, meta = gen.generate(5, **SMALL)
    raw = parse_csv(text.encode())
    encoded, _ = label_encode(raw)
    deduped, dups = deduplicate(encoded)
    table, bad = clean_timestamps(deduped)
    assert raw.row_count == meta["parsed_rows"] == 900
    assert dups == meta["duplicates_removed"] == 250
    assert bad == meta["bad_timestamps_removed"] == 31
    assert table.row_count == meta["table_rows"] == 900 - 250 - 31
    labels = Counter(table.decoded("Prediction"))
    assert labels == Counter(meta["clean_per_class"])


def test_classes_balanced_before_overlap():
    _, meta = gen.generate(5, overlap=0.0, **SMALL)
    assert sorted(meta["clean_per_class"].values()) == [206, 206, 207]


def test_overlap_redraws_about_the_set_fraction():
    text, _ = gen.generate(9, raw_rows=6000, duplicates=0, bad_times=0)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    # the generating class fixes Clusters; labels redrawn to another class
    # (2/3 of the redrawn ones) disagree with it
    cls_of_clusters = {c: i for i, (lo, hi) in
                       enumerate(r["clusters"] for r in gen.RANGES)
                       for c in range(lo, hi)}
    moved = sum(gen.CLASSES.index(r[13]) != cls_of_clusters[int(r[4])]
                for r in rows)
    assert abs(moved / len(rows) - gen.OVERLAP * 2 / 3) < 0.02


def test_same_seed_same_bytes_other_seed_other_bytes():
    assert gen.generate(3, **SMALL) == gen.generate(3, **SMALL)
    assert gen.generate(3, **SMALL)[0] != gen.generate(4, **SMALL)[0]


def test_paper_counts_are_the_defaults():
    clean = gen.PAPER_ROWS - gen.PAPER_DUPLICATES - gen.PAPER_BAD_TIMES
    assert (gen.PAPER_ROWS, gen.PAPER_DUPLICATES, gen.PAPER_BAD_TIMES, clean) \
        == (207_533, 58_491, 1_057, 147_985)
