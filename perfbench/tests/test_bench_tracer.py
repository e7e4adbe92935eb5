"""Span arithmetic and outside-in wrapping of the benchmark's tracer."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import tracer  # noqa: E402

S = 1_000_000_000  # one second in ns


def test_self_time_on_a_hand_built_tree():
    spans = [
        ["x.a", 0 * S, 100 * S, -1],
        ["x.b", 10 * S, 40 * S, 0],
        ["y.c", 50 * S, 90 * S, 0],
        ["x.b", 60 * S, 70 * S, 2],   # b again, under c: an outermost b
        ["x.b", 62 * S, 65 * S, 3],   # recursive b: not outermost
        ["z.d", 200 * S, 210 * S, -1],
    ]
    s = tracer.summarize(spans)
    assert s["self"] == pytest.approx({"x.a": 30, "x.b": 30 + 7 + 3,
                                       "y.c": 30, "z.d": 10})
    assert s["inclusive"] == pytest.approx({"x.a": 100, "x.b": 40, "y.c": 40,
                                            "z.d": 10})
    assert s["calls"] == {"x.a": 1, "x.b": 3, "y.c": 1, "z.d": 1}
    assert s["layer_self"] == pytest.approx({"x": 70, "y": 30, "z": 10})
    assert s["root"] == pytest.approx(110)
    assert sum(s["layer_self"].values()) == pytest.approx(s["root"])


def test_overlapping_children_are_counted_once():
    assert tracer._covered([(0, 10), (5, 15), (20, 30), (22, 25)]) == 25


def test_wrap_links_parents_and_closes_spans_on_error():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks))

    def inner(fail):
        if fail:
            raise ValueError("boom")
        return 1

    inner_w = t.wrap("m.inner", inner)
    outer_w = t.wrap("m.outer", lambda: inner_w(False) + inner_w(False))
    assert outer_w() == 2
    with pytest.raises(ValueError):
        inner_w(True)
    assert [(n, p) for n, _, _, p in t.spans] == [
        ("m.outer", -1), ("m.inner", 0), ("m.inner", 0), ("m.inner", -1)]
    assert all(end > start for _, start, end, _ in t.spans)


def test_install_wraps_reimported_names_and_counts(tmp_path):
    from ransomflow import artifacts, cli, lstm, nn, sae

    originals = (cli.parse_csv, sae.dense_forward, lstm.dense_forward,
                 artifacts.encoded_table_from_rows, nn.Adam.step)
    t = tracer.Tracer()
    undo, missing = tracer.install(t)
    try:
        assert missing == []
        wrapped = (cli.parse_csv, sae.dense_forward, lstm.dense_forward,
                   artifacts.encoded_table_from_rows, nn.Adam.step)
        for before, after in zip(originals, wrapped):
            assert after is not before and after.__wrapped__ is before
        assert sae.dense_forward is lstm.dense_forward is nn.dense_forward
        text, meta = gen.generate(2, raw_rows=400, duplicates=50, bad_times=7)
        csv = tmp_path / "raw.csv"
        csv.write_text(text)
        assert cli.main(["ingest", str(csv), "--output", str(tmp_path / "a")]) == 0
    finally:
        undo()
    assert (cli.parse_csv, sae.dense_forward, lstm.dense_forward,
            artifacts.encoded_table_from_rows, nn.Adam.step) == originals
    for key in ("rows_parsed", "duplicates_removed", "bad_timestamps_removed",
                "table_rows"):
        assert t.counts[f"dataset.{key}"] == meta[{"rows_parsed": "parsed_rows"}
                                                  .get(key, key)]
    s = tracer.summarize(t.spans)
    assert s["calls"]["dataset.parse_csv"] == 1
    assert s["calls"]["artifacts.save_artifact"] == 1
    assert sum(s["layer_self"].values()) == pytest.approx(s["root"])
