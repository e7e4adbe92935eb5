"""Financial aggregates, category distributions, and correlations."""

import math
import struct
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from ransomflow.analytics import (
    _per_category,
    _ranked,
    anomaly_by_family,
    anomaly_csv,
    correlation_matrix,
    financial_report,
    malware_distribution,
    rank_families,
)
from ransomflow.dataset import (
    CATEGORICAL_NAMES,
    NAMES,
    TARGET,
    EncodedTable,
    column_index,
    label_encode,
    parse_csv,
)

HEADER = ("Time,Protocol,Flag,Family,Clusters,SeedAddress,ExpAddress,"
          "BTC,USD,NetflowBytes,IPAddress,Threats,Port,Prediction")


def encoded(*rows):
    table = parse_csv(("\n".join([HEADER, *rows]) + "\n").encode())
    encoded_table, _ = label_encode(table)
    return encoded_table


def row(family="WannaCry", btc=1.0, usd=100.0, threat="Bonet",
        prediction="A", time=10, netflow=1200):
    return (f"{time},TCP,A,{family},2,1DA11mPS,1MMSaaXn,{btc},{usd},"
            f"{netflow},A,{threat},5062,{prediction}")


def test_financial_single_family_totals_and_means():
    table = encoded(row(usd=1.0, btc=0.5), row(usd=2.0, btc=1.0),
                    row(usd=3.0, btc=1.5))
    report = financial_report(table)
    assert list(report.families) == ["WannaCry"]
    ff = report.families["WannaCry"]
    assert ff.attack_count == 3
    assert ff.total_usd == 6.0
    assert ff.mean_usd == 2.0
    assert ff.total_btc == 3.0
    assert ff.mean_btc == 1.0
    assert report.global_mean_usd == 2.0
    assert report.row_count == 3


def test_financial_two_families_spreadsheet_case():
    # Locky: 2 rows, 100 + 300 USD, 1 + 3 BTC; WannaCry: 1 row, 50 USD, 7 BTC
    table = encoded(
        row(family="Locky", usd=100.0, btc=1.0),
        row(family="WannaCry", usd=50.0, btc=7.0),
        row(family="Locky", usd=300.0, btc=3.0),
    )
    report = financial_report(table)
    locky = report.families["Locky"]
    wanna = report.families["WannaCry"]
    assert (locky.attack_count, locky.total_usd, locky.mean_usd) == (2, 400.0, 200.0)
    assert (locky.total_btc, locky.mean_btc) == (4.0, 2.0)
    assert (wanna.attack_count, wanna.total_usd, wanna.mean_usd) == (1, 50.0, 50.0)
    assert report.total_usd == 450.0
    assert report.total_btc == 11.0
    assert abs(report.global_mean_usd - 150.0) < 1e-12
    # vocabulary order is byte order, Locky < WannaCry
    assert list(report.families) == ["Locky", "WannaCry"]


def test_financial_totals_conserved_across_families():
    table = encoded(*[row(family=f, usd=u, btc=b) for f, u, b in
                      [("Locky", 10.0, 1.0), ("EDA2", 20.0, 0.5),
                       ("WannaCry", 5.0, 2.0), ("EDA2", 15.0, 0.25)]])
    report = financial_report(table)
    assert sum(ff.total_usd for ff in report.families.values()) == report.total_usd
    assert sum(ff.total_btc for ff in report.families.values()) == report.total_btc
    assert sum(ff.attack_count for ff in report.families.values()) == report.row_count
    assert report.global_mean_usd == report.total_usd / report.row_count


def test_financial_empty_table_zero_means():
    table = encoded()
    report = financial_report(table)
    assert report.families == {}
    assert report.global_mean_usd == 0.0
    assert report.total_usd == 0.0
    assert report.row_count == 0


def test_rank_families_orders_and_breaks_ties_by_name():
    table = encoded(
        row(family="Locky", usd=100.0),
        row(family="EDA2", usd=100.0),
        row(family="WannaCry", usd=300.0),
        row(family="SamSam", usd=10.0),
    )
    report = financial_report(table)
    ranked = rank_families(report, "total_usd", 4)
    assert ranked == [("WannaCry", 300.0), ("EDA2", 100.0),
                      ("Locky", 100.0), ("SamSam", 10.0)]
    assert rank_families(report, "total_usd", 2) == ranked[:2]


def test_rank_families_stable_under_input_shuffles():
    rows = [row(family=f, usd=u) for f, u in
            [("Locky", 5.0), ("EDA2", 9.0), ("SamSam", 9.0), ("WannaCry", 1.0)]]
    a = rank_families(financial_report(encoded(*rows)), "mean_usd", 4)
    b = rank_families(financial_report(encoded(*rows[::-1])), "mean_usd", 4)
    assert a == b == [("EDA2", 9.0), ("SamSam", 9.0),
                      ("Locky", 5.0), ("WannaCry", 1.0)]


def test_distribution_hand_percentages():
    table = encoded(row(threat="Bonet"), row(threat="Bonet"),
                    row(threat="Scan"), row(threat="SSH"))
    dist = malware_distribution(table)
    assert dist.entries[0] == ("Bonet", 2, 50.0)
    assert set(e[0] for e in dist.entries[1:]) == {"Scan", "SSH"}
    assert all(e[2] == 25.0 for e in dist.entries[1:])
    assert abs(sum(e[2] for e in dist.entries) - 100.0) < 1e-9
    assert dist.total == 4
    # count ties order by name
    assert [e[0] for e in dist.entries] == ["Bonet", "SSH", "Scan"]


def pearson(a, b):
    # textbook formula, written independently of the implementation
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    am, bm = a - a.mean(), b - b.mean()
    return float((am * bm).sum() / math.sqrt((am * am).sum() * (bm * bm).sum()))


def test_correlation_perfect_and_anti_correlation():
    x = np.arange(10.0)
    data = np.column_stack([x, -x, 2.0 * x + 3.0])
    corr = correlation_matrix(data, ("a", "b", "c"))
    assert corr.values[0, 0] == 1.0
    assert abs(corr.values[0, 1] + 1.0) < 1e-12
    assert abs(corr.values[0, 2] - 1.0) < 1e-12
    assert corr.zero_variance == (False, False, False)


def test_correlation_matches_textbook_formula():
    cols = [
        [1.0, 2.0, 3.0, 4.0, 5.0],
        [2.0, 1.0, 4.0, 3.0, 6.0],
        [0.5, -1.0, 2.5, 2.0, 0.0],
    ]
    data = np.array(cols).T
    corr = correlation_matrix(data, ("a", "b", "c"))
    for i in range(3):
        for j in range(3):
            assert abs(corr.values[i, j] - pearson(cols[i], cols[j])) < 1e-12
    assert np.abs(corr.values - corr.values.T).max() < 1e-12


def test_correlation_affine_invariance():
    data = np.column_stack([np.arange(6.0), [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]])
    base = correlation_matrix(data, ("a", "b"))
    scaled = correlation_matrix(np.column_stack([data[:, 0] * 7.0 - 2.0,
                                                 data[:, 1] * 0.01 + 40.0]),
                                ("a", "b"))
    assert np.abs(base.values - scaled.values).max() < 1e-12


def test_correlation_flags_constant_columns():
    data = np.column_stack([np.arange(5.0), np.full(5, 0.1),
                            [2.0, 1.0, 3.0, 5.0, 4.0]])
    corr = correlation_matrix(data, ("x", "const", "y"))
    assert corr.zero_variance == (False, True, False)
    assert corr.values[1, 1] == 0.0
    assert corr.values[0, 1] == 0.0
    assert corr.values[1, 2] == 0.0
    assert corr.values[0, 0] == 1.0
    assert abs(corr.values[0, 2] - pearson(data[:, 0], data[:, 2])) < 1e-12


def test_correlation_csv_round_trip_values():
    data = np.column_stack([np.arange(4.0), [1.0, 3.0, 2.0, 4.0]])
    corr = correlation_matrix(data, ("u", "v"))
    lines = corr.to_csv().strip().splitlines()
    assert lines[0] == "feature,u,v"
    parsed = float(lines[1].split(",")[2])
    assert parsed == corr.values[0, 1]


def test_anomaly_by_family_hand_counts():
    table = encoded(
        row(family="Locky", prediction="A"),
        row(family="Locky", prediction="S"),
        row(family="WannaCry", prediction="A"),
        row(family="Locky", prediction="A"),
        row(family="EDA2", prediction="SS"),
    )
    pairs = anomaly_by_family(table)
    assert pairs[0] == ("Locky", 2)
    assert pairs[1] == ("WannaCry", 1)
    # zero-count families still listed, name ascending
    assert ("EDA2", 0) in pairs
    assert len(pairs) == 3
    text = anomaly_csv(pairs)
    assert text.splitlines()[0] == "family,anomaly_rows"
    assert text.splitlines()[1] == "Locky,2"


def test_anomaly_unknown_value_yields_zeros():
    table = encoded(row(prediction="S"), row(prediction="SS"))
    pairs = anomaly_by_family(table)
    assert all(count == 0 for _, count in pairs)


# ---------------------------------------------------------------------------
# The one group-by and the one ranking, against plain dict references


def random_table(seed: int, n: int, classes: tuple) -> EncodedTable:
    """``n`` random rows; each vocabulary holds values no row uses, and the
    money columns hold values of mixed scale, so a sum in another order
    would differ in its last bits."""
    gen = np.random.default_rng(seed)
    categories = {name: [f"{name}{i:02d}" for i in range(9)]
                  for name in CATEGORICAL_NAMES}
    categories[TARGET] = list(classes)
    values = gen.uniform(0.0, 1.0, (n, len(NAMES)))
    for name in ("USD", "BTC"):
        values[:, column_index(name)] = 10.0 ** gen.uniform(-3, 6, n)
    for name in CATEGORICAL_NAMES:
        # the last 3 codes of every vocabulary but the target's stay unused
        unused = 0 if name == TARGET else 3
        values[:, column_index(name)] = gen.integers(
            0, len(categories[name]) - unused, n)
    return EncodedTable(values, categories)


def reference_groups(table, column, mask, *weights):
    """(name, count, *sums) per category in vocabulary order, counted with a
    Counter and summed row by row in a dict."""
    names = table.maps[column]
    picked = [(names[int(code)], i) for i, code in
              enumerate(table.column(column)) if mask[i]]
    counts = Counter(name for name, _ in picked)
    sums = [dict.fromkeys(names, 0.0) for _ in weights]
    for name, i in picked:
        for total, w in zip(sums, weights):
            total[name] += float(w[i])
    return [(name, counts[name], *(total[name] for total in sums))
            for name in names]


def bits(groups):
    """Groups with every sum as its 8 bytes, so equality is bitwise."""
    return [(name, count, *(struct.pack("<d", s) for s in sums))
            for name, count, *sums in groups]


@pytest.mark.parametrize("seed,n", [(1, 0), (2, 1), (3, 57), (4, 400)])
@pytest.mark.parametrize("classes", [("A", "S", "SS"), ("S", "SS")],
                         ids=["with-A", "without-A"])
def test_per_category_matches_the_dict_reference(seed, n, classes):
    table = random_table(seed, n, classes)
    usd, btc = table.column("USD"), table.column("BTC")
    gen = np.random.default_rng(seed + 100)
    masks = {"all": np.ones(n, dtype=bool), "none": np.zeros(n, dtype=bool),
             "random": gen.random(n) < 0.5}
    for column in ("Family", "Threats", TARGET):
        for rows in [slice(None), *masks.values()]:
            mask = masks["all"] if isinstance(rows, slice) else rows
            got = _per_category(table, column, rows, usd, btc)
            assert bits(got) == bits(reference_groups(table, column, mask,
                                                      usd, btc))
            assert all(type(count) is int for _, count, *_ in got)
            assert _per_category(table, column, rows) == [
                (name, count) for name, count, *_ in got]
    # the reports built on it
    report = financial_report(table)
    expected = {name: (count, s_usd, s_usd / count, s_btc, s_btc / count)
                for name, count, s_usd, s_btc in reference_groups(
                    table, "Family", masks["all"], usd, btc) if count}
    assert {name: astuple(ff) for name, ff in report.families.items()} == \
        expected
    assert list(report.families) == list(expected)  # vocabulary order
    threats = reference_groups(table, "Threats", masks["all"])
    assert malware_distribution(table).entries == sorted(
        ((name, count, 100.0 * count / n) for name, count in threats if count),
        key=lambda e: (-e[1], e[0]))
    anomalies = reference_groups(table, "Family",
                                 [c == "A" for c in table.decoded(TARGET)])
    assert anomaly_by_family(table) == sorted(anomalies,
                                              key=lambda e: (-e[1], e[0]))
    if "A" not in classes:
        assert [count for _, count in anomaly_by_family(table)] == [0] * 9


def test_ranking_breaks_ties_on_the_name_whatever_the_tuple_width():
    pairs = [("b", 2), ("a", 0), ("c", 2), ("A", 2), ("d", 7)]
    assert _ranked(pairs) == [("d", 7), ("A", 2), ("b", 2), ("c", 2),
                              ("a", 0)]
    assert _ranked(reversed(pairs)) == _ranked(pairs)
    entries = [("SSH", 3, 30.0), ("Bonet", 3, 30.0), ("Scan", 4, 40.0)]
    assert _ranked(entries) == [("Scan", 4, 40.0), ("Bonet", 3, 30.0),
                                ("SSH", 3, 30.0)]
