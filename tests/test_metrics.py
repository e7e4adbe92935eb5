"""Confusion matrix, report arithmetic, and model comparison checks.

The published per-class fixture values used here were transcribed once and
re-verified by recomputing the derived quantities (F1 from precision and
recall, weighted averages from supports) with independent arithmetic.
"""

import numpy as np
import pytest

from ransomflow import rng
from ransomflow.errors import DataError
from ransomflow.metrics import (
    ClassScores,
    ConfusionMatrix,
    MetricsReport,
    Scores,
    compare,
    confusion,
    report,
)
from ransomflow.serialize import dump_json

# Published evaluation of the autoencoder + LSTM pipeline on the held-out set.
SAE_LSTM_FIXTURE = {
    "class_names": ("A", "S", "SS"),
    "precision": (0.971879, 0.991466, 0.987558),
    "recall": (0.986131, 0.978024, 0.994367),
    "f1": (0.978953, 0.984699, 0.990951),
    "support": (11320, 18293, 11894),
    "accuracy": 0.984918,
    "macro": (0.985004, 0.984918, 0.984924),
    "weighted": (0.985004, 0.984918, 0.984924),
}

# Published evaluation of the boosted-tree baseline.
GBT_FIXTURE = {
    "class_names": ("A", "S", "SS"),
    "precision": (0.9036, 0.9585, 0.9447),
    "recall": (0.9314, 0.9728, 0.9776),
    "f1": (0.9609, 0.9656, 0.9609),
    "support": (11436, 18249, 11822),
    "accuracy": 0.9551,
    "macro": (0.9547, 0.9513, 0.9526),
    "weighted": (0.9553, 0.9551, 0.9548),
}


def fixture_report(doc) -> MetricsReport:
    """The published table as printed: its average rows are taken as given,
    since a published table may round them apart from its class rows."""
    names = doc["class_names"]
    return MetricsReport(
        class_names=names,
        per_class={name: ClassScores(*values) for name, *values in
                   zip(names, doc["precision"], doc["recall"], doc["f1"],
                       doc["support"])},
        accuracy=doc["accuracy"], macro=Scores(*doc["macro"]),
        weighted=Scores(*doc["weighted"]), total_support=sum(doc["support"]),
        zero_division=(),
    )


def index_names(k: int) -> tuple:
    """Names of k classes that are their indices."""
    return tuple(map(str, range(k)))


def test_confusion_identity_predictions():
    y = np.array([0, 1, 2, 1, 0])
    cm = confusion(y, y, 3, index_names(3))
    assert np.array_equal(cm.counts, np.diag([2, 2, 1]))
    assert cm.total == 5


def test_confusion_hand_case():
    cm = confusion(np.array([0, 0, 1]), np.array([0, 1, 1]), 2,
                   index_names(2))
    assert cm.counts.tolist() == [[1, 1], [0, 1]]


def test_confusion_brute_force_oracle():
    for seed in (3, 17):
        y_true = (rng.splitmix64(seed, 500) % 4).astype(np.int64)
        y_pred = (rng.splitmix64(seed + 1, 500) % 4).astype(np.int64)
        cm = confusion(y_true, y_pred, 4, index_names(4))
        for i in range(4):
            for j in range(4):
                expected = int(((y_true == i) & (y_pred == j)).sum())
                assert cm.counts[i, j] == expected


def test_report_perfect_classifier():
    y = np.repeat(np.arange(3), 10)
    rep = report(confusion(y, y, 3, index_names(3)))
    assert rep.accuracy == 1.0
    for cs in rep.per_class.values():
        assert cs.precision == 1.0
        assert cs.recall == 1.0
        assert cs.f1 == 1.0
    assert rep.zero_division == ()


def test_perfect_weighted_scores_stay_within_one():
    # these supports' rounded shares sum to 1 + 2**-52; the weighted scores
    # are capped at 1, so the report reads back
    y = np.repeat(np.arange(4), [26218, 3598, 15181, 2123])
    rep = report(confusion(y, y, 4, index_names(4)))
    assert rep.weighted == Scores(1.0, 1.0, 1.0)
    assert MetricsReport.from_dict(rep.to_dict()) == rep


def test_report_matches_naive_counting_oracle_exactly():
    for seed in (5, 23, 41):
        y_true = (rng.splitmix64(seed, 1000) % 3).astype(np.int64)
        y_pred = (rng.splitmix64(seed + 9, 1000) % 3).astype(np.int64)
        rep = report(confusion(y_true, y_pred, 3, index_names(3)))
        for c, name in enumerate(rep.class_names):
            tp = int(((y_true == c) & (y_pred == c)).sum())
            fp = int(((y_true != c) & (y_pred == c)).sum())
            fn = int(((y_true == c) & (y_pred != c)).sum())
            cs = rep.per_class[name]
            # identical arithmetic on identical integers: exact equality
            assert cs.precision == (tp / (tp + fp) if tp + fp else 0.0)
            assert cs.recall == (tp / (tp + fn) if tp + fn else 0.0)
            assert cs.support == tp + fn
        assert rep.accuracy == float((y_true == y_pred).mean())


def test_weighted_recall_equals_accuracy():
    for seed in (2, 8, 19):
        y_true = (rng.splitmix64(seed, 400) % 5).astype(np.int64)
        y_pred = (rng.splitmix64(seed + 3, 400) % 5).astype(np.int64)
        rep = report(confusion(y_true, y_pred, 5, index_names(5)))
        assert abs(rep.weighted.recall - rep.accuracy) < 1e-12


def test_f1_lies_between_precision_and_recall():
    for seed in (4, 14):
        y_true = (rng.splitmix64(seed, 300) % 3).astype(np.int64)
        y_pred = (rng.splitmix64(seed + 7, 300) % 3).astype(np.int64)
        rep = report(confusion(y_true, y_pred, 3, index_names(3)))
        for cs in rep.per_class.values():
            lo, hi = sorted((cs.precision, cs.recall))
            assert lo - 1e-12 <= cs.f1 <= hi + 1e-12


def test_report_zero_division_flagged_not_raised():
    # class 2 never predicted and never true -> both denominators empty
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    rep = report(confusion(y_true, y_pred, 3, ("a", "b", "c")))
    assert rep.per_class["c"].precision == 0.0
    assert rep.per_class["c"].recall == 0.0
    assert rep.per_class["c"].f1 == 0.0
    assert "c" in rep.zero_division


def test_report_relabel_invariance():
    y_true = (rng.splitmix64(31, 200) % 3).astype(np.int64)
    y_pred = (rng.splitmix64(32, 200) % 3).astype(np.int64)
    rep = report(confusion(y_true, y_pred, 3, index_names(3)))
    # swap labels 0 and 2 everywhere: per-class scores follow the swap
    swap = np.array([2, 1, 0])
    rep_swapped = report(confusion(swap[y_true], swap[y_pred], 3,
                                   index_names(3)))
    assert rep_swapped.per_class["2"].precision == rep.per_class["0"].precision
    assert rep_swapped.per_class["0"].recall == rep.per_class["2"].recall
    assert abs(rep_swapped.accuracy - rep.accuracy) < 1e-15
    assert abs(rep_swapped.macro.f1 - rep.macro.f1) < 1e-12


def test_f1_recomposition_of_published_class_a_row():
    p, r = 0.971879, 0.986131
    assert abs(2.0 * p * r / (p + r) - 0.978953) < 5e-6


def test_weighted_precision_recomposition_of_published_table():
    doc = SAE_LSTM_FIXTURE
    total = sum(doc["support"])
    weighted_p = sum(p * s for p, s in zip(doc["precision"], doc["support"])) / total
    assert abs(weighted_p - 0.985004) < 5e-6
    rep = fixture_report(doc)
    assert rep.total_support == 41507
    assert abs(rep.weighted.precision - 0.985004) < 5e-6


def left_to_right_sum(values) -> float:
    """The values summed in order, as numpy sums fewer than 9 of them (from
    Python 3.12 the builtin ``sum`` compensates, which can round otherwise)."""
    total = 0.0
    for value in values:
        total += value
    return total


def per_class_loop_report(counts, names) -> MetricsReport:
    """The report of the (k, k) count list ``counts`` by a scalar loop over
    classes: each score from Python ints and floats, F1 as
    ``2.0 * p * r / (p + r)``, the averages summed left to right."""
    k = len(counts)
    support = [sum(row) for row in counts]
    predicted = [sum(row[c] for row in counts) for c in range(k)]
    total = sum(support)
    rows = []
    for c in range(k):
        p = counts[c][c] / predicted[c] if predicted[c] else 0.0
        r = counts[c][c] / support[c] if support[c] else 0.0
        rows.append((p, r, 2.0 * p * r / (p + r) if p + r else 0.0))
    by_score = list(zip(*rows))
    return MetricsReport(
        class_names=names,
        per_class={name: ClassScores(*row, support[c])
                   for c, (name, row) in enumerate(zip(names, rows))},
        accuracy=sum(counts[c][c] for c in range(k)) / total,
        macro=Scores(*(left_to_right_sum(s) / k for s in by_score)),
        weighted=Scores(*(min(left_to_right_sum(
            v * (n / total) for v, n in zip(s, support)), 1.0)
            for s in by_score)),
        total_support=total,
        zero_division=tuple(name for c, name in enumerate(names)
                            if not (predicted[c] and support[c])),
    )


def test_report_equals_the_per_class_loop_exactly():
    for k in range(2, 7):
        names = index_names(k)
        draws = (rng.splitmix64(k, 2 * k * k) % 50).astype(np.int64) \
            .reshape(2, k, k)
        never_predicted, no_support = draws[0].copy(), draws[1].copy()
        never_predicted[:, k - 1] = 0
        no_support[0] = 0
        perfect = np.diag(draws[1].diagonal() + 1)
        for counts, zero_division in ((draws[0], None),
                                      (never_predicted, names[k - 1]),
                                      (no_support, names[0]),
                                      (perfect, None)):
            rep = report(ConfusionMatrix(counts, names))
            assert rep == per_class_loop_report(counts.tolist(), names)
            if zero_division is not None:
                assert zero_division in rep.zero_division
        assert rep.zero_division == () and rep.accuracy == 1.0


def test_report_serialization_round_trip():
    y_true = (rng.splitmix64(10, 150) % 3).astype(np.int64)
    y_pred = (rng.splitmix64(11, 150) % 3).astype(np.int64)
    rep = report(confusion(y_true, y_pred, 3, ("A", "S", "SS")))
    restored = MetricsReport.from_dict(rep.to_dict())
    assert restored == rep


def test_report_text_and_csv_contain_all_classes():
    rep = fixture_report(SAE_LSTM_FIXTURE)
    text = rep.to_text()
    csv = rep.to_csv()
    for name in ("A", "S", "SS", "accuracy", "macro avg", "weighted avg"):
        assert name in text
        assert name in csv


def test_report_text_quotes_zero_division_class_names():
    # "S,S" and "SS" are never predicted; unquoted, the list would read as
    # three names
    rep = report(ConfusionMatrix(np.array([[3, 0, 0], [2, 0, 0], [1, 0, 0]]),
                                 ("A", "S,S", "SS")))
    assert rep.zero_division == ("S,S", "SS")
    assert rep.to_text().endswith('\nzero-division classes: "S,S", SS\n')


def test_confusion_csv_round_trips_counts():
    cm = confusion(np.array([0, 1, 1]), np.array([0, 1, 0]), 2, ("neg", "pos"))
    lines = cm.to_csv().strip().splitlines()
    assert lines[1] == "neg,1,0"
    assert lines[2] == "pos,1,1"


def test_compare_self_is_all_ties():
    rep = fixture_report(SAE_LSTM_FIXTURE)
    table = compare(rep, rep, "m1", "m2")
    for row in table.rows:
        assert row.delta == 0.0
        assert row.winner("m1", "m2") == "tie"


def test_compare_published_fixtures_accuracy_delta():
    rep_a = fixture_report(SAE_LSTM_FIXTURE)
    rep_b = fixture_report(GBT_FIXTURE)
    table = compare(rep_a, rep_b, "sae-lstm", "gbt")
    row = next(r for r in table.rows if r.metric == "accuracy")
    assert abs(row.delta - 0.029818) < 1e-6
    assert row.winner("sae-lstm", "gbt") == "sae-lstm"


def test_compare_hand_deltas():
    doc = {"class_names": ("x", "y"), "support": (5, 5),
           "macro": (0.85, 0.65, 0.737), "weighted": (0.85, 0.65, 0.737)}
    rep_a = fixture_report({**doc, "precision": (0.9, 0.8),
                            "recall": (0.7, 0.6), "f1": (0.788, 0.686),
                            "accuracy": 0.65})
    rep_b = fixture_report({**doc, "precision": (0.8, 0.9),
                            "recall": (0.6, 0.7), "f1": (0.686, 0.788),
                            "accuracy": 0.60})
    rows = {r.metric: r for r in compare(rep_a, rep_b, "a", "b").rows}
    assert abs(rows["accuracy"].delta - 0.05) < 1e-12
    assert rows["f1[x]"].winner("a", "b") == "a"
    assert rows["f1[y]"].winner("a", "b") == "b"


def test_compare_rejects_different_class_sets():
    rep_a = report(ConfusionMatrix(np.diag([5, 5]), ("x", "y")))
    rep_b = report(ConfusionMatrix(np.diag([5, 5]), ("x", "z")))
    with pytest.raises(DataError, match=r"^class sets differ: \['x', 'y'\] "
                                        r"vs \['x', 'z'\]$"):
        compare(rep_a, rep_b, "a", "b")


def test_comparison_serialization_and_text():
    table = compare(fixture_report(SAE_LSTM_FIXTURE),
                    fixture_report(GBT_FIXTURE), "sae-lstm", "gbt")
    doc = table.to_dict()
    accuracy_row = next(r for r in doc["rows"] if r["metric"] == "accuracy")
    assert accuracy_row["winner"] == "sae-lstm"
    assert "accuracy" in table.to_text()
    assert table.to_csv().startswith("metric,sae-lstm,gbt,delta,winner")


# The renderers' exact bytes for two fixed matrices, each with a class whose
# score has a zero denominator (SS: never true nor predicted in the first,
# predicted once but never true in the second).
GOLDEN_A = [[5, 2, 0], [1, 4, 0], [0, 0, 0]]
GOLDEN_B = [[6, 0, 1], [2, 3, 0], [0, 1, 0]]

GOLDEN_REPORT_JSON = """\
{
  "accuracy": 0.75,
  "class_order": [
    "A",
    "S",
    "SS"
  ],
  "classes": {
    "A": {
      "f1": 0.7692307692307692,
      "precision": 0.8333333333333334,
      "recall": 0.7142857142857143,
      "support": 7
    },
    "S": {
      "f1": 0.7272727272727272,
      "precision": 0.6666666666666666,
      "recall": 0.8,
      "support": 5
    },
    "SS": {
      "f1": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "support": 0
    }
  },
  "macro": {
    "f1": 0.49883449883449876,
    "precision": 0.5,
    "recall": 0.5047619047619047
  },
  "schema_version": 1,
  "total_support": 12,
  "weighted": {
    "f1": 0.7517482517482517,
    "precision": 0.763888888888889,
    "recall": 0.75
  },
  "zero_division": [
    "SS"
  ]
}
"""

GOLDEN_REPORT_TEXT = """\
class         precision    recall        f1   support
A              0.833333  0.714286  0.769231         7
S              0.666667  0.800000  0.727273         5
SS             0.000000  0.000000  0.000000         0

accuracy       0.750000                            12
macro avg      0.500000  0.504762  0.498834        12
weighted avg   0.763889  0.750000  0.751748        12

zero-division classes: SS
"""

GOLDEN_REPORT_CSV = """\
class,precision,recall,f1,support
A,0.8333333333333334,0.7142857142857143,0.7692307692307692,7
S,0.6666666666666666,0.8,0.7272727272727272,5
SS,0.0,0.0,0.0,0
accuracy,0.75,,,12
macro avg,0.5,0.5047619047619047,0.49883449883449876,12
weighted avg,0.763888888888889,0.75,0.7517482517482517,12
"""

GOLDEN_COMPARISON_JSON = """\
{
  "model_a": "sae-lstm",
  "model_b": "gbt",
  "rows": [
    {
      "delta": 0.05769230769230771,
      "gbt": 0.6923076923076923,
      "metric": "accuracy",
      "sae-lstm": 0.75,
      "winner": "sae-lstm"
    },
    {
      "delta": 0.0,
      "gbt": 0.5,
      "metric": "macro_precision",
      "sae-lstm": 0.5,
      "winner": "tie"
    },
    {
      "delta": 0.019047619047619035,
      "gbt": 0.4857142857142857,
      "metric": "macro_recall",
      "sae-lstm": 0.5047619047619047,
      "winner": "sae-lstm"
    },
    {
      "delta": 0.009945609945610001,
      "gbt": 0.48888888888888876,
      "metric": "macro_f1",
      "sae-lstm": 0.49883449883449876,
      "winner": "sae-lstm"
    },
    {
      "delta": 0.07158119658119666,
      "gbt": 0.6923076923076923,
      "metric": "weighted_precision",
      "sae-lstm": 0.763888888888889,
      "winner": "sae-lstm"
    },
    {
      "delta": 0.05769230769230771,
      "gbt": 0.6923076923076923,
      "metric": "weighted_recall",
      "sae-lstm": 0.75,
      "winner": "sae-lstm"
    },
    {
      "delta": 0.06456876456876448,
      "gbt": 0.6871794871794872,
      "metric": "weighted_f1",
      "sae-lstm": 0.7517482517482517,
      "winner": "sae-lstm"
    },
    {
      "delta": -0.03076923076923077,
      "gbt": 0.7999999999999999,
      "metric": "f1[A]",
      "sae-lstm": 0.7692307692307692,
      "winner": "gbt"
    },
    {
      "delta": 0.06060606060606066,
      "gbt": 0.6666666666666665,
      "metric": "f1[S]",
      "sae-lstm": 0.7272727272727272,
      "winner": "sae-lstm"
    },
    {
      "delta": 0.0,
      "gbt": 0.0,
      "metric": "f1[SS]",
      "sae-lstm": 0.0,
      "winner": "tie"
    }
  ],
  "schema_version": 1
}
"""

GOLDEN_COMPARISON_TEXT = """\
metric                   sae-lstm          gbt        delta  winner
accuracy                 0.750000     0.692308    +0.057692  sae-lstm
macro_precision          0.500000     0.500000    +0.000000  tie
macro_recall             0.504762     0.485714    +0.019048  sae-lstm
macro_f1                 0.498834     0.488889    +0.009946  sae-lstm
weighted_precision       0.763889     0.692308    +0.071581  sae-lstm
weighted_recall          0.750000     0.692308    +0.057692  sae-lstm
weighted_f1              0.751748     0.687179    +0.064569  sae-lstm
f1[A]                    0.769231     0.800000    -0.030769  gbt
f1[S]                    0.727273     0.666667    +0.060606  sae-lstm
f1[SS]                   0.000000     0.000000    +0.000000  tie
"""

GOLDEN_COMPARISON_CSV = """\
metric,sae-lstm,gbt,delta,winner
accuracy,0.75,0.6923076923076923,0.05769230769230771,sae-lstm
macro_precision,0.5,0.5,0.0,tie
macro_recall,0.5047619047619047,0.4857142857142857,0.019047619047619035,sae-lstm
macro_f1,0.49883449883449876,0.48888888888888876,0.009945609945610001,sae-lstm
weighted_precision,0.763888888888889,0.6923076923076923,0.07158119658119666,sae-lstm
weighted_recall,0.75,0.6923076923076923,0.05769230769230771,sae-lstm
weighted_f1,0.7517482517482517,0.6871794871794872,0.06456876456876448,sae-lstm
f1[A],0.7692307692307692,0.7999999999999999,-0.03076923076923077,gbt
f1[S],0.7272727272727272,0.6666666666666665,0.06060606060606066,sae-lstm
f1[SS],0.0,0.0,0.0,tie
"""


def test_report_renderers_keep_every_byte(tmp_path):
    names = ("A", "S", "SS")
    rep = report(ConfusionMatrix(np.array(GOLDEN_A), names))
    other = report(ConfusionMatrix(np.array(GOLDEN_B), names))
    table = compare(rep, other, "sae-lstm", "gbt")
    dump_json(tmp_path / "report.json", rep.to_dict())
    dump_json(tmp_path / "comparison.json", table.to_dict())
    assert (tmp_path / "report.json").read_text() == GOLDEN_REPORT_JSON
    assert rep.to_text() == GOLDEN_REPORT_TEXT
    assert rep.to_csv() == GOLDEN_REPORT_CSV
    assert (tmp_path / "comparison.json").read_text() == GOLDEN_COMPARISON_JSON
    assert table.to_text() == GOLDEN_COMPARISON_TEXT
    assert table.to_csv() == GOLDEN_COMPARISON_CSV
