"""Multiclass evaluation: confusion matrix, per-class scores, model deltas.

Conventions: confusion rows are true classes, columns are predictions.
:func:`report` is the one place a :class:`MetricsReport` is built from
counts: it scores every class at once in float64 arrays. Precision divides
the diagonal by column sums, recall by row sums, and any zero denominator
yields a score of 0 with the class recorded in the report's
``zero_division`` tuple instead of raising; F1 is 0 where precision and
recall both are. Weighted recall equals accuracy by construction, which
doubles as an internal consistency check.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import DataError, SchemaMismatch, is_finite_number
from .serialize import (REPORT_VERSION, csv_cell, csv_text, require_keys,
                        require_version)


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (k, k) int64
    class_names: tuple

    def __post_init__(self):
        self.class_names = tuple(self.class_names)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self) -> str:
        return csv_text(("true\\predicted", *self.class_names),
                        ((name, *row) for name, row in
                         zip(self.class_names, self.counts.tolist())))


def confusion(y_true, y_pred, k_classes: int, class_names) -> ConfusionMatrix:
    """Count (true, predicted) pairs, equal-length int64 arrays of labels in
    [0, k_classes), into a k x k matrix of the classes ``class_names``."""
    flat = y_true * k_classes + y_pred
    counts = np.bincount(flat, minlength=k_classes * k_classes)
    return ConfusionMatrix(counts.reshape(k_classes, k_classes), class_names)


@dataclass
class Scores:
    precision: float
    recall: float
    f1: float


@dataclass
class ClassScores(Scores):
    support: int


def _stored_value(name: str, value, count: bool = False):
    """A report value read from a file: a score in [0, 1], returned as a
    float, or with ``count`` an int >= 0 that is not a bool;
    :class:`SchemaMismatch` otherwise."""
    if count:
        valid, wanted = type(value) is int and value >= 0, "an integer >= 0"
    else:
        valid = is_finite_number(value) and 0.0 <= value <= 1.0
        wanted = "a number in [0, 1]"
    if not valid:
        raise SchemaMismatch(f"{name} must be {wanted}, got {value!r}")
    return value if count else float(value)


def _stored_scores(cls, doc):
    """``cls`` read from a stored score object that holds exactly its
    fields, each value read by :func:`_stored_value`."""
    require_keys(doc, [f.name for f in fields(cls)], cls.__name__)
    return cls(**{key: _stored_value(key, value, count=key == "support")
                  for key, value in doc.items()})


@dataclass
class MetricsReport:
    class_names: tuple
    per_class: dict  # name -> ClassScores
    accuracy: float
    macro: Scores
    weighted: Scores
    total_support: int
    zero_division: tuple  # names of the classes with a zero denominator

    def averages(self) -> dict:
        return {"macro": self.macro, "weighted": self.weighted}

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_VERSION,
            "classes": {name: asdict(cs) for name, cs in self.per_class.items()},
            "class_order": list(self.class_names),
            "accuracy": self.accuracy,
            "macro": asdict(self.macro),
            "weighted": asdict(self.weighted),
            "total_support": self.total_support,
            "zero_division": list(self.zero_division),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsReport":
        require_version(doc, "metrics report", REPORT_VERSION)
        names = tuple(doc["class_order"])
        if len(set(names)) != len(names) or set(doc["classes"]) != set(names):
            raise SchemaMismatch("classes and class_order must name each "
                                 "class once")
        zero_division = doc["zero_division"]
        if not isinstance(zero_division, list) \
                or not set(zero_division) <= set(names):
            raise SchemaMismatch("zero_division must list names from "
                                 "class_order")
        return cls(
            class_names=names,
            per_class={name: _stored_scores(ClassScores, doc["classes"][name])
                       for name in names},
            accuracy=_stored_value("accuracy", doc["accuracy"]),
            macro=_stored_scores(Scores, doc["macro"]),
            weighted=_stored_scores(Scores, doc["weighted"]),
            total_support=_stored_value("total_support", doc["total_support"],
                                        count=True),
            zero_division=tuple(zero_division),
        )

    def to_text(self) -> str:
        width = max([len(n) for n in self.class_names] + [12])

        def line(label, s, support):
            return (f"{label.ljust(width)}  {s.precision:9.6f} {s.recall:9.6f} "
                    f"{s.f1:9.6f}  {support:8d}")

        lines = [f"{'class'.ljust(width)}  precision    recall        f1   support"]
        lines += [line(name, self.per_class[name], self.per_class[name].support)
                  for name in self.class_names]
        lines.append("")
        lines.append(f"{'accuracy'.ljust(width)}  {self.accuracy:9.6f}"
                     f"{'':20}  {self.total_support:8d}")
        lines += [line(f"{average} avg", s, self.total_support)
                  for average, s in self.averages().items()]
        if self.zero_division:
            lines.append("")
            lines.append("zero-division classes: "
                         + ", ".join(map(csv_cell, self.zero_division)))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = [(name, *astuple(self.per_class[name]))
                for name in self.class_names]
        rows.append(("accuracy", self.accuracy, "", "", self.total_support))
        rows += [(f"{average} avg", *astuple(s), self.total_support)
                 for average, s in self.averages().items()]
        return csv_text(("class", *(f.name for f in fields(ClassScores))),
                        rows)


def report(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/F1 with macro and support-weighted averages
    of a matrix that holds at least one observation.

    The rounded support shares can sum past 1, so a weighted score is capped
    at 1, which it cannot exceed.
    """
    names, counts, total = cm.class_names, cm.counts, cm.total
    k = len(names)
    diag = np.diag(counts).astype(np.float64)
    predicted, support = counts.sum(axis=0), counts.sum(axis=1)
    has_predicted, has_true = predicted > 0, support > 0
    precision = np.divide(diag, predicted, out=np.zeros(k), where=has_predicted)
    recall = np.divide(diag, support, out=np.zeros(k), where=has_true)
    pr_sum = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr_sum, out=np.zeros(k),
                   where=pr_sum > 0)
    scores = np.stack([precision, recall, f1])  # one row per Scores field
    return MetricsReport(
        class_names=names,
        per_class={name: ClassScores(*values) for name, *values in
                   zip(names, *scores.tolist(), support.tolist())},
        accuracy=float(diag.sum() / total),
        macro=Scores(*(scores.sum(axis=1) / k).tolist()),
        weighted=Scores(*np.minimum((scores * (support / total)).sum(axis=1),
                                    1.0).tolist()),
        total_support=total,
        zero_division=tuple(name for name, scored in
                            zip(names, has_predicted & has_true)
                            if not scored),
    )


@dataclass
class MetricDelta:
    metric: str
    value_a: float
    value_b: float

    @property
    def delta(self) -> float:
        return self.value_a - self.value_b

    def winner(self, name_a: str, name_b: str) -> str:
        if self.value_a > self.value_b:
            return name_a
        if self.value_b > self.value_a:
            return name_b
        return "tie"


# keys of a comparison row besides the two model names
COMPARISON_KEYS = ("metric", "delta", "winner")


@dataclass
class ComparisonTable:
    name_a: str
    name_b: str
    rows: list  # of MetricDelta

    def _table(self) -> tuple:
        """(keys, rows): a row's keys, :data:`COMPARISON_KEYS` with the two
        model names after the metric, and each row's values under them."""
        metric, *rest = COMPARISON_KEYS
        return (metric, self.name_a, self.name_b, *rest), [
            (r.metric, r.value_a, r.value_b, r.delta,
             r.winner(self.name_a, self.name_b)) for r in self.rows]

    def to_dict(self) -> dict:
        keys, rows = self._table()
        return {
            "schema_version": REPORT_VERSION,
            "model_a": self.name_a,
            "model_b": self.name_b,
            "rows": [dict(zip(keys, row)) for row in rows],
        }

    def to_text(self) -> str:
        width = max(len(r.metric) for r in self.rows) + 2
        lines = [
            f"{'metric'.ljust(width)} {self.name_a:>12} {self.name_b:>12} "
            f"{'delta':>12}  winner"
        ]
        for r in self.rows:
            lines.append(
                f"{r.metric.ljust(width)} {r.value_a:12.6f} {r.value_b:12.6f} "
                f"{r.delta:+12.6f}  {r.winner(self.name_a, self.name_b)}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return csv_text(*self._table())


def compare(report_a: MetricsReport, report_b: MetricsReport,
            name_a: str, name_b: str) -> ComparisonTable:
    """Side-by-side deltas of two reports over the same class set."""
    if set(report_a.class_names) != set(report_b.class_names):
        raise DataError(f"class sets differ: {sorted(report_a.class_names)} "
                        f"vs {sorted(report_b.class_names)}")
    rows = [MetricDelta("accuracy", report_a.accuracy, report_b.accuracy)]
    averages_b = report_b.averages()
    for average, scores_a in report_a.averages().items():
        scores_b = asdict(averages_b[average])
        rows += [MetricDelta(f"{average}_{score}", value, scores_b[score])
                 for score, value in asdict(scores_a).items()]
    for name in report_a.class_names:
        ca = report_a.per_class[name]
        cb = report_b.per_class[name]
        rows.append(MetricDelta(f"f1[{name}]", ca.f1, cb.f1))
    return ComparisonTable(name_a=name_a, name_b=name_b, rows=rows)
