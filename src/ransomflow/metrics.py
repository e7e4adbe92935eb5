"""Multiclass evaluation: confusion matrix, per-class scores, model deltas.

Conventions: confusion rows are true classes, columns are predictions.
Precision divides the diagonal by column sums, recall by row sums, and any
zero denominator yields a score of 0 with the class recorded in the report's
``zero_division`` tuple instead of raising. Weighted recall equals accuracy
by construction, which doubles as an internal consistency check.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import (
    ClassSetMismatch,
    EmptyMatrix,
    LengthMismatch,
    check_label_range,
)
from .serialize import REPORT_VERSION, csv_text, require_version


@dataclass
class ConfusionMatrix:
    counts: np.ndarray
    class_names: tuple

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise EmptyMatrix(f"confusion matrix must be square, got {self.counts.shape}")
        if self.counts.shape[0] == 0:
            raise EmptyMatrix("confusion matrix has no classes")
        self.class_names = tuple(self.class_names)
        if len(self.class_names) != self.counts.shape[0]:
            raise LengthMismatch(
                f"{len(self.class_names)} names for {self.counts.shape[0]} classes"
            )

    @property
    def k_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self) -> str:
        return csv_text(("true\\predicted", *self.class_names),
                        ((name, *row) for name, row in
                         zip(self.class_names, self.counts.tolist())))


def confusion(y_true, y_pred, k_classes: int, class_names=None) -> ConfusionMatrix:
    """Count (true, predicted) pairs into a k x k matrix."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.ndim != 1 or y_pred.ndim != 1 or y_true.shape != y_pred.shape:
        raise LengthMismatch(
            f"y_true {y_true.shape} and y_pred {y_pred.shape} must be equal-length vectors"
        )
    if k_classes < 1:
        raise EmptyMatrix(f"k_classes must be positive, got {k_classes}")
    check_label_range(y_true, k_classes)
    check_label_range(y_pred, k_classes)
    flat = y_true.astype(np.int64) * k_classes + y_pred.astype(np.int64)
    counts = np.bincount(flat, minlength=k_classes * k_classes)
    counts = counts.reshape(k_classes, k_classes)
    if class_names is None:
        class_names = tuple(str(i) for i in range(k_classes))
    return ConfusionMatrix(counts, class_names)


@dataclass
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class MetricsReport:
    class_names: tuple
    per_class: dict  # name -> ClassScores
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total_support: int
    zero_division: tuple = ()

    @classmethod
    def from_values(cls, class_names, precision, recall, f1, support,
                    accuracy, macro=None, weighted=None) -> "MetricsReport":
        """Assemble a report from externally published per-class numbers.

        ``macro`` and ``weighted`` are optional (precision, recall, f1)
        triples; when omitted they are recomputed from the per-class values.
        Published tables sometimes round their average rows differently from
        their per-class rows, so both paths are supported.
        """
        class_names = tuple(class_names)
        lengths = {len(class_names), len(precision), len(recall), len(f1), len(support)}
        if len(lengths) != 1:
            raise LengthMismatch("per-class value lists have differing lengths")
        per_class = {
            name: ClassScores(float(p), float(r), float(f), int(s))
            for name, p, r, f, s in zip(class_names, precision, recall, f1, support)
        }
        total = int(sum(support))
        if macro is None:
            k = len(class_names)
            macro = (sum(precision) / k, sum(recall) / k, sum(f1) / k)
        if weighted is None:
            if total == 0:
                weighted = (0.0, 0.0, 0.0)
            else:
                weighted = (
                    sum(p * s for p, s in zip(precision, support)) / total,
                    sum(r * s for r, s in zip(recall, support)) / total,
                    sum(f * s for f, s in zip(f1, support)) / total,
                )
        return cls(
            class_names=class_names,
            per_class=per_class,
            accuracy=float(accuracy),
            macro_precision=float(macro[0]),
            macro_recall=float(macro[1]),
            macro_f1=float(macro[2]),
            weighted_precision=float(weighted[0]),
            weighted_recall=float(weighted[1]),
            weighted_f1=float(weighted[2]),
            total_support=total,
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_VERSION,
            "classes": {
                name: {
                    "precision": cs.precision,
                    "recall": cs.recall,
                    "f1": cs.f1,
                    "support": cs.support,
                }
                for name, cs in self.per_class.items()
            },
            "class_order": list(self.class_names),
            "accuracy": self.accuracy,
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "weighted": {
                "precision": self.weighted_precision,
                "recall": self.weighted_recall,
                "f1": self.weighted_f1,
            },
            "total_support": self.total_support,
            "zero_division": list(self.zero_division),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsReport":
        require_version(doc, "metrics report", REPORT_VERSION)
        names = tuple(doc["class_order"])
        per_class = {
            name: ClassScores(
                precision=float(doc["classes"][name]["precision"]),
                recall=float(doc["classes"][name]["recall"]),
                f1=float(doc["classes"][name]["f1"]),
                support=int(doc["classes"][name]["support"]),
            )
            for name in names
        }
        return cls(
            class_names=names,
            per_class=per_class,
            accuracy=float(doc["accuracy"]),
            macro_precision=float(doc["macro"]["precision"]),
            macro_recall=float(doc["macro"]["recall"]),
            macro_f1=float(doc["macro"]["f1"]),
            weighted_precision=float(doc["weighted"]["precision"]),
            weighted_recall=float(doc["weighted"]["recall"]),
            weighted_f1=float(doc["weighted"]["f1"]),
            total_support=int(doc["total_support"]),
            zero_division=tuple(doc.get("zero_division", ())),
        )

    def to_text(self) -> str:
        width = max([len(n) for n in self.class_names] + [12])
        lines = [
            f"{'class'.ljust(width)}  precision    recall        f1   support"
        ]
        for name in self.class_names:
            cs = self.per_class[name]
            lines.append(
                f"{name.ljust(width)}  {cs.precision:9.6f} {cs.recall:9.6f} "
                f"{cs.f1:9.6f}  {cs.support:8d}"
            )
        lines.append("")
        lines.append(f"{'accuracy'.ljust(width)}  {self.accuracy:9.6f}"
                     f"{'':20}  {self.total_support:8d}")
        lines.append(
            f"{'macro avg'.ljust(width)}  {self.macro_precision:9.6f} "
            f"{self.macro_recall:9.6f} {self.macro_f1:9.6f}  {self.total_support:8d}"
        )
        lines.append(
            f"{'weighted avg'.ljust(width)}  {self.weighted_precision:9.6f} "
            f"{self.weighted_recall:9.6f} {self.weighted_f1:9.6f}  {self.total_support:8d}"
        )
        if self.zero_division:
            lines.append("")
            lines.append("zero-division classes: " + ", ".join(self.zero_division))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = [(name, *astuple(self.per_class[name]))
                for name in self.class_names]
        rows += [
            ("accuracy", self.accuracy, "", "", self.total_support),
            ("macro avg", self.macro_precision, self.macro_recall,
             self.macro_f1, self.total_support),
            ("weighted avg", self.weighted_precision, self.weighted_recall,
             self.weighted_f1, self.total_support),
        ]
        return csv_text(("class", "precision", "recall", "f1", "support"), rows)


def report(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/F1 with macro and support-weighted averages."""
    counts = cm.counts
    total = cm.total
    if total == 0:
        raise EmptyMatrix("confusion matrix holds no observations")
    diag = np.diag(counts).astype(np.float64)
    col_sums = counts.sum(axis=0).astype(np.float64)
    row_sums = counts.sum(axis=1).astype(np.float64)
    zero_division = []
    precision = np.zeros(cm.k_classes)
    recall = np.zeros(cm.k_classes)
    f1 = np.zeros(cm.k_classes)
    for i, name in enumerate(cm.class_names):
        flagged = False
        if col_sums[i] > 0:
            precision[i] = diag[i] / col_sums[i]
        else:
            flagged = True
        if row_sums[i] > 0:
            recall[i] = diag[i] / row_sums[i]
        else:
            flagged = True
        f1[i] = f1_score(precision[i], recall[i])
        if flagged:
            zero_division.append(name)
    support = row_sums.astype(np.int64)
    accuracy = float(diag.sum() / total)
    per_class = {
        name: ClassScores(float(precision[i]), float(recall[i]), float(f1[i]),
                          int(support[i]))
        for i, name in enumerate(cm.class_names)
    }
    k = cm.k_classes
    weights = support / total
    return MetricsReport(
        class_names=cm.class_names,
        per_class=per_class,
        accuracy=accuracy,
        macro_precision=float(precision.sum() / k),
        macro_recall=float(recall.sum() / k),
        macro_f1=float(f1.sum() / k),
        weighted_precision=float((precision * weights).sum()),
        weighted_recall=float((recall * weights).sum()),
        weighted_f1=float((f1 * weights).sum()),
        total_support=total,
        zero_division=tuple(zero_division),
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


@dataclass
class ComparisonTable:
    name_a: str
    name_b: str
    rows: list  # of MetricDelta

    def row(self, metric: str) -> MetricDelta:
        for r in self.rows:
            if r.metric == metric:
                return r
        raise KeyError(metric)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_VERSION,
            "model_a": self.name_a,
            "model_b": self.name_b,
            "rows": [
                {
                    "metric": r.metric,
                    self.name_a: r.value_a,
                    self.name_b: r.value_b,
                    "delta": r.delta,
                    "winner": r.winner(self.name_a, self.name_b),
                }
                for r in self.rows
            ],
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
        return csv_text(
            ("metric", self.name_a, self.name_b, "delta", "winner"),
            ((r.metric, r.value_a, r.value_b, r.delta,
              r.winner(self.name_a, self.name_b)) for r in self.rows))


def compare(report_a: MetricsReport, report_b: MetricsReport,
            name_a: str = "A", name_b: str = "B") -> ComparisonTable:
    """Side-by-side deltas of two reports over the same class set."""
    if set(report_a.class_names) != set(report_b.class_names):
        raise ClassSetMismatch(report_a.class_names, report_b.class_names)
    rows = [
        MetricDelta("accuracy", report_a.accuracy, report_b.accuracy),
        MetricDelta("macro_precision", report_a.macro_precision, report_b.macro_precision),
        MetricDelta("macro_recall", report_a.macro_recall, report_b.macro_recall),
        MetricDelta("macro_f1", report_a.macro_f1, report_b.macro_f1),
        MetricDelta("weighted_precision", report_a.weighted_precision,
                    report_b.weighted_precision),
        MetricDelta("weighted_recall", report_a.weighted_recall,
                    report_b.weighted_recall),
        MetricDelta("weighted_f1", report_a.weighted_f1, report_b.weighted_f1),
    ]
    for name in report_a.class_names:
        ca = report_a.per_class[name]
        cb = report_b.per_class[name]
        rows.append(MetricDelta(f"f1[{name}]", ca.f1, cb.f1))
    return ComparisonTable(name_a=name_a, name_b=name_b, rows=rows)
