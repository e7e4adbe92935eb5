"""Second-order gradient boosting with exact greedy splits.

One regression tree per class per round fits the per-sample gradient and
hessian of softmax cross-entropy (g = p - y, h = p(1 - p), both computed once
per round from the softmax that gave the last loss). Split quality is

    gain = 1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma

and a leaf takes the Newton weight -G / (H + lambda), or 0 where H + lambda
= 0 (as XGBoost's ``CalcWeight`` does), scaled by the shrinkage factor when
the tree joins the ensemble. Thresholds sit halfway between adjacent
distinct feature values; rows with x <= threshold go left. Ties in gain
resolve to the lowest feature index, then the smallest threshold, which
keeps training deterministic.

Split search runs on per-column value bins: ``train_gbt`` codes each
feature once over its sorted distinct training values and numbers all
columns' bins in one flat space. Each node holds a histogram: the row
count, gradient sum and hessian sum of only the bins its rows hold. The
root's is summed with ``np.bincount``; after a split only the smaller
child's rows are summed, into the parent's bins, and the larger child's
histogram is the parent's minus the smaller's (histogram subtraction, Ke et
al., NeurIPS 2017: counts exact, sums within rounding). One pass over a
node's histogram, prefix sums per column and one gain expression, scores
every boundary between adjacent distinct values the node holds, the exact
greedy candidate set, without sorting rows; a boundary is a candidate only
where both sides hold ``min_child_hessian`` and have H + lambda > 0. Each
leaf hands its row set back, so the training scores are updated without
routing rows again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateClasses,
    EmptyData,
    SchemaMismatch,
    ShapeMismatch,
    check_int,
    check_label_range,
    check_labeled_rows,
    check_number,
    is_finite_number,
)
from .nn import EpochRecord, finite_loss, records_csv, softmax
from .serialize import require_keys


@dataclass
class GbtParams:
    gamma: float = 0.0
    lambda_: float = 1.0
    shrinkage: float = 0.3
    max_depth: int = 6
    rounds: int = 100
    min_child_hessian: float = 1.0

    def __post_init__(self):
        check_int("max depth", self.max_depth, 1)
        check_int("rounds", self.rounds, 0)
        check_number("gamma", self.gamma, 0.0)
        check_number("lambda", self.lambda_, 0.0)
        check_number("min child hessian", self.min_child_hessian, 0.0)
        check_number("shrinkage", self.shrinkage)
        if not 0.0 < self.shrinkage <= 1.0:
            raise ConfigError(f"shrinkage must lie in (0, 1], got {self.shrinkage}")


def grad_hess(labels: np.ndarray, probs: np.ndarray):
    """Per-sample first and second derivatives of softmax cross-entropy.

    ``probs`` is the (n, k) softmax of the accumulated tree outputs. Returns
    (g, h) with g = p - onehot(labels) and h = p * (1 - p), no batch scaling.
    """
    n, k = probs.shape
    check_label_range(labels, k)
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    h = probs * (1.0 - probs)
    return g, h


@dataclass
class SplitDecision:
    feature: int
    threshold: float


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float | None = None
    # a leaf's training rows while its tree is built; never serialized
    rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return self.weight is not None

    def leaves(self):
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()


def column_bins(x: np.ndarray) -> list:
    """Per feature, (values, codes): the column's sorted distinct values and
    each row's index into them, so ``values[codes]`` is the column."""
    return [np.unique(x[:, f], return_inverse=True) for f in range(x.shape[1])]


@dataclass(frozen=True)
class BinLayout:
    """Every column's bins numbered in one flat space: column f owns bins
    ``offsets[f]:offsets[f + 1]``, in ascending value order."""

    codes: list          # per column, each row's bin within the column
    values: np.ndarray   # the value of each flat bin
    offsets: np.ndarray  # (d + 1,)


def bin_layout(x: np.ndarray) -> BinLayout:
    """The bins of ``column_bins(x)``, numbered in one flat space."""
    bins = column_bins(x)
    return BinLayout([codes for _, codes in bins],
                     np.concatenate([values for values, _ in bins]),
                     np.cumsum([0] + [values.size for values, _ in bins]))


class Histogram(NamedTuple):
    """A node's per-bin sums over only the bins its rows hold: ascending
    flat bin ``ids``, and per bin the row ``count`` and the sums ``g`` and
    ``h`` of its rows' gradients and hessians."""

    ids: np.ndarray
    count: np.ndarray
    g: np.ndarray
    h: np.ndarray


def _bin_sums(columns, starts: np.ndarray, *weights) -> list:
    """Per-bin sums of each of ``weights`` (None counts rows) over rows
    whose bins in column f are ``columns[f]``, numbered from 0 at
    ``starts[f]`` up to ``starts[f + 1]``; each bin adds its rows in row
    order."""
    sums = [np.empty(starts[-1], dtype=np.intp if w is None else np.float64)
            for w in weights]
    for f, local in enumerate(columns):
        lo, hi = starts[f], starts[f + 1]
        for out, w in zip(sums, weights):
            out[lo:hi] = np.bincount(local, w, hi - lo)
    return sums


def _held(ids, count, g, h) -> Histogram:
    keep = count > 0
    return Histogram(ids[keep], count[keep], g[keep], h[keep])


def split_histograms(hist: Histogram, left: np.ndarray, right: np.ndarray,
                     g: np.ndarray, h: np.ndarray, layout: BinLayout) -> list:
    """[left, right] histograms of the children of a node whose histogram
    is ``hist``: the smaller child's rows are summed over the parent's
    bins, and the larger child is the parent minus the smaller (its counts
    exact, its sums within rounding of its rows' own)."""
    small = left if left.size <= right.size else right
    starts = np.searchsorted(hist.ids, layout.offsets)
    # each flat bin the parent holds -> its index in hist.ids; less
    # starts[f], its index within column f's run
    position = np.empty(layout.values.size, dtype=np.intp)
    position[hist.ids] = np.arange(hist.ids.size)
    offsets = layout.offsets
    columns = (position[offsets[f]:offsets[f + 1]][codes[small]] - starts[f]
               for f, codes in enumerate(layout.codes))
    sums = _bin_sums(columns, starts, None, g[small], h[small])
    children = [_held(hist.ids, *sums)]
    # the larger child: the parent minus the smaller, in place
    for parent, part in zip((hist.count, hist.g, hist.h), sums):
        np.subtract(parent, part, out=part)
    children.append(_held(hist.ids, *sums))
    return children if small is left else children[::-1]


def best_split(hist: Histogram, total_g: float, total_h: float,
               params: GbtParams, layout: BinLayout) -> SplitDecision | None:
    """Exhaustive scan over features and boundaries of a node.

    ``hist`` is the node's histogram over ``layout``, and ``total_g`` and
    ``total_h`` are the sums over its rows. Every boundary between two bins
    of one column that the node holds is a candidate where both sides hold
    at least ``min_child_hessian`` and have H + lambda > 0. Returns None when
    no candidate has strictly positive gain (including the degenerate
    cases: fewer than 2 rows, all feature values identical, or no
    candidate at all).
    """
    ids = hist.ids
    lam = params.lambda_
    # column f's bins are ids[starts[f]:starts[f + 1]], at least one as
    # each row has a bin in every column; position k is the boundary after
    # bin k
    starts = np.searchsorted(ids, layout.offsets)
    left_g = np.empty(ids.size)
    left_h = np.empty(ids.size)
    for lo, hi in zip(starts[:-1], starts[1:]):
        np.cumsum(hist.g[lo:hi], out=left_g[lo:hi])
        np.cumsum(hist.h[lo:hi], out=left_h[lo:hi])
    right_h = total_h - left_h
    feasible = (left_h >= params.min_child_hessian) \
        & (right_h >= params.min_child_hessian) \
        & (left_h + lam > 0.0) & (right_h + lam > 0.0)
    feasible[starts[1:] - 1] = False  # a column's last bin has no boundary
    candidates = np.flatnonzero(feasible)
    if candidates.size == 0:
        return None
    left_g = left_g[candidates]
    left_h = left_h[candidates]
    right_h = right_h[candidates]
    right_g = total_g - left_g
    parent_score = total_g * total_g / (total_h + lam)
    gains = 0.5 * (left_g * left_g / (left_h + lam)
                   + right_g * right_g / (right_h + lam)
                   - parent_score) - params.gamma
    k = int(np.argmax(gains))  # the first maximum: lowest feature and value
    if gains[k] <= 0.0:
        return None
    at = candidates[k]
    lo = float(layout.values[ids[at]])
    hi = float(layout.values[ids[at + 1]])
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # adjacent floats: keep the partition exact
        threshold = lo
    feature = int(np.searchsorted(layout.offsets, ids[at], side="right")) - 1
    return SplitDecision(feature=feature, threshold=threshold)


def build_tree(rows: np.ndarray, x: np.ndarray, g: np.ndarray, h: np.ndarray,
               params: GbtParams, layout: BinLayout, hist: Histogram | None,
               depth: int = 0) -> TreeNode:
    """Recursive greedy construction. Leaf weights carry no shrinkage.

    ``layout`` is ``bin_layout(x)``, shared by every node, and ``hist`` the
    histogram of ``rows`` (None at ``max_depth``, where no split is
    searched). Each leaf keeps its row set in ``rows``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise EmptyData("cannot grow a tree over zero rows")
    total_g = float(g[rows].sum())
    total_h = float(h[rows].sum())
    decision = None
    if depth < params.max_depth and rows.size >= 2:
        decision = best_split(hist, total_g, total_h, params, layout)
    if decision is None:
        denominator = total_h + params.lambda_
        weight = -total_g / denominator if denominator > 0.0 else 0.0
        return TreeNode(weight=weight, rows=rows)
    mask = x[:, decision.feature][rows] <= decision.threshold
    left, right = rows[mask], rows[~mask]
    children = [None, None]
    if depth + 1 < params.max_depth:
        children = split_histograms(hist, left, right, g, h, layout)
    # each child's call holds the only reference to its histogram, so this
    # node's is freed before its subtrees grow, and each child's once it
    # has split it
    del hist
    return TreeNode(
        feature=decision.feature,
        threshold=decision.threshold,
        left=build_tree(left, x, g, h, params, layout, children.pop(0),
                        depth + 1),
        right=build_tree(right, x, g, h, params, layout, children.pop(0),
                         depth + 1),
    )


def tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """Leaf weight per row of a (n, d) matrix."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape[0], dtype=np.float64)

    def fill(node, idx):
        if node.is_leaf:
            out[idx] = node.weight
            return
        mask = x[idx, node.feature] <= node.threshold
        fill(node.left, idx[mask])
        fill(node.right, idx[~mask])

    fill(node, np.arange(x.shape[0]))
    return out


@np.errstate(all="ignore")  # the loss check reports overflow instead
def train_gbt(x: np.ndarray, y: np.ndarray, params: GbtParams,
              k_classes: int):
    """Boost ``params.rounds`` rounds on (n, d) feature rows ``x``.

    Labels ``y`` must fall inside [0, k_classes), and one tree list is grown
    per class. Returns (trees, records): ``trees[class][round]``, the model,
    and a :class:`ransomflow.nn.EpochRecord` of the mean training cross-entropy
    before any tree and after each round, each of which must be finite.
    """
    # column-major, so each feature's values are one contiguous gather
    x = np.asfortranarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    check_labeled_rows(x, y, k_classes)
    if np.unique(y).size < 2:
        raise DegenerateClasses("training labels hold fewer than 2 classes")
    n = x.shape[0]
    raw = np.zeros((n, k_classes), dtype=np.float64)
    all_rows = np.arange(n, dtype=np.int64)
    layout = bin_layout(x)
    # the root holds every bin, with the same counts in every tree
    all_bins = np.arange(layout.values.size)
    root_count, = _bin_sums(layout.codes, layout.offsets, None)
    trees = [[] for _ in range(k_classes)]

    def record(step: int, probs: np.ndarray) -> EpochRecord:
        loss = float(-np.log(np.maximum(probs[all_rows, y], 1e-12)).mean())
        return EpochRecord("boosting", None, step,
                           finite_loss(f"boosting: round {step}", loss), None)

    probs = softmax(raw)  # a step's loss and the next round's gradients
    records = [record(0, probs)]
    for step in range(1, params.rounds + 1):
        g, h = grad_hess(y, probs)
        g, h = np.ascontiguousarray(g.T), np.ascontiguousarray(h.T)  # by class
        for c in range(k_classes):
            tree = build_tree(all_rows, x, g[c], h[c], params, layout,
                              Histogram(all_bins, root_count, *_bin_sums(
                                  layout.codes, layout.offsets, g[c], h[c])))
            for leaf in tree.leaves():
                leaf.weight *= params.shrinkage
                raw[leaf.rows, c] += leaf.weight
                leaf.rows = None
            trees[c].append(tree)
        probs = softmax(raw)
        records.append(record(step, probs))
    return trees, records


def gbt_raw_scores(trees: list, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected (rows, features), got {x.shape}")
    raw = np.zeros((x.shape[0], len(trees)))
    for c, per_class in enumerate(trees):
        for tree in per_class:
            raw[:, c] += tree_predict(tree, x)
    return raw


def gbt_predict(trees: list, x: np.ndarray) -> np.ndarray:
    """Class probabilities: softmax of the summed tree outputs."""
    return softmax(gbt_raw_scores(trees, x))


def predict_labels(trees: list, x: np.ndarray) -> np.ndarray:
    return gbt_predict(trees, x).argmax(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Serialization


def node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": node_to_dict(node.left),
        "right": node_to_dict(node.right),
    }


def _stored_number(value, what: str) -> float:
    if not is_finite_number(value):
        raise SchemaMismatch(f"{what} {value!r} is not a number")
    return float(value)


def node_from_dict(doc: dict, features: int) -> TreeNode:
    """The tree a stored node holds: exactly a numeric ``weight`` (a leaf) or
    exactly a ``feature`` index in [0, features), a numeric ``threshold`` and
    ``left`` and ``right`` nodes."""
    if "weight" in doc:
        require_keys(doc, ("weight",), "tree leaf")
        return TreeNode(weight=_stored_number(doc["weight"], "tree leaf weight"))
    require_keys(doc, ("feature", "threshold", "left", "right"), "tree node")
    feature = doc["feature"]
    if type(feature) is not int or not 0 <= feature < features:
        raise SchemaMismatch(f"tree node feature {feature!r} is not a column "
                             f"index in [0, {features})")
    return TreeNode(
        feature=feature,
        threshold=_stored_number(doc["threshold"], "tree node threshold"),
        left=node_from_dict(doc["left"], features),
        right=node_from_dict(doc["right"], features),
    )


def model_to_dict(trees: list) -> dict:
    return {"trees": [[node_to_dict(t) for t in per_class]
                      for per_class in trees]}


def model_from_dict(doc: dict, rounds: int, k_classes: int,
                    features: int) -> list:
    """The trees in ``doc``, which split rows of ``features`` columns;
    :class:`SchemaMismatch` unless they are ``k_classes`` lists of ``rounds``
    trees each."""
    require_keys(doc, ("trees",), "gbt")
    trees = [[node_from_dict(t, features) for t in per_class]
             for per_class in doc["trees"]]
    counts = [len(per_class) for per_class in trees]
    if counts != [rounds] * k_classes:
        raise SchemaMismatch(f"tree counts {counts} per class contradict "
                             f"{rounds} rounds and {k_classes} classes")
    return trees


def history_csv(records: list) -> str:
    return records_csv(records, round="step", loss="loss")
