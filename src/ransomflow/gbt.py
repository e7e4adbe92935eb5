"""Second-order gradient boosting with exact greedy splits.

One regression tree per class per round fits the per-sample gradient and
hessian of softmax cross-entropy (g = p - y, h = p(1 - p), both computed once
per round from the current raw scores). Split quality is

    gain = 1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma

and a leaf takes the Newton weight -G / (H + lambda), scaled by the shrinkage
factor when the tree joins the ensemble. Thresholds sit halfway between
adjacent distinct feature values; rows with x <= threshold go left. Ties in
gain resolve to the lowest feature index, then the smallest threshold, which
keeps training deterministic.

Split search runs on per-column value bins: ``train_gbt`` codes each
feature once over its sorted distinct training values, and a node sums its
gradients and hessians per bin with ``np.bincount``. Prefix sums over the bins
that hold the node's rows give every boundary between adjacent distinct
values, the exact greedy candidate set, without sorting rows. Each leaf
hands its row set back, so the training scores are updated without routing
rows again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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
from .nn import softmax
from .serialize import csv_text, read_fields, require_keys


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

    # ``lambda`` is a Python keyword; stored documents use it for ``lambda_``.
    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["lambda"] = doc.pop("lambda_")
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "GbtParams":
        return read_fields(cls, doc, {"lambda_": "lambda"})


def grad_hess(labels: np.ndarray, raw_scores: np.ndarray):
    """Per-sample first and second derivatives of softmax cross-entropy.

    ``raw_scores`` is the (n, k) matrix of accumulated tree outputs. Returns
    (g, h) with g = p - onehot(labels) and h = p * (1 - p), no batch scaling.
    """
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if raw_scores.ndim != 2:
        raise ShapeMismatch(f"raw scores must be 2-d, got {raw_scores.shape}")
    n, k = raw_scores.shape
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels shape {labels.shape} does not match {n} rows")
    check_label_range(labels, k)
    probs = softmax(raw_scores)
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    h = probs * (1.0 - probs)
    return g, h


@dataclass
class SplitDecision:
    feature: int
    threshold: float
    gain: float


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


def best_split(rows: np.ndarray, g: np.ndarray, h: np.ndarray,
               params: GbtParams, bins: list) -> SplitDecision | None:
    """Exhaustive scan over features and boundaries for the given row set.

    ``bins`` is ``column_bins(x)`` of the feature rows. Returns None when no
    candidate has strictly positive gain (including the degenerate cases:
    fewer than 2 rows, all feature values identical, or every boundary
    failing the min-child-hessian constraint).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size < 2:
        return None
    lam = params.lambda_
    g_rows = g[rows]
    h_rows = h[rows]
    total_g = float(g_rows.sum())
    total_h = float(h_rows.sum())
    parent_score = total_g * total_g / (total_h + lam)
    best: SplitDecision | None = None
    for feature, (values, codes) in enumerate(bins):
        node_codes = codes[rows]
        # the bins holding rows; position k is the boundary after bin k
        present = np.flatnonzero(np.bincount(node_codes))
        if present.size < 2:
            continue
        left_g = np.cumsum(np.bincount(node_codes, g_rows)[present[:-1]])
        left_h = np.cumsum(np.bincount(node_codes, h_rows)[present[:-1]])
        right_h = total_h - left_h
        feasible = (left_h >= params.min_child_hessian) \
            & (right_h >= params.min_child_hessian)
        if not feasible.any():
            continue
        right_g = total_g - left_g
        gains = 0.5 * (left_g * left_g / (left_h + lam)
                       + right_g * right_g / (right_h + lam)
                       - parent_score) - params.gamma
        gains = np.where(feasible, gains, -np.inf)
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain <= 0.0:
            continue
        if best is None or gain > best.gain:
            lo = float(values[present[k]])
            hi = float(values[present[k + 1]])
            threshold = (lo + hi) / 2.0
            if threshold >= hi:  # adjacent floats: keep the partition exact
                threshold = lo
            best = SplitDecision(feature=feature, threshold=threshold, gain=gain)
    return best


def _leaf(rows, g, h, lam) -> TreeNode:
    total_g = float(g[rows].sum())
    total_h = float(h[rows].sum())
    return TreeNode(weight=-total_g / (total_h + lam), rows=rows)


def build_tree(rows: np.ndarray, x: np.ndarray, g: np.ndarray, h: np.ndarray,
               params: GbtParams, bins: list, depth: int = 0) -> TreeNode:
    """Recursive greedy construction. Leaf weights carry no shrinkage.

    ``bins`` is ``column_bins(x)``, shared by every node. Each leaf keeps its
    row set in ``rows``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise EmptyData("cannot grow a tree over zero rows")
    if depth >= params.max_depth or rows.size < 2:
        return _leaf(rows, g, h, params.lambda_)
    decision = best_split(rows, g, h, params, bins)
    if decision is None:
        return _leaf(rows, g, h, params.lambda_)
    mask = x[:, decision.feature][rows] <= decision.threshold
    return TreeNode(
        feature=decision.feature,
        threshold=decision.threshold,
        left=build_tree(rows[mask], x, g, h, params, bins, depth + 1),
        right=build_tree(rows[~mask], x, g, h, params, bins, depth + 1),
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


def _mean_ce(raw: np.ndarray, y: np.ndarray) -> float:
    probs = softmax(raw)
    picked = probs[np.arange(len(y)), y]
    return float(-np.log(np.maximum(picked, 1e-12)).mean())


def train_gbt(x: np.ndarray, y: np.ndarray, params: GbtParams,
              k_classes: int):
    """Boost ``params.rounds`` rounds on (n, d) feature rows ``x``.

    Labels ``y`` must fall inside [0, k_classes), and one tree list is grown
    per class. Returns (trees, losses): ``trees[class][round]``, the model,
    and the mean training cross-entropy before any trees and after each
    round.
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
    bins = column_bins(x)
    trees = [[] for _ in range(k_classes)]
    losses = [_mean_ce(raw, y)]
    for _ in range(params.rounds):
        g, h = grad_hess(y, raw)
        for c in range(k_classes):
            tree = build_tree(all_rows, x, g[:, c], h[:, c], params, bins)
            for leaf in tree.leaves():
                leaf.weight *= params.shrinkage
                raw[leaf.rows, c] += leaf.weight
                leaf.rows = None
            trees[c].append(tree)
        losses.append(_mean_ce(raw, y))
    return trees, losses


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


def history_csv(losses: list) -> str:
    return csv_text(("round", "loss"), enumerate(losses))
