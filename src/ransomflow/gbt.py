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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateClasses,
    EmptyData,
    ShapeMismatch,
    check_int,
    check_label_range,
)
from .nn import softmax
from .serialize import SCHEMA_VERSION, curve_csv, require_version


@dataclass
class GbtParams:
    gamma: float = 0.0
    lambda_: float = 1.0
    shrinkage: float = 0.3
    max_depth: int = 6
    rounds: int = 100
    min_child_hessian: float = 1.0
    k_classes: int = 3

    def __post_init__(self):
        check_int("max depth", self.max_depth, 1)
        check_int("rounds", self.rounds, 0)
        check_int("class count", self.k_classes, 2)
        if self.gamma < 0 or self.lambda_ < 0:
            raise ConfigError("gamma and lambda must be non-negative")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ConfigError(f"shrinkage must lie in (0, 1], got {self.shrinkage}")
        if self.min_child_hessian < 0:
            raise ConfigError("min child hessian must be non-negative")

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "lambda": self.lambda_,
            "shrinkage": self.shrinkage,
            "max_depth": self.max_depth,
            "rounds": self.rounds,
            "min_child_hessian": self.min_child_hessian,
            "k_classes": self.k_classes,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GbtParams":
        return cls(
            gamma=doc["gamma"],
            lambda_=doc["lambda"],
            shrinkage=doc["shrinkage"],
            max_depth=doc["max_depth"],
            rounds=doc["rounds"],
            min_child_hessian=doc["min_child_hessian"],
            k_classes=doc["k_classes"],
        )


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

    @property
    def is_leaf(self) -> bool:
        return self.weight is not None

    def leaves(self):
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()


def best_split(rows: np.ndarray, x: np.ndarray, g: np.ndarray, h: np.ndarray,
               params: GbtParams) -> SplitDecision | None:
    """Exhaustive scan over features and boundaries for the given row set.

    Returns None when no candidate has strictly positive gain (including the
    degenerate cases: fewer than 2 rows, all feature values identical, or
    every boundary failing the min-child-hessian constraint).
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
    for feature in range(x.shape[1]):
        values = x[rows, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        if sorted_values[0] == sorted_values[-1]:
            continue
        left_g = np.cumsum(g_rows[order])[:-1]
        left_h = np.cumsum(h_rows[order])[:-1]
        boundary = sorted_values[1:] != sorted_values[:-1]
        right_h = total_h - left_h
        feasible = boundary & (left_h >= params.min_child_hessian) \
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
            lo = float(sorted_values[k])
            hi = float(sorted_values[k + 1])
            threshold = (lo + hi) / 2.0
            if threshold >= hi:  # adjacent floats: keep the partition exact
                threshold = lo
            best = SplitDecision(feature=feature, threshold=threshold, gain=gain)
    return best


def _leaf(rows, g, h, lam) -> TreeNode:
    total_g = float(g[rows].sum())
    total_h = float(h[rows].sum())
    return TreeNode(weight=-total_g / (total_h + lam))


def build_tree(rows: np.ndarray, x: np.ndarray, g: np.ndarray, h: np.ndarray,
               params: GbtParams, depth: int = 0) -> TreeNode:
    """Recursive greedy construction. Leaf weights carry no shrinkage."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise EmptyData("cannot grow a tree over zero rows")
    if depth >= params.max_depth or rows.size < 2:
        return _leaf(rows, g, h, params.lambda_)
    decision = best_split(rows, x, g, h, params)
    if decision is None:
        return _leaf(rows, g, h, params.lambda_)
    mask = x[rows, decision.feature] <= decision.threshold
    return TreeNode(
        feature=decision.feature,
        threshold=decision.threshold,
        left=build_tree(rows[mask], x, g, h, params, depth + 1),
        right=build_tree(rows[~mask], x, g, h, params, depth + 1),
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


@dataclass
class GbtModel:
    trees: list          # trees[class][round]
    params: GbtParams
    base_score: float = 0.0
    training_loss: list = field(default_factory=list)

    @property
    def k_classes(self) -> int:
        return len(self.trees)

    @property
    def rounds_built(self) -> int:
        return len(self.trees[0]) if self.trees else 0


def _mean_ce(raw: np.ndarray, y: np.ndarray) -> float:
    probs = softmax(raw)
    picked = probs[np.arange(len(y)), y]
    return float(-np.log(np.maximum(picked, 1e-12)).mean())


def train_gbt(fm, params: GbtParams | None = None) -> GbtModel:
    """Boost ``params.rounds`` rounds on a feature matrix.

    ``fm`` needs ``x`` (n, d) and integer ``y`` attributes; labels must fall
    inside [0, params.k_classes). ``training_loss`` records the mean
    cross-entropy before any trees and after each round.
    """
    params = params or GbtParams()
    x = np.asarray(fm.x, dtype=np.float64)
    y = np.asarray(fm.y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyData("cannot train on zero rows")
    if y.shape != (x.shape[0],):
        raise ShapeMismatch(f"{x.shape[0]} rows vs labels shape {y.shape}")
    k = params.k_classes
    if np.unique(y).size < 2:
        raise DegenerateClasses("training labels hold fewer than 2 classes")
    check_label_range(y, k)
    n = x.shape[0]
    raw = np.zeros((n, k), dtype=np.float64)
    all_rows = np.arange(n, dtype=np.int64)
    trees = [[] for _ in range(k)]
    losses = [_mean_ce(raw, y)]
    for _ in range(params.rounds):
        g, h = grad_hess(y, raw)
        for c in range(k):
            tree = build_tree(all_rows, x, g[:, c], h[:, c], params)
            for leaf in tree.leaves():
                leaf.weight *= params.shrinkage
            trees[c].append(tree)
            raw[:, c] += tree_predict(tree, x)
        losses.append(_mean_ce(raw, y))
    return GbtModel(trees=trees, params=params, base_score=0.0,
                    training_loss=losses)


def gbt_raw_scores(model: GbtModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected (rows, features), got {x.shape}")
    raw = np.full((x.shape[0], model.k_classes), model.base_score)
    for c, per_class in enumerate(model.trees):
        for tree in per_class:
            raw[:, c] += tree_predict(tree, x)
    return raw


def gbt_predict(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities: softmax of the summed tree outputs."""
    return softmax(gbt_raw_scores(model, x))


def predict_labels(model: GbtModel, x: np.ndarray) -> np.ndarray:
    return gbt_predict(model, x).argmax(axis=1).astype(np.int64)


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


def node_from_dict(doc: dict) -> TreeNode:
    if "weight" in doc:
        return TreeNode(weight=float(doc["weight"]))
    return TreeNode(
        feature=int(doc["feature"]),
        threshold=float(doc["threshold"]),
        left=node_from_dict(doc["left"]),
        right=node_from_dict(doc["right"]),
    )


def model_to_dict(model: GbtModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "component": "gbt",
        "params": model.params.to_dict(),
        "base_score": model.base_score,
        "training_loss": [float(v) for v in model.training_loss],
        "trees": [[node_to_dict(t) for t in per_class]
                  for per_class in model.trees],
    }


def model_from_dict(doc: dict) -> GbtModel:
    require_version(doc, "gbt model")
    if doc.get("component") != "gbt":
        from .errors import SchemaMismatch

        raise SchemaMismatch(f"expected gbt component, got {doc.get('component')!r}")
    return GbtModel(
        trees=[[node_from_dict(t) for t in per_class]
               for per_class in doc["trees"]],
        params=GbtParams.from_dict(doc["params"]),
        base_score=float(doc["base_score"]),
        training_loss=[float(v) for v in doc["training_loss"]],
    )


def history_csv(model: GbtModel) -> str:
    return curve_csv("round,loss", enumerate(model.training_loss))
