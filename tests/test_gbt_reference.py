"""Presorted-column boosting against the per-node argsort reference.

The reference is the straightforward exact-greedy search: at every node it
stable-sorts each feature's values over the node's rows, scans every sorted
position, and after each tree it routes all training rows through the tree
to update the raw scores. The presorted kernel must build the same trees
bit for bit: same splits, same gains, same leaf weights and the same
training loss, over ties, constant columns, adjacent floats and the
regularisation corner cases.
"""

import json

import numpy as np
import pytest

from conftest import blob_data

from ransomflow import rng
from ransomflow.gbt import (
    GbtParams,
    SplitDecision,
    TreeNode,
    _mean_ce,
    best_split,
    build_tree,
    grad_hess,
    model_to_dict,
    node_to_dict,
    train_gbt,
    tree_predict,
)

NEXT_ONE = float(np.nextafter(1.0, 2.0))


def ref_best_split(rows, x, g, h, params):
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size < 2:
        return None
    lam = params.lambda_
    g_rows = g[rows]
    h_rows = h[rows]
    total_g = float(g_rows.sum())
    total_h = float(h_rows.sum())
    parent_score = total_g * total_g / (total_h + lam)
    best = None
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
            if threshold >= hi:
                threshold = lo
            best = SplitDecision(feature=feature, threshold=threshold, gain=gain)
    return best


def ref_leaf(rows, g, h, lam):
    return TreeNode(weight=-float(g[rows].sum()) / (float(h[rows].sum()) + lam))


def ref_build_tree(rows, x, g, h, params, depth=0):
    rows = np.asarray(rows, dtype=np.int64)
    if depth >= params.max_depth or rows.size < 2:
        return ref_leaf(rows, g, h, params.lambda_)
    decision = ref_best_split(rows, x, g, h, params)
    if decision is None:
        return ref_leaf(rows, g, h, params.lambda_)
    mask = x[rows, decision.feature] <= decision.threshold
    return TreeNode(
        feature=decision.feature,
        threshold=decision.threshold,
        left=ref_build_tree(rows[mask], x, g, h, params, depth + 1),
        right=ref_build_tree(rows[~mask], x, g, h, params, depth + 1),
    )


def ref_train_gbt(x, y, params, k):
    n = x.shape[0]
    raw = np.zeros((n, k))
    trees = [[] for _ in range(k)]
    losses = [_mean_ce(raw, y)]
    for _ in range(params.rounds):
        g, h = grad_hess(y, raw)
        for c in range(k):
            tree = ref_build_tree(np.arange(n), x, g[:, c], h[:, c], params)
            for leaf in tree.leaves():
                leaf.weight *= params.shrinkage
            trees[c].append(tree)
            raw[:, c] += tree_predict(tree, x)
        losses.append(_mean_ce(raw, y))
    return trees, losses


def random_case(seed):
    """Rows, labels, parameters and class count covering the awkward column
    shapes."""
    draws = rng.uniform(rng.derive(seed, "case"), 8)
    n = 40 + int(draws[0] * 260)
    k = 2 + int(draws[1] * 3)

    def column(tag):
        return rng.uniform(rng.derive(seed, "column", tag), n)

    few = [np.floor(column(i) * (2 + i)) / (2 + i) for i in range(4)]
    adjacent = np.where(column("adjacent") < 0.5, 1.0, NEXT_ONE)
    constant = np.full(n, 0.25)
    smooth = column("smooth")
    coarse = np.round(column("coarse"), 2)  # ties among many distinct values
    x = np.column_stack(few[:2] + [adjacent, constant, smooth, coarse] + few[2:])
    # labels follow three columns, with noise, so trees have splits to find
    signal = few[0] + smooth + (adjacent > 1.0) + column("noise")
    y = np.minimum((signal / 4.0 * k).astype(np.int64), k - 1)
    y[:k] = np.arange(k)  # every class present
    params = GbtParams(
        min_child_hessian=(0.0, 0.1, 1.0, 5.0)[int(draws[2] * 4)],
        gamma=(0.0, 0.01, 1.0)[int(draws[3] * 3)],
        lambda_=(0.0, 1.0)[int(draws[4] * 2)],
        max_depth=1 + int(draws[5] * 6),
        rounds=1 + int(draws[6] * 3),
    )
    return x, y, params, k


def model_json(model):
    return json.dumps(model_to_dict(model), sort_keys=True)


@pytest.mark.parametrize("seed", range(40))
def test_training_matches_reference(seed):
    x, y, params, k = random_case(seed)
    fast, fast_losses = train_gbt(x, y, params, k)
    slow, slow_losses = ref_train_gbt(x, y, params, k)
    assert model_json(fast) == model_json(slow)
    assert repr(fast_losses) == repr(slow_losses)


@pytest.mark.parametrize("seed", range(40))
def test_split_and_subtree_match_reference_on_row_subsets(seed):
    x, y, params, k = random_case(seed)
    g, h = grad_hess(y, rng.uniform_signed(rng.derive(seed, "raw"),
                                           (len(y), k), 2.0))
    pick = rng.uniform(rng.derive(seed, "subset"), len(y))
    for rows in (np.arange(len(y)), np.flatnonzero(pick < 0.5),
                 rng.permutation(rng.derive(seed, "shuffle"), len(y))[:30]):
        for c in range(k):
            # SplitDecision equality compares the gain bits too, which
            # depend on the order the prefix sums visit the rows
            assert best_split(rows, x, g[:, c], h[:, c], params) \
                == ref_best_split(rows, x, g[:, c], h[:, c], params)
            assert node_to_dict(build_tree(rows, x, g[:, c], h[:, c], params)) \
                == node_to_dict(ref_build_tree(rows, x, g[:, c], h[:, c],
                                               params))


def test_blob_fixture_matches_reference():
    x, y = blob_data(30, 3, seed=79)
    params = GbtParams(rounds=5, max_depth=4)
    fast, fast_losses = train_gbt(x, y, params, 3)
    slow, slow_losses = ref_train_gbt(x, y, params, 3)
    assert model_json(fast) == model_json(slow)
    assert repr(fast_losses) == repr(slow_losses)


def test_cases_cover_the_corner_cases():
    cases = [random_case(seed) for seed in range(40)]
    params = [p for _, _, p, _ in cases]
    assert {p.min_child_hessian for p in params} == {0.0, 0.1, 1.0, 5.0}
    assert {p.gamma for p in params} == {0.0, 0.01, 1.0}
    assert {p.lambda_ for p in params} == {0.0, 1.0}
    assert {p.max_depth for p in params} == set(range(1, 7))
    x = cases[0][0]
    assert set(x[:, 2]) == {1.0, NEXT_ONE}
    assert np.unique(x[:, 3]).size == 1

    def split_features(node):
        if node.is_leaf:
            return set()
        return {node.feature} | split_features(node.left) \
            | split_features(node.right)

    used = set()
    for cx, cy, p, k in cases:
        for per_class in ref_train_gbt(cx, cy, p, k)[0]:
            for tree in per_class:
                used |= split_features(tree)
    # few-valued, adjacent-float, smooth and rounded columns all get split;
    # the constant column never does
    assert {0, 2, 4, 5} <= used
    assert 3 not in used
