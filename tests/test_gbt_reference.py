"""Binned boosting against the per-node argsort reference.

The reference is the straightforward exact-greedy search: at every node it
stable-sorts each feature's values over the node's rows, scans every sorted
position, and after each tree it routes all training rows through the tree
to update the raw scores. The binned kernel sums gradients per distinct
value instead, and takes the larger child's sums as its parent's minus the
smaller child's, so its gains differ from the reference's in the last bits.
It must still make the reference's decisions, over ties, constant columns,
adjacent floats and the regularisation corner cases:

Gains are compared under ``RTOL``, relative to the larger of the gain and
the node's structure score G^2 / (H + lambda): a gain is a difference of
such scores, so its rounding error scales with them. The rules:

- every node makes the reference's partition at its rows, or one the
  reference scores within the tolerance of its own (no split counts as a
  partition of gain 0), and the subtrees below are then compared against
  the reference at the kernel's own rows;
- a child's histogram, summed or subtracted, holds exactly the bins and
  counts of its rows, and sums within ``SUB_RTOL`` of theirs;
- every leaf has the reference's weight for its rows, bit for bit (a leaf
  sums the same rows in the same order);
- where no decision differed, whole models and losses are bit-identical.
"""

import dataclasses
import json
from typing import NamedTuple

import numpy as np
import pytest

from conftest import blob_data, fresh_histogram, fresh_split

from ransomflow import rng
from ransomflow.gbt import (
    GbtParams,
    TreeNode,
    bin_layout,
    build_tree,
    gbt_raw_scores,
    grad_hess,
    model_to_dict,
    split_histograms,
    train_gbt,
    tree_predict,
)
from ransomflow.nn import softmax

NEXT_ONE = float(np.nextafter(1.0, 2.0))
# float64 prefix sums over a few hundred rows, summed in another order,
# differ by ~1e-14 of the node score (2.1e-14 at most over these cases)
RTOL = 1e-12


class RefSplit(NamedTuple):
    feature: int
    threshold: float
    gain: float


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
            & (right_h >= params.min_child_hessian) \
            & (left_h + lam > 0) & (right_h + lam > 0)
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
            best = RefSplit(feature, threshold, gain)
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


def ref_mean_ce(raw, y):
    """The mean training cross-entropy of raw scores ``raw``."""
    probs = softmax(raw)
    picked = probs[np.arange(len(y)), y]
    return float(-np.log(np.maximum(picked, 1e-12)).mean())


def ref_train_gbt(x, y, params, k):
    n = x.shape[0]
    raw = np.zeros((n, k))
    trees = [[] for _ in range(k)]
    losses = [ref_mean_ce(raw, y)]
    for _ in range(params.rounds):
        g, h = grad_hess(y, softmax(raw))
        for c in range(k):
            tree = ref_build_tree(np.arange(n), x, g[:, c], h[:, c], params)
            for leaf in tree.leaves():
                leaf.weight *= params.shrinkage
            trees[c].append(tree)
            raw[:, c] += tree_predict(tree, x)
        losses.append(ref_mean_ce(raw, y))
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


def ref_partition_gain(rows, x, g, h, params, feature, threshold):
    """The reference's gain for sending ``x[rows, feature] <= threshold``
    left, or -inf where a child falls short of the minimum hessian or has
    H + lambda = 0."""
    rows = np.asarray(rows, dtype=np.int64)
    lam = params.lambda_
    values = x[rows, feature]
    order = np.argsort(values, kind="stable")
    cut = np.count_nonzero(values <= threshold) - 1  # last row going left
    total_g = float(g[rows].sum())
    total_h = float(h[rows].sum())
    left_g = np.cumsum(g[rows][order])[cut]
    left_h = np.cumsum(h[rows][order])[cut]
    right_g = total_g - left_g
    right_h = total_h - left_h
    if min(left_h, right_h) < params.min_child_hessian \
            or min(left_h, right_h) + lam <= 0:
        return -np.inf
    return float(0.5 * (left_g * left_g / (left_h + lam)
                        + right_g * right_g / (right_h + lam)
                        - total_g * total_g / (total_h + lam)) - params.gamma)


def gain_tolerance(rows, g, h, params) -> float:
    """How far two gains at ``rows`` may differ: ``RTOL`` of the node's
    structure score G^2 / (H + lambda). A gain is a difference of such
    scores, so its rounding error scales with them, not with the gain."""
    total_g = float(g[rows].sum())
    return RTOL * total_g * total_g / (float(h[rows].sum()) + params.lambda_)


def partition(decision):
    return None if decision is None else (decision.feature, decision.threshold)


def agrees_with_reference(decision, rows, x, g, h, params) -> bool:
    """Assert that the kernel's ``decision`` at ``rows`` (None for no
    split) makes the reference's partition, or one the reference scores
    within the tolerance of its own (no split scores 0); True in the second
    case, a tied partition taken instead."""
    ref = ref_best_split(rows, x, g, h, params)
    if partition(decision) == partition(ref):
        return False
    tol = gain_tolerance(rows, g, h, params)
    tied = 0.0 if decision is None else ref_partition_gain(
        rows, x, g, h, params, decision.feature, decision.threshold)
    assert tied == pytest.approx(0.0 if ref is None else ref.gain,
                                 rel=RTOL, abs=tol), (decision, ref)
    return True


def tree_ties(node, rows, x, g, h, params, shrinkage=1.0, depth=0) -> int:
    """Assert that the kernel-built tree ``node`` over ``rows`` agrees with
    the reference at every node; returns the number of tied partitions it
    took instead of the reference's. Leaf weights carry ``shrinkage``."""
    rows = np.asarray(rows, dtype=np.int64)
    grows = depth < params.max_depth and rows.size >= 2
    if node.is_leaf:
        weight = ref_leaf(rows, g, h, params.lambda_).weight * shrinkage
        assert node.weight == weight
        return agrees_with_reference(None, rows, x, g, h, params) if grows \
            else 0
    assert grows
    ties = agrees_with_reference(node, rows, x, g, h, params)
    mask = x[rows, node.feature] <= node.threshold
    return ties + sum(tree_ties(child, part, x, g, h, params, shrinkage,
                                depth + 1)
                      for child, part in ((node.left, rows[mask]),
                                          (node.right, rows[~mask])))


def training_ties(x, y, params, k) -> int:
    """Train on the kernel and assert that every tree agrees with the
    reference at the kernel's own raw scores, that the losses are those of
    the trees, and that with no tie taken differently the model and losses
    are the reference's bit for bit. Returns the ties taken differently."""
    trees, records = train_gbt(x, y, params, k)
    losses = [record.loss for record in records]
    n = len(y)
    raw = np.zeros((n, k))
    replayed = [ref_mean_ce(raw, y)]
    ties = 0
    for r in range(params.rounds):
        g, h = grad_hess(y, softmax(raw))
        for c in range(k):
            ties += tree_ties(trees[c][r], np.arange(n), x, g[:, c], h[:, c],
                              params, params.shrinkage)
            raw[:, c] += tree_predict(trees[c][r], x)
        replayed.append(ref_mean_ce(raw, y))
    assert repr(losses) == repr(replayed)
    if ties == 0:
        ref, ref_losses = ref_train_gbt(x, y, params, k)
        assert model_json(trees) == model_json(ref)
        assert repr(losses) == repr(ref_losses)
    return ties


@pytest.mark.parametrize("seed", range(40))
def test_training_matches_reference(seed):
    training_ties(*random_case(seed))


def case_nodes(seed):
    """Per case, its random gradients and three row sets: all rows, a
    random half, and 30 rows in shuffled order."""
    x, y, params, k = random_case(seed)
    g, h = grad_hess(y, softmax(rng.uniform_signed(rng.derive(seed, "raw"),
                                                   (len(y), k), 2.0)))
    pick = rng.uniform(rng.derive(seed, "subset"), len(y))
    subsets = (np.arange(len(y)), np.flatnonzero(pick < 0.5),
               rng.permutation(rng.derive(seed, "shuffle"), len(y))[:30])
    return x, g, h, params, subsets


@pytest.mark.parametrize("seed", range(40))
def test_split_and_subtree_match_reference_on_row_subsets(seed):
    x, g, h, params, subsets = case_nodes(seed)
    layout = bin_layout(x)
    for rows in subsets:
        for c in range(g.shape[1]):
            gc, hc = g[:, c], h[:, c]
            agrees_with_reference(fresh_split(rows, gc, hc, params, layout),
                                  rows, x, gc, hc, params)
            tree_ties(build_tree(rows, x, gc, hc, params, layout,
                                 fresh_histogram(rows, gc, hc, layout)),
                      rows, x, gc, hc, params)


# a subtracted bin sum is off its fresh sum by the rounding of the
# subtractions above it, a few ulps of the ancestors' sums; over these cases
# at most 1.3e-14 of the parent's sum of |g| (or of h)
SUB_RTOL = 1e-12


def histograms_match(node, rows, hist, x, g, h, layout) -> int:
    """At every split of ``node`` under ``rows``, whose histogram is
    ``hist``, assert that both children's histograms, as the kernel
    derives them, have their fresh histograms' bin ids and counts exactly
    and their g and h sums within ``SUB_RTOL`` of the parent's sum of |g|
    and of h. Returns the splits checked."""
    if node.is_leaf:
        return 0
    mask = x[rows, node.feature] <= node.threshold
    parts = rows[mask], rows[~mask]
    checked = 1
    for child, part, got in zip((node.left, node.right), parts,
                                split_histograms(hist, *parts, g, h, layout)):
        want = fresh_histogram(part, g, h, layout)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.count, want.count)
        assert np.allclose(got.g, want.g, rtol=0,
                           atol=SUB_RTOL * np.abs(g[rows]).sum())
        assert np.allclose(got.h, want.h, rtol=0,
                           atol=SUB_RTOL * h[rows].sum())
        checked += histograms_match(child, part, got, x, g, h, layout)
    return checked


@pytest.mark.parametrize("seed", range(40))
def test_subtracted_histograms_match_fresh_ones(seed):
    # deep trees with no split penalty or minimum child hessian, so that
    # subtractions chain
    x, g, h, params, subsets = case_nodes(seed)
    params = dataclasses.replace(params, gamma=0.0, min_child_hessian=0.0,
                                 max_depth=6)
    layout = bin_layout(x)
    checked = 0
    for rows in subsets:
        for c in range(g.shape[1]):
            gc, hc = g[:, c], h[:, c]
            tree = build_tree(rows, x, gc, hc, params, layout,
                              fresh_histogram(rows, gc, hc, layout))
            checked += histograms_match(tree, rows,
                                        fresh_histogram(rows, gc, hc, layout),
                                        x, gc, hc, layout)
    assert checked > 0


def test_blob_fixture_matches_reference():
    x, y = blob_data(30, 3, seed=79)
    training_ties(x, y, GbtParams(rounds=5, max_depth=4), 3)


def test_distinct_continuous_columns_build_the_reference_model():
    # no two rows share a value and no two columns share an order, so no
    # two candidates tie and the whole model is the reference's
    x = rng.uniform(rng.derive(83, "x"), (300, 4))
    assert all(np.unique(x[:, f]).size == 300 for f in range(4))
    y = np.minimum((x[:, 0] + x[:, 2] + 0.5 * x[:, 3]) * 1.2, 2).astype(np.int64)
    assert training_ties(x, y, GbtParams(rounds=3, max_depth=5), 3) == 0


def test_columns_with_one_partition_may_take_either_column():
    # column 1 refines column 0's four groups with many distinct values, and
    # the labels follow the groups, as Clusters and USD do: both columns give
    # the best partition at each group boundary, with gains that agree only
    # to the last bits, so either may be chosen; the rows, and so the
    # predictions on them, are the reference's
    u = rng.uniform(rng.derive(89, "u"), (400, 2))
    groups = np.floor(u[:, 0] * 4)
    x = np.column_stack([groups, groups + 0.5 * u[:, 1], u[:, 1]])
    y = (groups >= 2).astype(np.int64) + (groups == 3)
    params = GbtParams(rounds=3, max_depth=3)
    training_ties(x, y, params, 3)
    fast, fast_records = train_gbt(x, y, params, 3)
    slow, slow_losses = ref_train_gbt(x, y, params, 3)
    assert np.array_equal(gbt_raw_scores(fast, x), gbt_raw_scores(slow, x))
    assert repr([r.loss for r in fast_records]) == repr(slow_losses)
    g, h = grad_hess(y, softmax(np.zeros((400, 3))))
    rows = np.arange(400)
    for c in range(3):
        ref = ref_best_split(rows, x, g[:, c], h[:, c], params)
        assert ref_partition_gain(rows, x, g[:, c], h[:, c], params, 1,
                                  ref.threshold + 0.25) \
            == pytest.approx(ref.gain, rel=RTOL, abs=0)


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
