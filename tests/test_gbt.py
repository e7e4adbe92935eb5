"""Gradient boosted trees: derivatives, split search, and boosting."""

import math
import warnings

import numpy as np
import pytest

from conftest import blob_data, fresh_histogram, fresh_split

from ransomflow import gbt, rng
from ransomflow.errors import ConfigError
from ransomflow.gbt import (
    GbtParams,
    SplitDecision,
    TreeNode,
    bin_layout,
    build_tree,
    column_bins,
    gbt_predict,
    grad_hess,
    model_from_dict,
    model_to_dict,
    predict_labels,
    train_gbt,
    tree_predict,
)
from ransomflow.nn import EpochRecord, softmax


def sample_ce(raw_row: np.ndarray, label: int) -> float:
    # plain per-sample softmax cross-entropy, written independently
    shifted = raw_row - raw_row.max()
    log_z = math.log(np.exp(shifted).sum())
    return float(log_z - shifted[label])


def test_grad_hess_uniform_scores():
    g, h = grad_hess(np.array([0]), softmax(np.zeros((1, 3))))
    assert np.abs(g - np.array([[-2 / 3, 1 / 3, 1 / 3]])).max() < 1e-15
    assert np.abs(h - np.full((1, 3), 2 / 9)).max() < 1e-15


def test_grad_hess_confident_correct_prediction():
    raw = np.array([[40.0, 0.0, 0.0]])
    g, h = grad_hess(np.array([0]), softmax(raw))
    assert np.abs(g).max() < 1e-15
    assert np.abs(h).max() < 1e-15


def test_grad_hess_matches_finite_differences():
    raw = rng.uniform_signed(19, (5, 3), 2.0)
    labels = np.array([0, 1, 2, 1, 0])
    g, h = grad_hess(labels, softmax(raw))
    eps_g, eps_h = 1e-5, 1e-4
    for i in range(5):
        for c in range(3):
            up = raw[i].copy()
            down = raw[i].copy()
            up[c] += eps_g
            down[c] -= eps_g
            num_g = (sample_ce(up, labels[i]) - sample_ce(down, labels[i])) \
                / (2 * eps_g)
            assert abs(g[i, c] - num_g) / max(abs(num_g), 1.0) < 1e-6
            up = raw[i].copy()
            down = raw[i].copy()
            up[c] += eps_h
            down[c] -= eps_h
            mid = sample_ce(raw[i], labels[i])
            num_h = (sample_ce(up, labels[i]) - 2 * mid
                     + sample_ce(down, labels[i])) / (eps_h * eps_h)
            assert abs(h[i, c] - num_h) / max(abs(num_h), 1.0) < 1e-6


def test_best_split_hand_case():
    # four rows, one feature 1..4, gradients (-1,-1,1,1), unit hessians:
    # the middle boundary scores 0.5 * (4/3 + 4/3) = 4/3, the others 3/8
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.ones(4)
    decision = fresh_split(np.arange(4), g, h, GbtParams(), bin_layout(x))
    assert decision.feature == 0
    assert decision.threshold == 2.5


def test_a_side_without_hessian_is_no_candidate():
    # lambda = 0 and no minimum hessian: the boundaries at 0.5 and 1.5 leave
    # the left side H + lambda = 0 (score 0/0), and so does every column's
    # last bin on the right; only 2.5 is a candidate (gain
    # 0.5 * (1/1 + 1/1 - 0/2) = 1)
    g = np.array([0.0, 0.0, -1.0, 1.0])
    h = np.array([0.0, 0.0, 1.0, 1.0])
    params = GbtParams(lambda_=0.0, min_child_hessian=0.0)
    column = np.array([[0.0], [1.0], [2.0], [3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, feature in ((column, 0), (np.hstack([np.full((4, 1), 5.0),
                                                     column]), 1)):
            decision = fresh_split(np.arange(4), g, h, params, bin_layout(x))
            assert decision == SplitDecision(feature, 2.5)


def test_best_split_none_when_gradient_flat():
    x = np.array([[1.0], [2.0], [3.0]])
    assert fresh_split(np.arange(3), np.zeros(3), np.ones(3), GbtParams(),
                       bin_layout(x)) is None


def test_best_split_none_when_gamma_dominates():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.ones(4)
    assert fresh_split(np.arange(4), g, h, GbtParams(gamma=10.0),
                       bin_layout(x)) is None


def test_best_split_none_on_constant_feature_or_single_row():
    g = np.array([-1.0, 1.0])
    h = np.ones(2)
    assert fresh_split(np.arange(2), g, h, GbtParams(),
                       bin_layout(np.full((2, 1), 3.0))) is None
    assert fresh_split(np.array([0]), g[:1], h[:1], GbtParams(),
                       bin_layout(np.array([[1.0]]))) is None


def test_column_bins_code_each_column_exactly():
    x = np.column_stack([rng.uniform(53, (200,)),
                         np.round(rng.uniform(59, (200,)), 1),
                         np.full(200, -3.5), rng.uniform_signed(61, (200,), 1e300)])
    x[:7, 1] = np.nextafter(0.5, 1.0)  # adjacent to the rounded 0.5s
    for f, (values, codes) in enumerate(column_bins(x)):
        assert values[codes].tobytes() == x[:, f].tobytes()
        assert np.all(values[1:] > values[:-1])  # sorted and distinct
    assert column_bins(x)[2][0].tolist() == [-3.5]


def test_no_candidate_where_the_node_holds_one_value():
    # the column varies over the table, but not over the node's rows
    x = np.array([[0.0], [0.0], [0.0], [1.0], [2.0]])
    g = np.array([-5.0, 5.0, 3.0, -1.0, 1.0])
    h = np.ones(5)
    layout = bin_layout(x)
    assert fresh_split(np.arange(3), g, h, GbtParams(), layout) is None
    assert fresh_split(np.arange(5), g, h, GbtParams(), layout) is not None
    tree = build_tree(np.arange(3), x, g, h, GbtParams(), layout,
                      fresh_histogram(np.arange(3), g, h, layout))
    assert tree.is_leaf


def test_adjacent_floats_split_at_the_lower_value():
    # the midpoint of 1.0 and the next float rounds down to 1.0; the
    # midpoint of that float and the one after it rounds up to the upper
    # value, so the threshold falls back to the lower one; either way the
    # partition stays exact
    one_up = float(np.nextafter(1.0, 2.0))
    for lo, hi in ((1.0, one_up), (one_up, float(np.nextafter(one_up, 2.0)))):
        x = np.array([[lo], [hi], [lo], [hi]])
        g = np.array([-1.0, 1.0, -1.0, 1.0])
        decision = fresh_split(np.arange(4), g, np.ones(4), GbtParams(),
                               bin_layout(x))
        assert decision.threshold == lo
        assert np.array_equal(x[:, 0] <= decision.threshold,
                              [True, False, True, False])


def test_best_split_respects_min_child_hessian():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.full(4, 0.4)
    # any single-side hessian is at most 1.2 < 1.3
    assert fresh_split(np.arange(4), g, h, GbtParams(min_child_hessian=1.3),
                       bin_layout(x)) is None
    loose = fresh_split(np.arange(4), g, h, GbtParams(min_child_hessian=0.8),
                        bin_layout(x))
    assert loose.threshold == 2.5


def test_best_split_partition_invariant_to_monotone_transform():
    u = rng.uniform(23, (12, 3))
    g = rng.uniform_signed(29, (12,), 1.0)
    h = np.full(12, 0.5)
    params = GbtParams(min_child_hessian=0.5)
    a = fresh_split(np.arange(12), g, h, params, bin_layout(u))
    b = fresh_split(np.arange(12), g, h, params, bin_layout(np.exp(u)))
    assert a is not None and b is not None
    assert a.feature == b.feature
    mask_a = u[:, a.feature] <= a.threshold
    mask_b = np.exp(u)[:, b.feature] <= b.threshold
    assert np.array_equal(mask_a, mask_b)


def test_leaf_weight_minimizes_node_objective():
    g = np.array([0.7, -1.3, 0.4])
    h = np.array([0.2, 0.9, 0.5])
    lam = 1.0
    x = np.full((3, 1), 2.0)
    layout = bin_layout(x)
    leaf = build_tree(np.arange(3), x, g, h, GbtParams(), layout,
                      fresh_histogram(np.arange(3), g, h, layout))
    assert leaf.is_leaf

    def objective(w):
        return g.sum() * w + 0.5 * (h.sum() + lam) * w * w

    best = objective(leaf.weight)
    for delta in (1e-3, -1e-3, 0.1, -0.1):
        assert objective(leaf.weight + delta) > best


def test_build_tree_leaf_cases():
    x = np.array([[1.0], [2.0]])
    g = np.array([2.0, 2.0])
    h = np.array([1.0, 1.0])
    # depth cap
    layout = bin_layout(x)
    capped = build_tree(np.arange(2), x, g, h, GbtParams(max_depth=1), layout,
                        None, depth=1)
    assert capped.is_leaf
    assert capped.weight == -(4.0) / (2.0 + 1.0)
    # single row: -g / (h + lambda) = -2 / 2
    single = build_tree(np.array([0]), x, g, h, GbtParams(), layout,
                        fresh_histogram(np.array([0]), g, h, layout))
    assert single.is_leaf and single.weight == -1.0


def test_leaf_without_curvature_weighs_zero():
    # lambda = 0 and rows whose hessians sum to 0: -G / (H + lambda) has no
    # value, so the leaf weighs 0, as XGBoost's CalcWeight does for H <= 0;
    # the two rows have no candidate split (each side has H + lambda = 0)
    x = np.array([[0.0], [1.0]])
    g = np.array([0.5, -0.5])
    h = np.zeros(2)
    params = GbtParams(lambda_=0.0, min_child_hessian=0.0)
    layout = bin_layout(x)
    for rows in (np.arange(2), np.array([0])):
        leaf = build_tree(rows, x, g, h, params, layout,
                          fresh_histogram(rows, g, h, layout))
        assert leaf.is_leaf and leaf.weight == 0.0


def test_split_maximizes_objective_drop():
    # the chosen split drops the structure score by the most, less gamma,
    # over every boundary of every column whose sides both hold the minimum
    # child hessian, counted by brute force
    u = rng.uniform(37, (30, 4))
    g = rng.uniform_signed(41, (30,), 1.0)
    h = rng.uniform(43, (30,)) + 0.5
    lam = 1.0
    params = GbtParams(gamma=0.01, min_child_hessian=0.5)
    decision = fresh_split(np.arange(30), g, h, params, bin_layout(u))
    assert decision is not None

    def node_score(mask):
        gs = g[mask].sum()
        hs = h[mask].sum()
        return -0.5 * gs * gs / (hs + lam)

    def drop(left):
        return node_score(np.ones(30, dtype=bool)) - node_score(left) \
            - node_score(~left) - params.gamma

    drops = [drop(u[:, f] <= value) for f in range(4) for value in u[:, f]
             if min(h[u[:, f] <= value].sum(), h[u[:, f] > value].sum())
             >= params.min_child_hessian]
    chosen = drop(u[:, decision.feature] <= decision.threshold)
    assert chosen > 0
    assert abs(chosen - max(drops)) < 1e-9


def test_tree_predict_routes_rows():
    stump = TreeNode(feature=0, threshold=0.5,
                     left=TreeNode(weight=-1.0), right=TreeNode(weight=2.0))
    x = np.array([[0.0, 9.0], [0.5, 9.0], [0.6, 9.0], [1.0, 9.0]])
    assert np.array_equal(tree_predict(stump, x),
                          np.array([-1.0, -1.0, 2.0, 2.0]))


def test_hand_built_stump_probabilities():
    stump = TreeNode(feature=0, threshold=0.5,
                     left=TreeNode(weight=1.0), right=TreeNode(weight=0.0))
    flat = TreeNode(weight=0.0)
    probs = gbt_predict([[stump], [flat], [flat]], np.array([[0.0], [1.0]]))
    e = math.e
    assert np.abs(probs[0] - np.array([e, 1, 1]) / (e + 2)).max() < 1e-12
    assert np.abs(probs[1] - np.full(3, 1 / 3)).max() < 1e-15


def test_zero_rounds_predicts_uniform():
    x, y = blob_data(5, 3, seed=53)
    model, records = train_gbt(x, y, GbtParams(rounds=0), 3)
    probs = gbt_predict(model, x)
    assert np.abs(probs - 1 / 3).max() < 1e-15
    assert len(records) == 1
    assert abs(records[0].loss - math.log(3)) < 1e-12


def test_training_separates_blobs_and_loss_decreases():
    x, y = blob_data(40, 3, seed=59)
    model, records = train_gbt(x[:90], y[:90],
                               GbtParams(rounds=20, max_depth=3), 3)
    losses = [r.loss for r in records]
    assert (predict_labels(model, x[90:]) == y[90:]).mean() == 1.0
    assert len(losses) == 21
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.5 * losses[0]
    assert [len(per_class) for per_class in model] == [20] * 3


def test_training_is_deterministic():
    x, y = blob_data(15, 3, seed=61)
    a, a_losses = train_gbt(x, y, GbtParams(rounds=5), 3)
    b, b_losses = train_gbt(x, y, GbtParams(rounds=5), 3)
    assert a_losses == b_losses
    assert np.array_equal(gbt_predict(a, x), gbt_predict(b, x))


def test_params_validation():
    with pytest.raises(ConfigError):
        GbtParams(shrinkage=0.0)
    with pytest.raises(ConfigError):
        GbtParams(lambda_=-1.0)
    for bad in (math.nan, math.inf, True, "0.5", 10 ** 400):
        for name in ("gamma", "lambda_", "shrinkage", "min_child_hessian"):
            with pytest.raises(ConfigError):
                GbtParams(**{name: bad})
    with pytest.raises(ConfigError):
        GbtParams(max_depth=0)


def test_model_serialization_round_trip():
    x, y = blob_data(10, 3, seed=71)
    model, _ = train_gbt(x, y, GbtParams(rounds=3), 3)
    doc = model_to_dict(model)
    restored = model_from_dict(doc, 3, 3, x.shape[1])
    assert np.array_equal(gbt_predict(restored, x), gbt_predict(model, x))
    assert model_to_dict(restored) == doc


def test_boosting_records_one_step_per_round_from_one_softmax_each(
        monkeypatch):
    # each round's gradients read the softmax its previous step's loss took
    x, y = blob_data(15, 3, seed=73)
    calls = []
    monkeypatch.setattr(gbt, "softmax",
                        lambda raw: calls.append(1) or softmax(raw))
    _, records = train_gbt(x, y, GbtParams(rounds=4), 3)
    assert len(calls) == 4 + 1
    assert [r.step for r in records] == [0, 1, 2, 3, 4]
    assert all(isinstance(r, EpochRecord) and r.stage == "boosting"
               and r.layer is None and r.accuracy is None for r in records)
