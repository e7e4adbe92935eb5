"""Dense layer, loss, optimizer, and gradient-check verification.

Expected values in the hand cases were worked out by hand from the layer
definition out = act(x @ W.T + b) and are asserted tight; everything else is
checked against central finite differences in double precision.
"""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import grad_check, param_count, textbook_adam

from ransomflow import rng
from ransomflow.errors import DataError
from ransomflow.nn import (
    CHUNK_ROWS,
    Adam,
    DenseLayer,
    apply,
    cross_entropy_loss,
    dense_backward,
    dense_backward_preact,
    dense_forward,
    layer_from_dict,
    layer_to_dict,
    mse_loss,
    row_chunks,
    sigmoid,
    softmax,
)


def test_dense_forward_hand_case():
    # x = [1, 2], W = [[1, 2], [3, 4]], b = [0.5, -0.5]
    # z = [1*1 + 2*2, 1*3 + 2*4] + b = [5.5, 10.5]
    layer = DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]),
                       np.array([0.5, -0.5]), "linear")
    out, cache = dense_forward(layer, np.array([[1.0, 2.0]]))
    assert out.shape == (1, 2)
    assert out[0, 0] == 5.5
    assert out[0, 1] == 10.5
    assert np.array_equal(cache.pre_activation, out)


def test_dense_forward_zero_weights_relu():
    layer = DenseLayer(np.zeros((3, 4)), np.zeros(3), "relu")
    out, _ = dense_forward(layer, rng.uniform(1, (5, 4)))
    assert np.array_equal(out, np.zeros((5, 3)))


def test_dense_forward_identity():
    layer = DenseLayer(np.array([[1.0]]), np.array([0.0]), "linear")
    out, _ = dense_forward(layer, np.array([[3.5]]))
    assert out[0, 0] == 3.5


# The SAE's shapes (13 -> 75 -> 50 -> 13 and back) and a softmax head, one
# activation of each kind
CHAIN = [DenseLayer.create(i, o, act, rng.derive(31, "chain", j))
         for j, (i, o, act) in enumerate([
             (13, 75, "relu"), (75, 50, "tanh"), (50, 13, "sigmoid"),
             (13, 50, "relu"), (50, 75, "linear"), (75, 13, "sigmoid"),
             (13, 3, "softmax")])]
# around the chunk size: a tail of 1, 2 or 92 rows must not be a product of
# its own, since OpenBLAS rounds short products through another kernel
APPLY_ROWS = [0, 1, 2, 93, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
              CHUNK_ROWS + 2, CHUNK_ROWS + 92, 2 * CHUNK_ROWS + 1]


@pytest.mark.parametrize("n", APPLY_ROWS)
def test_apply_equals_chained_dense_forward_bit_for_bit(n):
    x = rng.uniform(32, (n, 13))
    expected = x
    for depth, layer in enumerate(CHAIN, 1):
        expected = dense_forward(layer, expected)[0]
        got = apply(CHAIN[:depth], x)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected), (n, layer.activation)


@pytest.mark.parametrize("n", [*APPLY_ROWS, 3 * CHUNK_ROWS - 1])
def test_row_chunks_are_full_chunks_or_the_whole_input(n):
    chunks = row_chunks(n)
    assert len(chunks) == max(1, n // CHUNK_ROWS)
    assert [c.start for c in chunks] == [i * CHUNK_ROWS
                                         for i in range(len(chunks))]
    assert [c.stop for c in chunks] == [c.start for c in chunks[1:]] + [n]
    sizes = [c.stop - c.start for c in chunks]
    assert all(size >= CHUNK_ROWS for size in sizes) or sizes == [n]


def test_softmax_rows_are_distributions():
    z = rng.uniform(7, (6, 4)) * 10 - 5
    p = softmax(z)
    assert np.all(p > 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_stable_for_large_logits():
    p = softmax(np.array([[1000.0, 1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert abs(p[0, 0] - 0.5) < 1e-12


def test_sigmoid_extremes_and_midpoint():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0


def test_sigmoid_matches_exp_formula_to_one_ulp_of_one():
    # the tanh identity against the sign-split exp form it replaced
    z = np.linspace(-800.0, 800.0, 160001)
    e = np.exp(-np.abs(z))
    reference = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert np.abs(sigmoid(z) - reference).max() <= 2.3e-16


def test_dense_backward_hand_case():
    # scalar chain: out = 2 * 3 = 6; d out = 1 -> gw = x = 3, gb = 1, gi = w = 2
    layer = DenseLayer(np.array([[2.0]]), np.array([0.0]), "linear")
    out, cache = dense_forward(layer, np.array([[3.0]]))
    gi, gw, gb = dense_backward(layer, cache, np.array([[1.0]]), (None, None),
                                True)
    assert gw[0, 0] == 3.0
    assert gb[0] == 1.0
    assert gi[0, 0] == 2.0


def test_dense_backward_relu_gates_gradient():
    layer = DenseLayer(np.array([[1.0], [-1.0]]), np.zeros(2), "relu")
    out, cache = dense_forward(layer, np.array([[2.0]]))
    assert np.array_equal(out, [[2.0, 0.0]])
    gi, gw, gb = dense_backward(layer, cache, np.ones((1, 2)), (None, None),
                                True)
    # second unit is inactive: no gradient flows through it
    assert gw[1, 0] == 0.0
    assert gb[1] == 0.0
    assert gi[0, 0] == 1.0


def _fd_layer_check(activation: str, seed: int) -> float:
    """Finite-difference check of one random layer under a linear functional."""
    layer = DenseLayer.create(4, 3, activation, rng.derive(seed, "layer"))
    x = rng.uniform(rng.derive(seed, "x"), (5, 4)) * 2 - 1
    probe = rng.uniform(rng.derive(seed, "probe"), (5, 3)) * 2 - 1

    if activation == "relu":
        # keep every pre-activation away from the kink
        z = x @ layer.weights.T + layer.biases
        assert np.abs(z).min() > 1e-3

    def loss_fn():
        out, cache = dense_forward(layer, x)
        loss = float((out * probe).sum())
        _, gw, gb = dense_backward(layer, cache, probe, (None, None), False)
        return loss, [gw, gb]

    return grad_check(loss_fn, layer.params())


@pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid", "tanh",
                                        "softmax"])
def test_dense_backward_matches_finite_differences(activation):
    worst = max(_fd_layer_check(activation, seed) for seed in (3, 11, 42))
    assert worst < 1e-6


def test_mse_perfect_prediction_is_zero():
    x = rng.uniform(3, (4, 6))
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(x))


def test_mse_hand_case_divides_by_rows_only():
    # one row, two columns: loss = (1^2 + 2^2) / 1 = 5, not 5/2
    loss, grad = mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
    assert loss == 5.0
    assert np.array_equal(grad, [[2.0, 4.0]])
    # two rows scale the mean by the row count
    loss2, _ = mse_loss(np.array([[1.0, 2.0], [1.0, 2.0]]),
                        np.zeros((2, 2)))
    assert loss2 == 5.0


def test_mse_gradient_matches_finite_differences():
    target = rng.uniform(5, (4, 3))
    pred = rng.uniform(6, (4, 3)).copy()

    def loss_fn():
        loss, grad = mse_loss(pred, target)
        return loss, [grad]

    assert grad_check(loss_fn, [pred]) < 1e-6


def test_cross_entropy_confident_correct_is_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = cross_entropy_loss(probs, np.array([0, 1]))
    assert loss == 0.0


def test_cross_entropy_hand_case():
    loss, grad = cross_entropy_loss(np.array([[0.5, 0.5]]), np.array([0]))
    assert abs(loss - np.log(2.0)) < 1e-15
    assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-15)


def test_cross_entropy_grad_rows_sum_to_zero():
    for seed in (1, 2, 3):
        probs = softmax(rng.uniform(seed, (6, 4)) * 6 - 3)
        labels = (rng.splitmix64(seed + 50, 6) % 4).astype(np.int64)
        _, grad = cross_entropy_loss(probs, labels)
        assert np.abs(grad.sum(axis=1)).max() < 1e-9


def test_cross_entropy_grad_matches_finite_differences():
    # differentiate wrt logits through a softmax head
    logits = (rng.uniform(9, (5, 3)) * 4 - 2).copy()
    labels = (rng.splitmix64(10, 5) % 3).astype(np.int64)

    def loss_fn():
        probs = softmax(logits)
        loss, grad = cross_entropy_loss(probs, labels)
        return loss, [grad]

    assert grad_check(loss_fn, [logits]) < 1e-6


NOT_A_DISTRIBUTION = "^probability rows must sum to 1 within 1e-6$"


def test_cross_entropy_rejects_non_distribution():
    with pytest.raises(DataError, match=NOT_A_DISTRIBUTION):
        cross_entropy_loss(np.array([[0.9, 0.9]]), np.array([0]))


def test_cross_entropy_row_sum_check_equals_allclose():
    # rows whose sums sit on either side of allclose's 1e-6 + 1e-5 * 1.0
    offsets = [0.0, 1e-6, 1e-5, 1.1e-5, 1.1e-5 - 1e-17, 1.1e-5 + 1e-17,
               1.2e-5, 1e-3]
    for offset in offsets:
        for sign in (1.0, -1.0):
            probs = np.array([[0.25, 0.75 + sign * offset]])
            accepted = bool(np.allclose(probs.sum(axis=1), 1.0, atol=1e-6))
            try:
                cross_entropy_loss(probs, np.array([0]))
                got = True
            except DataError as exc:
                assert re.match(NOT_A_DISTRIBUTION, str(exc))
                got = False
            assert got == accepted, (offset, sign)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match=NOT_A_DISTRIBUTION):
            cross_entropy_loss(np.array([[0.5, 0.5], [bad, 0.5]]),
                               np.array([0, 1]))


def test_adam_zero_gradient_is_identity():
    w = np.array([1.0, -2.0, 3.0])
    before = w.copy()
    opt = Adam([w], 0.001)
    (w,) = opt.params
    for _ in range(5):
        opt.grads[0][...] = 0.0
        opt.step()
    assert np.array_equal(w, before)


def test_adam_first_step_magnitude():
    # with any constant gradient, the bias-corrected first step is
    # -lr * g / (|g| + eps) = -0.000999999995 for g = 2
    w = np.array([1.0])
    opt = Adam([w], 0.001)
    (w,) = opt.params
    opt.grads[0][...] = 2.0
    opt.step()
    assert abs(w[0] - (1.0 - 0.000999999995)) < 1e-15


def test_adam_converges_on_quadratic():
    w = np.array([3.0])
    opt = Adam([w], learning_rate=0.05)
    (w,) = opt.params
    for _ in range(400):
        opt.grads[0][...] = 2.0 * w
        opt.step()
    assert abs(w[0]) < 1e-3


def test_adam_matches_textbook_update_bit_for_bit_on_views():
    # The buffered step must round exactly like the plain expressions, also
    # when it trains a column block of a larger matrix that gets the trained
    # values back, as the live rows of a one-step LSTM cell do.
    full = rng.uniform(rng.derive(5, "w"), (6, 9))
    ref = full[:, 4:].copy()
    view = full[:, 4:]
    opt = Adam([view], learning_rate=0.01)
    m, v = np.zeros_like(ref), np.zeros_like(ref)
    for t in range(1, 8):
        g = rng.uniform(rng.derive(5, "g", t), ref.shape) - 0.5
        opt.grads[0][...] = g
        opt.step()
        view[...] = opt.params[0]
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref = ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(full[:, 4:], ref)
    assert np.array_equal(full[:, :4],
                          rng.uniform(rng.derive(5, "w"), (6, 9))[:, :4])


def test_adam_flat_update_matches_per_tensor_textbook_on_mixed_tensors():
    # One flat update over a matrix, a vector and a column block of a larger
    # matrix must round each element as a per-tensor update does. Parameters
    # start near 0, so each step's last bits show in them.
    matrix = rng.uniform(rng.derive(6, "a"), (4, 5)) * 1e-4
    vector = rng.uniform(rng.derive(6, "b"), (7,)) * 1e-4
    full = rng.uniform(rng.derive(6, "w"), (6, 9)) * 1e-4
    params = [matrix, vector, full[:, 4:]]
    refs = [p.copy() for p in params]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    opt = Adam(params, learning_rate=0.01)
    for t in range(1, 9):
        # scales far apart, and one grad that is itself a strided view
        grads = [(rng.uniform(rng.derive(6, "g", t, j), p.shape) - 0.5)
                 * 10.0 ** (3 * j - 3) for j, p in enumerate(params)]
        grads[2] = np.repeat(grads[2], 2, axis=1)[:, ::2]
        for view, g in zip(opt.grads, grads):
            view[...] = g
        opt.step()
        for p, view in zip(params, opt.params):
            p[...] = view
        for j, (ref, g, (m, v)) in enumerate(zip(refs, grads, moments)):
            refs[j], m, v = textbook_adam(ref, g, m, v, t, 0.01)
            moments[j] = (m, v)
            assert np.array_equal(params[j], refs[j])
    assert opt.t == 8
    assert np.array_equal(full[:, :4],
                          rng.uniform(rng.derive(6, "w"), (6, 9))[:, :4] * 1e-4)


def test_adam_trains_views_of_one_flat_buffer_without_copies(monkeypatch):
    # The weights a model trains and the grads its batches write are views
    # of Adam's one buffer, each tensor a contiguous slice in order; a step
    # rewrites that buffer in place, copying and allocating nothing.
    shapes = [(300, 40), (40,), (40, 300)]
    initial = [rng.uniform(rng.derive(8, "p", j), shape)
               for j, shape in enumerate(shapes)]
    opt = Adam(initial, 0.01)
    offset = 0
    for view, grad, p in zip(opt.params, opt.grads, initial):
        assert view.shape == grad.shape == p.shape
        assert np.array_equal(view, p) and not np.shares_memory(view, p)
        assert view.flags.c_contiguous and grad.flags.c_contiguous
        assert np.shares_memory(view, opt.p[offset:offset + p.size])
        assert np.shares_memory(grad, opt.g[offset:offset + p.size])
        offset += p.size
    assert offset == opt.p.size == opt.g.size
    for j, grad in enumerate(opt.grads):
        grad[...] = rng.uniform(rng.derive(8, "g", j), grad.shape) - 0.5
    views = list(opt.params)
    before = opt.p.copy()

    def no_copy(*args, **kwargs):
        raise AssertionError("Adam.step copied a tensor")

    monkeypatch.setattr(np, "copyto", no_copy)
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096  # a copy of the (300, 40) weights alone is 96,000 B
    assert all(a is b for a, b in zip(opt.params, views))
    moved = [not np.array_equal(view, p) for view, p in zip(views, initial)]
    assert all(moved) and not np.array_equal(opt.p, before)


def test_param_count_chain():
    def chain(dims):
        return [DenseLayer.create(a, b, "linear", 0)
                for a, b in zip(dims, dims[1:])]

    assert param_count(*chain([13, 75])) == 1050
    assert param_count(*chain([1, 1])) == 2
    assert param_count(*chain([13, 75, 50, 13, 50, 75, 13])) == 11026


def test_grad_check_flags_wrong_gradient():
    w = np.array([1.5])

    def good():
        return float(w[0] ** 2), [2.0 * w]

    def bad():
        return float(w[0] ** 2), [3.0 * w]

    assert grad_check(good, [w]) < 1e-9
    assert grad_check(bad, [w]) > 0.3


def test_layer_serialization_round_trip():
    layer = DenseLayer.create(4, 3, "tanh", 123)
    doc = layer_to_dict(layer)
    assert set(doc) == {"weights", "biases"}  # the activation is a setting
    restored = layer_from_dict(doc, "tanh")
    x = rng.uniform(5, (6, 4))
    out_a, _ = dense_forward(layer, x)
    out_b, _ = dense_forward(restored, x)
    assert np.array_equal(out_a, out_b)
    assert restored.activation == "tanh"


def test_glorot_bound_and_determinism():
    layer_a = DenseLayer.create(13, 75, "relu", 7)
    layer_b = DenseLayer.create(13, 75, "relu", 7)
    assert np.array_equal(layer_a.weights, layer_b.weights)
    bound = np.sqrt(6.0 / (13 + 75))
    assert np.abs(layer_a.weights).max() <= bound
    assert np.array_equal(layer_a.biases, np.zeros(75))
    layer_c = DenseLayer.create(13, 75, "relu", 8)
    assert not np.array_equal(layer_a.weights, layer_c.weights)


def test_dense_backward_preact_skips_activation_jacobian():
    layer = DenseLayer.create(4, 3, "softmax", 21)
    x = rng.uniform(22, (5, 4))
    _, cache = dense_forward(layer, x)
    grad_z = rng.uniform(23, (5, 3)) - 0.5
    gi, gw, gb = dense_backward_preact(layer, cache, grad_z, (None, None))
    assert np.array_equal(gw, grad_z.T @ x)
    assert np.array_equal(gb, grad_z.sum(axis=0))
    assert np.array_equal(gi, grad_z @ layer.weights)
