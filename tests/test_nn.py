"""Dense layer, loss, optimizer, and gradient-check verification.

Expected values in the hand cases were worked out by hand from the layer
definition out = act(x @ W.T + b) and are asserted tight; everything else is
checked against central finite differences in double precision.
"""

import numpy as np
import pytest

from ransomflow import rng
from ransomflow.errors import LabelOutOfRange, ShapeMismatch
from ransomflow.nn import (
    Adam,
    DenseLayer,
    cross_entropy_loss,
    dense_backward,
    dense_backward_preact,
    dense_forward,
    grad_check,
    layer_from_dict,
    layer_to_dict,
    mse_loss,
    param_count,
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


def test_dense_forward_rejects_bad_width():
    layer = DenseLayer(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        dense_forward(layer, np.zeros((4, 5)))
    with pytest.raises(ShapeMismatch):
        dense_forward(layer, np.zeros(3))


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
    gi, gw, gb = dense_backward(layer, cache, np.array([[1.0]]))
    assert gw[0, 0] == 3.0
    assert gb[0] == 1.0
    assert gi[0, 0] == 2.0


def test_dense_backward_relu_gates_gradient():
    layer = DenseLayer(np.array([[1.0], [-1.0]]), np.zeros(2), "relu")
    out, cache = dense_forward(layer, np.array([[2.0]]))
    assert np.array_equal(out, [[2.0, 0.0]])
    gi, gw, gb = dense_backward(layer, cache, np.ones((1, 2)))
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
        _, gw, gb = dense_backward(layer, cache, probe)
        return loss, [gw, gb]

    return grad_check(loss_fn, layer.params())


@pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid", "tanh",
                                        "softmax"])
def test_dense_backward_matches_finite_differences(activation):
    worst = max(_fd_layer_check(activation, seed) for seed in (3, 11, 42))
    assert worst < 1e-6


def test_dense_backward_rejects_wrong_grad_shape():
    layer = DenseLayer.create(3, 2, "tanh", 5)
    _, cache = dense_forward(layer, rng.uniform(1, (4, 3)))
    with pytest.raises(ShapeMismatch):
        dense_backward(layer, cache, np.zeros((4, 3)))


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


def test_mse_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


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


def test_cross_entropy_rejects_bad_labels():
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(LabelOutOfRange):
        cross_entropy_loss(probs, np.array([2]))
    with pytest.raises(LabelOutOfRange):
        cross_entropy_loss(probs, np.array([-1]))


def test_cross_entropy_rejects_non_distribution():
    with pytest.raises(ShapeMismatch):
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
            except ShapeMismatch:
                got = False
            assert got == accepted, (offset, sign)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ShapeMismatch):
            cross_entropy_loss(np.array([[0.5, 0.5], [bad, 0.5]]),
                               np.array([0, 1]))


def test_adam_zero_gradient_is_identity():
    w = np.array([1.0, -2.0, 3.0])
    before = w.copy()
    opt = Adam([w])
    for _ in range(5):
        opt.step([w], [np.zeros(3)])
    assert np.array_equal(w, before)


def test_adam_first_step_magnitude():
    # with any constant gradient, the bias-corrected first step is
    # -lr * g / (|g| + eps) = -0.000999999995 for g = 2
    w = np.array([1.0])
    opt = Adam([w])
    opt.step([w], [np.array([2.0])])
    assert abs(w[0] - (1.0 - 0.000999999995)) < 1e-15


def test_adam_converges_on_quadratic():
    w = np.array([3.0])
    opt = Adam([w], learning_rate=0.05)
    for _ in range(400):
        opt.step([w], [2.0 * w])
    assert abs(w[0]) < 1e-3


def test_adam_matches_textbook_update_bit_for_bit_on_views():
    # The buffered step must round exactly like the plain expressions, also
    # when it updates a column block of a larger matrix in place.
    full = rng.uniform(rng.derive(5, "w"), (6, 9))
    ref = full[:, 4:].copy()
    view = full[:, 4:]
    opt = Adam([view], learning_rate=0.01)
    m, v = np.zeros_like(ref), np.zeros_like(ref)
    for t in range(1, 8):
        g = rng.uniform(rng.derive(5, "g", t), ref.shape) - 0.5
        opt.step([view], [g])
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref = ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(full[:, 4:], ref)
    assert np.array_equal(full[:, :4],
                          rng.uniform(rng.derive(5, "w"), (6, 9))[:, :4])


def textbook_adam(p, g, m, v, t, lr):
    """One per-tensor Adam step written as the plain expressions."""
    m = 0.9 * m + (1.0 - 0.9) * g
    v = 0.999 * v + (1.0 - 0.999) * g * g
    m_hat = m / (1.0 - 0.9 ** t)
    v_hat = v / (1.0 - 0.999 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


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
        opt.step(params, grads)
        for j, (ref, g, (m, v)) in enumerate(zip(refs, grads, moments)):
            refs[j], m, v = textbook_adam(ref, g, m, v, t, 0.01)
            moments[j] = (m, v)
            assert np.array_equal(params[j], refs[j])
    assert opt.t == 8
    assert np.array_equal(full[:, :4],
                          rng.uniform(rng.derive(6, "w"), (6, 9))[:, :4] * 1e-4)


def test_adam_shape_error_writes_nothing():
    # A bad third tensor must leave every param, both moments and t as they
    # were: the next good step then equals that of an optimizer that never
    # saw the bad calls.
    shapes = [(2, 3), (4,), (3, 2)]
    params = [np.ones(shape) for shape in shapes]
    twin_params = [np.ones(shape) for shape in shapes]
    opt, twin = Adam(params, 0.1), Adam(twin_params, 0.1)
    grads = [np.full(shape, 0.5) for shape in shapes]
    opt.step(params, grads)
    twin.step(twin_params, grads)
    before = [p.copy() for p in params]
    with pytest.raises(ShapeMismatch):
        opt.step(params, [*grads[:2], np.zeros((2, 3))])
    with pytest.raises(ShapeMismatch):
        opt.step([*params[:2], np.ones((2, 3))], grads)
    assert opt.t == 1
    for p, b in zip(params, before):
        assert np.array_equal(p, b)
    grads = [np.full(shape, -0.25) for shape in shapes]
    opt.step(params, grads)
    twin.step(twin_params, grads)
    for p, q in zip(params, twin_params):
        assert np.array_equal(p, q)


def test_adam_rejects_mismatched_grads():
    w = np.array([1.0])
    opt = Adam([w])
    with pytest.raises(ShapeMismatch):
        opt.step([w], [np.zeros(2)])


def test_param_count_chain():
    assert param_count([13, 75]) == 1050
    assert param_count([1, 1]) == 2
    assert param_count([13, 75, 50, 13, 50, 75, 13]) == 11026


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
    gi, gw, gb = dense_backward_preact(layer, cache, grad_z)
    assert np.array_equal(gw, grad_z.T @ x)
    assert np.array_equal(gb, grad_z.sum(axis=0))
    assert np.array_equal(gi, grad_z @ layer.weights)
