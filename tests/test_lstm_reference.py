"""Fused-gate LSTM kernel against a straightforward per-gate reference.

The reference keeps one weight matrix and one bias per gate and runs one
matmul per gate, forward and backward, as the cell equations are written.
The fused kernel must agree with it to 1e-12 relative on probabilities,
every gradient, the global gradient norm, and the parameters after a few
Adam steps.
"""

import numpy as np
import pytest

from conftest import ReferenceAdam, param_count

from ransomflow import rng
from ransomflow.lstm import (
    GATES,
    LstmCell,
    LstmConfig,
    create_classifier,
    sequence_backward,
    sequence_forward,
)
from ransomflow.nn import (
    cross_entropy_loss,
    dense_backward_preact,
    dense_forward,
)

TOL = 1e-12
K_CLASSES = 5
BATCH = 6


def ref_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def ref_forward(cells, head, seqs):
    """cells: per layer a (ws, bs) pair of four-gate lists, order i, f, o, g."""
    m, steps, _ = seqs.shape
    inputs = [seqs[:, t, :] for t in range(steps)]
    caches = []
    for ws, bs in cells:
        hidden = bs[0].shape[0]
        h, c = np.zeros((m, hidden)), np.zeros((m, hidden))
        layer, outputs = [], []
        for x_t in inputs:
            z = np.concatenate([h, x_t], axis=1)
            i = ref_sigmoid(z @ ws[0].T + bs[0])
            f = ref_sigmoid(z @ ws[1].T + bs[1])
            o = ref_sigmoid(z @ ws[2].T + bs[2])
            g = np.tanh(z @ ws[3].T + bs[3])
            c_prev, c = c, f * c + i * g
            h = o * np.tanh(c)
            layer.append((z, i, f, o, g, c_prev, c))
            outputs.append(h)
        caches.append(layer)
        inputs = outputs
    probs, head_cache = dense_forward(head, inputs[-1])
    return probs, (caches, head_cache)


def ref_backward(cells, head, caches, grad_logits):
    """Per-gate BPTT; returns per layer (gws, gbs), then head grads."""
    layer_caches, head_cache = caches
    grad_h_final, head_gw, head_gb = dense_backward_preact(
        head, head_cache, grad_logits, (None, None))
    steps = len(layer_caches[0])
    upper = [np.zeros_like(grad_h_final) for _ in range(steps)]
    upper[-1] = grad_h_final
    out = []
    for (ws, bs), layer in zip(reversed(cells), reversed(layer_caches)):
        hidden = bs[0].shape[0]
        gws = [np.zeros_like(w) for w in ws]
        gbs = [np.zeros_like(b) for b in bs]
        dh_next = np.zeros_like(upper[0])
        dc_next = np.zeros_like(upper[0])
        lower = []
        for t in range(steps - 1, -1, -1):
            z, i, f, o, g, c_prev, c = layer[t]
            tanh_c = np.tanh(c)
            dh = upper[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
            pre = [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                   dh * tanh_c * o * (1.0 - o), dc * i * (1.0 - g ** 2)]
            dz = np.zeros_like(z)
            for gate in range(4):
                gws[gate] += pre[gate].T @ z
                gbs[gate] += pre[gate].sum(axis=0)
                dz += pre[gate] @ ws[gate]
            dh_next, dc_next = dz[:, :hidden], dc * f
            lower.append(dz[:, hidden:])
        upper = lower[::-1]
        out.append((gws, gbs))
    return out[::-1], head_gw, head_gb


def split_cells(model):
    return [([w.copy() for w in np.split(cell.w, 4)],
             [b.copy() for b in np.split(cell.b, 4)]) for cell in model.cells]


def ref_flat(cells, head_params):
    """Per-gate blocks concatenated into the fused parameter order."""
    flat = []
    for ws, bs in cells:
        flat.extend([np.concatenate(ws), np.concatenate(bs)])
    return flat + list(head_params)


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= TOL * scale


SHAPES = [  # (input width D, hidden H, steps T, layers)
    (13, 168, 1, 1),
    (1, 7, 13, 2),
    (4, 5, 3, 1),
]


def build(d, hidden, steps, layers):
    config = LstmConfig(hidden_size=hidden, num_layers=layers)
    model = create_classifier(d, K_CLASSES, config, d + steps)
    seqs = rng.uniform(rng.derive(7, "seqs", d), (BATCH, steps, d))
    labels = np.arange(BATCH) % K_CLASSES
    return model, seqs, labels


@pytest.mark.parametrize("d, hidden, steps, layers", SHAPES)
def test_fused_kernel_matches_per_gate_reference(d, hidden, steps, layers):
    model, seqs, labels = build(d, hidden, steps, layers)
    cells = split_cells(model)
    probs, caches = sequence_forward(model, seqs)
    ref_probs, ref_caches = ref_forward(cells, model.head, seqs)
    assert_close(probs, ref_probs)

    _, grad_logits = cross_entropy_loss(probs, labels)
    _, ref_grad_logits = cross_entropy_loss(ref_probs, labels)
    grads, norm = sequence_backward(model, caches, grad_logits, None, None)
    ref_cells, head_gw, head_gb = ref_backward(cells, model.head, ref_caches,
                                               ref_grad_logits)
    ref_grads = ref_flat(ref_cells, (head_gw, head_gb))
    assert len(grads) == len(ref_grads) == len(model.params())
    for g, ref in zip(grads, ref_grads):
        assert_close(g, ref)
    ref_norm = np.sqrt(sum(float((g * g).sum()) for g in ref_grads))
    assert abs(norm - ref_norm) <= TOL * ref_norm


@pytest.mark.parametrize("d, hidden, steps, layers", SHAPES)
def test_fused_adam_steps_match_per_gate_reference(d, hidden, steps, layers):
    model, seqs, labels = build(d, hidden, steps, layers)
    cells = split_cells(model)
    head_w, head_b = model.head.weights.copy(), model.head.biases.copy()
    ref_head = type(model.head)(head_w, head_b, model.head.activation)
    ref_params = [p for ws, bs in cells for p in ws + bs] + [head_w, head_b]
    params = model.params()
    optimizer = ReferenceAdam(params, 0.01)
    ref_optimizer = ReferenceAdam(ref_params, 0.01)
    for _ in range(3):
        probs, caches = sequence_forward(model, seqs)
        grads, _ = sequence_backward(model, caches,
                                     cross_entropy_loss(probs, labels)[1],
                                     None, None)
        optimizer.step(params, grads)

        ref_probs, ref_caches = ref_forward(cells, ref_head, seqs)
        ref_cells, head_gw, head_gb = ref_backward(
            cells, ref_head, ref_caches, cross_entropy_loss(ref_probs, labels)[1])
        ref_optimizer.step(ref_params, [p for gws, gbs in ref_cells
                                        for p in gws + gbs] + [head_gw, head_gb])
    for p, ref in zip(params, ref_flat(cells, (head_w, head_b))):
        assert_close(p, ref)


def test_create_concatenates_the_per_gate_draws():
    d, hidden, seed = 13, 168, 2024
    cell = LstmCell.create(d, hidden, seed)
    bound = np.sqrt(6.0 / (d + 2 * hidden))
    expected = np.concatenate([
        rng.uniform_signed(rng.derive(seed, "gate", gate), (hidden, d + hidden),
                           bound)
        for gate in GATES
    ])
    assert np.array_equal(cell.w, expected)
    assert np.array_equal(cell.b, np.zeros(4 * hidden))
    w, b = cell.params()
    assert w is cell.w and b is cell.b
    assert param_count(cell) == 4 * hidden * (d + hidden + 1)
