"""Zero-state first step against the general full-concat kernel.

The reference below is the general path written out plainly: every step
concatenates [h_prev | x_t] with zero initial states, multiplies the whole
gate matrix, keeps the f * c_prev term, computes grad_z = pre @ w at every
step, and trains with Adam over every parameter. The kernel in
:mod:`ransomflow.lstm` multiplies only the input block on the first step,
whose recurrent products are zero, and, with one step per sequence, trains
one-step cells that hold only the i | o | g rows of the input block. For the
paper's single-step one-layer stack the two must agree bit for bit; other
stacks sum some products over a different inner width or BLAS routine and
may differ by rounding, so they are held to 1e-12 relative. So is one-step
training whose clip binds: its clip norm sums the one-step cells' gradients,
not the reference's full-shape ones with their zero entries, in another
order.

A full cell's first step activates the forget gate too, which nothing reads.
Run at one step per sequence, a full stack and the one-step stack narrowed
from it give the same probabilities and the same top cell and head gradients
bit for bit, and the full cells' forget rows and recurrent block get a
gradient of exactly 0. A lower cell's gradient passes through the upper
cell's input block, whose zero forget rows lengthen the sum, so it is held
to 1e-12 relative.

Training runs at the configured learning rate (0.001). At 0.05 the 168-unit
feature-steps stacks follow an unstable path (the gradient norm grows to
about 4 within nine steps), and there a 1e-15 relative difference in one
gradient column grows to 6e-5 in the weights: that measures the path, not
the kernel. Clip 0.5 does not bind on this data; 0.01 does.
"""

import numpy as np
import pytest

from conftest import ReferenceAdam

from ransomflow import nn, rng
from ransomflow.lstm import (
    LstmCell,
    LstmClassifier,
    LstmConfig,
    cell_forward,
    create_classifier,
    predict_proba,
    sequence_backward,
    sequence_forward,
    to_sequences,
    train_classifier,
)
from ransomflow.nn import (
    cross_entropy_loss,
    dense_backward_preact,
    dense_forward,
    sigmoid,
)

TOL = 1e-12
K_CLASSES = 4
ROWS, WIDTH, BATCH, EPOCHS = 40, 13, 16, 3


def ref_forward(model, seqs):
    m, steps, _ = seqs.shape
    inputs = [seqs[:, t, :] for t in range(steps)]
    layers = []
    for cell in model.cells:
        hidden = cell.hidden_size
        h, c = np.zeros((m, hidden)), np.zeros((m, hidden))
        layer, outputs = [], []
        for x_t in inputs:
            z = np.concatenate([h, x_t], axis=1)
            gates = z @ cell.w.T + cell.b
            gates[:, :3 * hidden] = sigmoid(gates[:, :3 * hidden])
            gates[:, 3 * hidden:] = np.tanh(gates[:, 3 * hidden:])
            i, f, o, g = np.split(gates, 4, axis=1)
            c_prev, c = c, f * c + i * g
            h = o * np.tanh(c)
            layer.append((z, i, f, o, g, c_prev, np.tanh(c)))
            outputs.append(h)
        layers.append(layer)
        inputs = outputs
    probs, head_cache = dense_forward(model.head, inputs[-1])
    return probs, (layers, head_cache)


def ref_backward(model, caches, grad_logits, clip_threshold=None):
    layers, head_cache = caches
    grad_h_final, head_gw, head_gb = dense_backward_preact(
        model.head, head_cache, grad_logits, (None, None))
    steps = len(layers[0])
    upper = [np.zeros_like(grad_h_final) for _ in range(steps)]
    upper[-1] = grad_h_final
    cell_grads = []
    for cell, layer in zip(reversed(model.cells), reversed(layers)):
        hidden = cell.hidden_size
        gw, gb = np.zeros_like(cell.w), np.zeros_like(cell.b)
        dh_next = np.zeros_like(upper[0])
        dc_next = np.zeros_like(upper[0])
        lower = []
        for t in range(steps - 1, -1, -1):
            z, i, f, o, g, c_prev, tanh_c = layer[t]
            dh = upper[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
            pre = np.concatenate([dc * g * i * (1.0 - i),
                                  dc * c_prev * f * (1.0 - f),
                                  dh * tanh_c * o * (1.0 - o),
                                  dc * i * (1.0 - g ** 2)], axis=1)
            gw += pre.T @ z
            gb += pre.sum(axis=0)
            dz = pre @ cell.w
            dh_next, dc_next = dz[:, :hidden], dc * f
            lower.append(dz[:, hidden:])
        upper = lower[::-1]
        cell_grads.append([gw, gb])
    grads = [g for block in reversed(cell_grads) for g in block]
    grads += [head_gw, head_gb]
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if clip_threshold is not None and norm > clip_threshold:
        grads = [g * (clip_threshold / norm) for g in grads]
        norm = clip_threshold
    return grads, norm


def ref_train(x, y, config, seed):
    """train_classifier with the reference kernel and Adam over every tensor."""
    seqs = to_sequences(x, config.sequence_layout)
    model = create_classifier(seqs.shape[2], K_CLASSES, config, seed)
    params = model.params()
    optimizer = ReferenceAdam(params, config.learning_rate)
    history = []
    for epoch in range(config.epochs):
        loss_sum, correct = 0.0, 0
        for idx in rng.epoch_batches(len(x), config.batch_size, seed, epoch):
            probs, caches = ref_forward(model, seqs[idx])
            loss, grad_logits = cross_entropy_loss(probs, y[idx])
            grads, _ = ref_backward(model, caches, grad_logits,
                                    config.clip_threshold)
            optimizer.step(params, grads)
            loss_sum += loss * len(idx)
            correct += int((probs.argmax(axis=1) == y[idx]).sum())
        history.append((loss_sum / len(x), correct / len(x)))
    return model, history


def iog_rows(hidden):
    """The rows of the i | o | g gate blocks, those a one-step cell keeps."""
    return np.r_[:hidden, 2 * hidden:4 * hidden]


def widened(model, start):
    """``start``, a seeded classifier of full cells, with ``model``'s
    one-step cells written into the i | o | g rows of w[:, H:] and of b, and
    with ``model``'s head."""
    hidden = model.config.hidden_size
    rows = iog_rows(hidden)
    for cell, full in zip(model.cells, start.cells):
        full.w[rows, hidden:], full.b[rows] = cell.w, cell.b
    start.head = model.head
    return start


def make_data(seed):
    x = rng.uniform(rng.derive(seed, "x"), (ROWS, WIDTH))
    y = np.arange(ROWS) % K_CLASSES
    return x, y


def make_config(layout, layers, hidden, clip):
    """The case's settings and its seed."""
    return LstmConfig(hidden_size=hidden, num_layers=layers, epochs=EPOCHS,
                      batch_size=BATCH, sequence_layout=layout,
                      clip_threshold=clip), 100 * layers + hidden


def check(actual, expected, exact):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    if exact:
        assert np.array_equal(actual, expected)
    else:
        scale = max(float(np.abs(expected).max()), 1e-300)
        assert float(np.abs(actual - expected).max()) <= TOL * scale


CASES = [(layout, layers, hidden, clip)
         for layout in ("single-step", "feature-steps")
         for layers in (1, 2)
         for hidden in (5, 13, 168)
         for clip in (None, 0.5, 0.01)]


def case_id(case):
    layout, layers, hidden, clip = case
    return f"{layout}-L{layers}-H{hidden}-clip{clip}"


@pytest.mark.parametrize("layout, layers, hidden, clip", CASES,
                         ids=[case_id(c) for c in CASES])
def test_batch_step_matches_full_concat_reference(layout, layers, hidden,
                                                  clip):
    exact = layout == "single-step" and layers == 1
    config, seed = make_config(layout, layers, hidden, clip)
    x, y = make_data(hidden)
    seqs = to_sequences(x, layout)
    model = create_classifier(seqs.shape[2], K_CLASSES, config, seed)

    probs, caches = sequence_forward(model, seqs)
    ref_probs, ref_caches = ref_forward(model, seqs)
    check(probs, ref_probs, exact)

    _, grad_logits = cross_entropy_loss(probs, y)
    _, ref_grad_logits = cross_entropy_loss(ref_probs, y)
    grads, norm = sequence_backward(model, caches, grad_logits, clip, None)
    ref_grads, ref_norm = ref_backward(model, ref_caches, ref_grad_logits, clip)
    assert len(grads) == len(ref_grads) == len(model.params())
    for g, ref in zip(grads, ref_grads):
        check(g, ref, exact)
    if exact:
        assert norm == ref_norm
    else:
        assert abs(norm - ref_norm) <= TOL * ref_norm
    if clip == 0.01:  # this threshold binds on this data
        assert ref_backward(model, ref_caches, ref_grad_logits)[1] > clip
        assert norm == clip


@pytest.mark.parametrize("layout, layers, hidden, clip", CASES,
                         ids=[case_id(c) for c in CASES])
def test_training_matches_full_concat_reference(layout, layers, hidden, clip,
                                               monkeypatch):
    exact = layout == "single-step" and layers == 1 and clip != 0.01
    config, seed = make_config(layout, layers, hidden, clip)
    x, y = make_data(hidden)
    model, history = train_classifier(x, y, config, seed, K_CLASSES)
    ref_model, ref_history = ref_train(x, y, config, seed)
    full = model
    if layout == "single-step":
        # one step from zero state: each cell is its i | o | g input rows.
        # The reference trains whole cells, but the recurrent block and the
        # forget rows get no gradient and keep their seeded values, so the
        # one-step cells written into the seeded ones give the whole cells.
        assert all(cell.one_step for cell in model.cells)
        assert [cell.w.shape for cell in model.cells] == \
            [(3 * hidden, WIDTH)] + [(3 * hidden, hidden)] * (layers - 1)
        full = widened(model, create_classifier(WIDTH, K_CLASSES, config,
                                                seed))
    for p, ref in zip(full.params(), ref_model.params(), strict=True):
        check(p, ref, exact)
    check([(r.loss, r.accuracy) for r in history], ref_history, exact)
    monkeypatch.setattr(nn, "CHUNK_ROWS", 7)
    probs = predict_proba(model, x)
    ref_probs, _ = ref_forward(full, to_sequences(x, layout))
    check(probs, ref_probs, exact)


def test_zero_state_step_equals_explicit_zero_states():
    cell = LstmCell.create(6, 5, seed=8)
    x = rng.uniform(rng.derive(8, "x"), (9, 6))
    h, c, cache = cell_forward(cell, x, None, None)
    h_ref, c_ref, ref_cache = cell_forward(cell, x, np.zeros((9, 5)),
                                           np.zeros((9, 5)))
    assert np.array_equal(h, h_ref) and np.array_equal(c, c_ref)
    assert cache.c_prev is None and ref_cache.c_prev is not None
    assert np.array_equal(cache.z, x)
    # one row goes through gemv, which may group the shorter sum differently
    h1, c1, _ = cell_forward(cell, x[0], None, None)
    h1_ref, c1_ref, _ = cell_forward(cell, x[0], np.zeros(5), np.zeros(5))
    check(h1, h1_ref, exact=False)
    check(c1, c1_ref, exact=False)
    h2, c2, _ = cell_forward(cell, x[:1], None, None)
    assert np.array_equal(h1, h2[0]) and np.array_equal(c1, c2[0])



@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("hidden", [5, 13, 168])
def test_full_cells_at_one_step_equal_their_one_step_cells(layers, hidden):
    config, seed = make_config("single-step", layers, hidden, None)
    x, y = make_data(hidden)
    seqs = to_sequences(x, "single-step")
    full = create_classifier(WIDTH, K_CLASSES, config, seed)
    rows = iog_rows(hidden)
    narrow = LstmClassifier(
        cells=[LstmCell(cell.w[rows, hidden:], cell.b[rows], one_step=True)
               for cell in full.cells],
        head=full.head, config=config)

    probs, caches = sequence_forward(full, seqs)
    narrow_probs, narrow_caches = sequence_forward(narrow, seqs)
    assert np.array_equal(probs, narrow_probs)
    _, grad_logits = cross_entropy_loss(probs, y)
    grads, _ = sequence_backward(full, caches, grad_logits, None, None)
    narrow_grads, _ = sequence_backward(narrow, narrow_caches, grad_logits,
                                        None, None)
    for layer in range(layers):
        gw, gb = grads[2 * layer:2 * layer + 2]
        exact = layer == layers - 1
        check(gw[rows, hidden:], narrow_grads[2 * layer], exact)
        check(gb[rows], narrow_grads[2 * layer + 1], exact)
        forget = slice(hidden, 2 * hidden)
        assert np.all(gw[forget] == 0.0) and np.all(gb[forget] == 0.0)
        assert np.all(gw[:, :hidden] == 0.0)
    for g, narrow_g in zip(grads[-2:], narrow_grads[-2:], strict=True):
        assert np.array_equal(g, narrow_g)
