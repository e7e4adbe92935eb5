"""LSTM cell equations, BPTT gradients, and classifier training."""

import json
import math

import numpy as np
import pytest

from conftest import blob_data

from ransomflow import nn, rng
from ransomflow.config import read_section, section_doc
from ransomflow.errors import (
    ConfigError,
    DegenerateClasses,
    EmptyData,
    LabelOutOfRange,
    SchemaMismatch,
    ShapeMismatch,
)
from ransomflow.lstm import (
    LAYOUTS,
    LstmCell,
    LstmConfig,
    cell_forward,
    create_classifier,
    model_from_dict,
    model_to_dict,
    predict,
    predict_proba,
    sequence_backward,
    sequence_forward,
    to_sequences,
    train_classifier,
)
from ransomflow.nn import (
    CHUNK_ROWS,
    cross_entropy_loss,
    dense_forward,
    grad_check,
)


def zero_cell(input_size: int, hidden_size: int) -> LstmCell:
    total = input_size + hidden_size
    return LstmCell(w=np.zeros((4 * hidden_size, total)),
                    b=np.zeros(4 * hidden_size))


def test_cell_forward_zero_weights_halves_state():
    # sigma(0) = 0.5 and tanh(0) = 0, so c = 0.5 c_prev, h = 0.5 tanh(c)
    cell = zero_cell(3, 2)
    c_prev = np.array([0.8, -0.4])
    h, c, cache = cell_forward(cell, np.array([1.0, 2.0, 3.0]),
                               np.zeros(2), c_prev)
    assert np.array_equal(c, 0.5 * c_prev)
    assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)
    for gate in (cache.i, cache.f, cache.o):
        assert np.array_equal(gate, np.full((1, 2), 0.5))
    assert np.array_equal(cache.g, np.zeros((1, 2)))


def test_cell_forward_scalar_hand_case():
    # unit weights, zero bias, x = 1 from rest: every pre-activation is 1,
    # so c = sigma(1) tanh(1) and h = sigma(1) tanh(c); the reference values
    # come from evaluating those expressions with math alone
    sig1 = 1.0 / (1.0 + math.exp(-1.0))
    c_ref = sig1 * math.tanh(1.0)
    h_ref = sig1 * math.tanh(c_ref)
    assert abs(c_ref - 0.5567699411459397) < 1e-15
    assert abs(h_ref - 0.36960635293570576) < 1e-15

    cell = LstmCell(w=np.ones((4, 2)), b=np.zeros(4))
    h, c, _ = cell_forward(cell, np.array([1.0]), np.zeros(1), np.zeros(1))
    assert abs(c[0] - c_ref) < 1e-9
    assert abs(h[0] - h_ref) < 1e-9


def test_cell_forward_saturated_gates_retain_memory():
    cell = zero_cell(2, 3)
    cell.b[3:6] = 40.0  # forget block
    cell.b[0:3] = -40.0  # input block
    c_prev = np.array([0.9, -0.2, 0.5])
    _, c, _ = cell_forward(cell, np.array([5.0, -5.0]), np.zeros(3), c_prev)
    assert np.abs(c - c_prev).max() < 1e-12


def test_cell_forward_retention_is_bit_exact_when_fully_saturated():
    # sigma(40) rounds to exactly 1.0 in doubles and tanh(0) is exactly 0,
    # so with a zero candidate path the cell state never changes at all
    cell = zero_cell(2, 3)
    cell.b[3:6] = 40.0  # forget block
    c = np.array([0.123456789, -0.5, 0.25])
    c0 = c.copy()
    h = np.zeros(3)
    for t in range(50):
        x = rng.uniform(rng.derive(4, "x", t), (2,))
        h, c, _ = cell_forward(cell, x, h, c)
    assert np.array_equal(c, c0)


def test_cell_forward_rejects_bad_shapes():
    cell = zero_cell(3, 2)
    with pytest.raises(ShapeMismatch):
        cell_forward(cell, np.zeros(4), np.zeros(2), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        cell_forward(cell, np.zeros(3), np.zeros(3), np.zeros(2))


def test_cell_state_magnitude_grows_at_most_one_per_step():
    # |c_t| <= |c_{t-1}| + 1 because gates are in (0, 1) and |g| < 1
    cell = LstmCell.create(4, 6, seed=31)
    seq = 3.0 * rng.uniform(8, (7, 4))
    h = np.zeros(6)
    c = np.zeros(6)
    for t in range(7):
        h, c, _ = cell_forward(cell, seq[t], h, c)
        assert np.abs(c).max() <= t + 1


def test_sequence_forward_uniform_probs_with_zero_model():
    model = create_classifier(5, 4, LstmConfig(hidden_size=3), 1)
    for cell in model.cells:
        for p in cell.params():
            p[:] = 0.0
    model.head.weights[:] = 0.0
    probs, _ = sequence_forward(model, np.ones((1, 5))[:, None, :])
    assert np.allclose(probs, 0.25, atol=1e-15)
    assert predict(model, np.ones((2, 5)))[0] == 0  # tie-break to lowest


def test_sequence_forward_probs_sum_to_one():
    model = create_classifier(6, 3, LstmConfig(hidden_size=7), 5)
    seqs = to_sequences(rng.uniform(6, (9, 6)), "single-step")
    probs, _ = sequence_forward(model, seqs)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_sequence_forward_t2_matches_chained_cells():
    model = create_classifier(4, 3, LstmConfig(hidden_size=5), 99)
    seqs = rng.uniform(17, (6, 2, 4))
    probs, _ = sequence_forward(model, seqs)
    cell = model.cells[0]
    h = np.zeros((6, 5))
    c = np.zeros((6, 5))
    h, c, _ = cell_forward(cell, seqs[:, 0, :], h, c)
    h, c, _ = cell_forward(cell, seqs[:, 1, :], h, c)
    manual, _ = dense_forward(model.head, h)
    assert np.array_equal(probs, manual)


def test_sequence_forward_rejects_a_sequence_without_batch_axis():
    model = create_classifier(4, 3, LstmConfig(hidden_size=5), 2)
    with pytest.raises(ShapeMismatch):
        sequence_forward(model, rng.uniform(8, (2, 4)))  # (T, d)


def test_sequence_backward_rejects_logit_grads_without_batch_axis():
    model = create_classifier(4, 3, LstmConfig(hidden_size=5), 2)
    probs, caches = sequence_forward(model, rng.uniform(8, (1, 2, 4)))
    _, grad_logits = cross_entropy_loss(probs, np.array([1]))
    with pytest.raises(ShapeMismatch):
        sequence_backward(model, caches, grad_logits[0])  # (k,), not (1, k)


def test_to_sequences_layouts():
    x = rng.uniform(3, (5, 13))
    assert to_sequences(x, "single-step").shape == (5, 1, 13)
    assert to_sequences(x, "feature-steps").shape == (5, 13, 1)
    assert np.array_equal(to_sequences(x, "feature-steps")[:, :, 0], x)


def bptt_rel_error(hidden, input_dim, time_steps, seed):
    cfg = LstmConfig(hidden_size=hidden)
    model = create_classifier(input_dim, 3, cfg, seed)
    seqs = rng.uniform(rng.derive(seed, "seq"), (4, time_steps, input_dim))
    labels = np.array([0, 1, 2, 1])
    params = model.params()

    def loss_fn():
        probs, caches = sequence_forward(model, seqs)
        loss, grad_logits = cross_entropy_loss(probs, labels)
        grads, _ = sequence_backward(model, caches, grad_logits)
        return loss, grads

    return grad_check(loss_fn, params)


def test_bptt_gradients_match_finite_differences():
    assert bptt_rel_error(hidden=1, input_dim=1, time_steps=2, seed=7) < 1e-4
    assert bptt_rel_error(hidden=3, input_dim=4, time_steps=5, seed=11) < 1e-4


def test_bptt_gradient_vanishes_at_loss_minimum():
    model = create_classifier(2, 3, LstmConfig(hidden_size=2), 3)
    for cell in model.cells:
        for p in cell.params():
            p[:] = 0.0
    model.head.weights[:] = 0.0
    model.head.biases[:] = 0.0
    model.head.biases[1] = 40.0  # softmax output is 1 on class 1 to 1e-17
    seqs = np.ones((1, 1, 2))
    probs, caches = sequence_forward(model, seqs)
    _, grad_logits = cross_entropy_loss(probs, np.array([1]))
    grads, norm = sequence_backward(model, caches, grad_logits)
    assert norm < 1e-6
    assert max(np.abs(g).max() for g in grads) < 1e-6


def test_bptt_clipping_caps_global_norm():
    model = create_classifier(3, 3, LstmConfig(hidden_size=4), 13)
    seqs = rng.uniform(21, (8, 2, 3))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    probs, caches = sequence_forward(model, seqs)
    _, grad_logits = cross_entropy_loss(probs, labels)
    raw, raw_norm = sequence_backward(model, caches, grad_logits)
    assert raw_norm > 1e-3
    theta = raw_norm / 4.0
    clipped, norm = sequence_backward(model, caches, grad_logits,
                                      clip_threshold=theta)
    assert norm <= theta + 1e-9
    for a, b in zip(clipped, raw):
        assert np.allclose(a, b * (theta / raw_norm), atol=1e-12)
    # a generous threshold leaves gradients untouched
    same, same_norm = sequence_backward(model, caches, grad_logits,
                                        clip_threshold=raw_norm * 10)
    assert same_norm == raw_norm
    for a, b in zip(same, raw):
        assert np.array_equal(a, b)


def test_default_parameter_count():
    model = create_classifier(13, 3, LstmConfig(), 1819)
    assert model.param_count == 122811
    assert model.cells[0].param_count == 122304
    assert model.head.param_count == 507


def test_train_separates_gaussian_blobs():
    x, y = blob_data(40, 2, seed=23)
    train_x, test_x = x[:60], x[60:]
    train_y, test_y = y[:60], y[60:]
    cfg = LstmConfig(hidden_size=16, epochs=50, batch_size=16,
                     learning_rate=0.01)
    model, history = train_classifier(train_x, train_y, cfg, 5, 2)
    assert (predict(model, test_x) == test_y).mean() >= 0.95
    assert (predict(model, train_x) == train_y).mean() >= 0.99
    assert history[-1].loss < history[0].loss
    assert len(history) == 50


def test_train_is_deterministic_per_seed():
    x, y = blob_data(10, 3, seed=29)
    cfg = LstmConfig(hidden_size=4, epochs=5, batch_size=8)
    model_a, hist_a = train_classifier(x, y, cfg, 77, 3)
    model_b, hist_b = train_classifier(x, y, cfg, 77, 3)
    assert hist_a == hist_b
    for pa, pb in zip(model_a.params(), model_b.params()):
        assert np.array_equal(pa, pb)
    _, hist_c = train_classifier(x, y, cfg, 78, 3)
    assert hist_a[-1] != hist_c[-1]


def test_train_validates_inputs():
    x = rng.uniform(1, (6, 4))
    with pytest.raises(LabelOutOfRange):
        train_classifier(x, np.array([0, 1, 2, 0, 1, 5]),
                         LstmConfig(hidden_size=2, epochs=1), 1, 3)
    with pytest.raises(DegenerateClasses):
        train_classifier(x, np.zeros(6, dtype=int),
                         LstmConfig(hidden_size=2, epochs=1), 1, 1)
    with pytest.raises(EmptyData):
        train_classifier(np.empty((0, 4)), np.empty(0, dtype=int),
                         LstmConfig(hidden_size=2, epochs=1), 1, 3)


def test_predict_batch_matches_per_row(monkeypatch):
    x, y = blob_data(8, 3, seed=41)
    cfg = LstmConfig(hidden_size=6, epochs=3, batch_size=8)
    model, _ = train_classifier(x, y, cfg, 9, 3)
    batch = predict_proba(model, x)
    for i in range(len(x)):
        row = predict_proba(model, x[i:i + 1])
        assert np.abs(batch[i] - row[0]).max() < 1e-12
    assert np.array_equal(predict(model, x),
                          batch.argmax(axis=1).astype(np.int64))
    # chunked evaluation stitches to the same answer
    monkeypatch.setattr(nn, "CHUNK_ROWS", 5)
    assert np.array_equal(predict_proba(model, x), batch)


@pytest.mark.parametrize("n", [CHUNK_ROWS + 1, CHUNK_ROWS + 300,
                               2 * CHUNK_ROWS + 50])
def test_predict_proba_equals_one_unchunked_forward_bit_for_bit(n):
    # a row's probabilities must not depend on n mod CHUNK_ROWS: a short
    # tail chunk is rounded by another BLAS kernel
    model = create_classifier(13, 3, LstmConfig(hidden_size=168), 57)
    x = rng.uniform(58, (n, 13))
    whole, _ = sequence_forward(model, to_sequences(x, "single-step"))
    assert np.array_equal(predict_proba(model, x), whole)


def test_model_serialization_round_trip():
    x, y = blob_data(6, 2, seed=47)
    cfg = LstmConfig(hidden_size=3, epochs=2, batch_size=4)
    model, _ = train_classifier(x, y, cfg, 15, 2)
    restored = model_from_dict(model_to_dict(model, 13), model.config, 13, 2,
                               15)
    assert np.array_equal(predict_proba(restored, x), predict_proba(model, x))


def test_model_dict_round_trip_is_bit_exact():
    x, y = blob_data(6, 3, seed=43)
    for layout in LAYOUTS:
        for layers in (1, 2):
            cfg = LstmConfig(hidden_size=4, num_layers=layers, epochs=2,
                             batch_size=4, sequence_layout=layout)
            model, _ = train_classifier(x, y, cfg, 17, 3)
            doc = json.loads(json.dumps(model_to_dict(model, 13)))
            # one step per row leaves the recurrent block w[:, :H] and the
            # forget rows seeded: only the i | o | g rows of w[:, H:] are kept
            one_step = layout == "single-step"
            assert [d["w"]["shape"] for d in doc["cells"]] == [
                [12 if one_step else 16, cell.w.shape[1] - 4 * one_step]
                for cell in model.cells]
            assert [d["b"]["shape"] for d in doc["cells"]] == [
                [12 if one_step else 16]] * layers
            restored = model_from_dict(doc, cfg, 13, 3, 17)
            for a, b in zip(model.params(), restored.params(), strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
                assert b.flags.writeable


def test_config_dict_round_trip():
    cfg = LstmConfig(hidden_size=5, num_layers=2, epochs=3, batch_size=7,
                     learning_rate=0.02, sequence_layout="feature-steps",
                     clip_threshold=1.5)
    doc = section_doc(cfg)
    assert set(doc) == {"hidden_size", "num_layers", "epochs", "batch_size",
                        "learning_rate", "sequence_layout", "clip_threshold"}
    assert read_section(LstmConfig, doc) == cfg
    assert read_section(LstmConfig, json.loads(json.dumps(doc))) == cfg


def test_config_from_dict_is_strict():
    doc = section_doc(LstmConfig())
    dropped = {k: v for k, v in doc.items() if k != "clip_threshold"}
    for bad, named in (({**doc, "hiden_size": 8}, "hiden_size"),
                       ({**doc, "hidden_size": "x"}, "hidden size"),
                       (dropped, "clip_threshold")):
        with pytest.raises(SchemaMismatch, match=named):
            read_section(LstmConfig, bad)


@pytest.mark.parametrize("value", ["x", 0, -2.0, False])
def test_config_rejects_bad_clip_threshold(value):
    with pytest.raises(ConfigError):
        LstmConfig(clip_threshold=value)
