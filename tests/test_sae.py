"""Stacked autoencoder: pretraining dynamics, stacking, and fine-tuning."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import blob_data

from ransomflow import rng
from ransomflow.config import read_section, section_doc
from ransomflow.errors import (
    ConfigError,
    DegenerateClasses,
    EmptyData,
    LabelOutOfRange,
    SchemaMismatch,
    ShapeMismatch,
)
from ransomflow.nn import dense_forward, grad_check, mse_loss
from ransomflow.sae import (
    SAEConfig,
    build_stack,
    encode,
    fine_tune,
    model_from_dict,
    model_to_dict,
    pretrain_layer,
    reconstruct,
)


def test_pretrain_constant_rows_reaches_floor():
    # constant data is exactly reconstructible (decoder bias alone suffices)
    data = np.full((128, 13), 0.4)
    cfg = SAEConfig(epochs=100, batch_size=32, learning_rate=0.01)
    _, _, records = pretrain_layer(data, 8, cfg, 3)
    losses = [r.loss for r in records]
    assert losses[-1] < 1e-3


def test_pretrain_reduces_loss_on_random_data():
    data = rng.uniform(11, (200, 13))
    cfg = SAEConfig(epochs=30)
    _, _, records = pretrain_layer(data, 75, cfg, 5)
    losses = [r.loss for r in records]
    assert losses[-1] < losses[0]
    assert len(losses) <= cfg.epochs


def test_pretrain_convergence_threshold_stops_early():
    data = np.full((64, 13), 0.4)
    cfg = SAEConfig(epochs=5000, batch_size=16, learning_rate=0.01,
                    convergence_threshold=1e-4)
    _, _, records = pretrain_layer(data, 8, cfg, 7)
    losses = [r.loss for r in records]
    assert len(losses) < 5000
    assert losses[-1] < 1e-4
    assert all(v >= 1e-4 for v in losses[:-1])


def test_pretrain_overfits_single_sample():
    one = rng.uniform(9, (1, 13))
    cfg = SAEConfig(encoder_dims=(6,), epochs=20000, batch_size=1,
                    learning_rate=0.0003, convergence_threshold=1e-7)
    _, _, records = pretrain_layer(one, 6, cfg, 2)
    losses = [r.loss for r in records]
    assert losses[-1] < 1e-6


def test_pretrain_rejects_empty():
    with pytest.raises(EmptyData):
        pretrain_layer(np.empty((0, 13)), 8, SAEConfig(epochs=1), 1)


def test_build_stack_default_parameter_counts():
    model = build_stack(rng.uniform(1, (20, 13)), SAEConfig(epochs=0), 1819)
    assert model.param_count == 11026
    assert model.layer_param_counts == [1050, 3800, 663, 700, 3825, 988]
    assert model.encoders[0].in_dim == 13
    assert model.code_dim == 13


def test_build_stack_is_deterministic():
    data = rng.uniform(2, (50, 13))
    cfg = SAEConfig(epochs=3)
    a = build_stack(data, cfg, 42)
    b = build_stack(data, cfg, 42)
    for la, lb in zip(a.encoders + a.decoders, b.encoders + b.decoders):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)
    assert a.records == b.records
    c = build_stack(data, cfg, 43)
    assert not np.array_equal(a.encoders[0].weights, c.encoders[0].weights)


def test_encode_equals_composition_of_layers():
    data = rng.uniform(3, (30, 13))
    model = build_stack(data, SAEConfig(epochs=2), 9)
    current = data
    for layer in model.encoders:
        current, _ = dense_forward(layer, current)
    assert np.array_equal(encode(model.encoders, data), current)


def test_encode_batch_matches_single_rows():
    # gemm vs gemv kernels may differ in the last ulp, hence the tolerance
    data = rng.uniform(4, (10, 13))
    model = build_stack(data, SAEConfig(epochs=1), 4)
    batch_codes = encode(model.encoders, data)
    for i in range(10):
        row_code = encode(model.encoders, data[i:i + 1])
        assert np.abs(batch_codes[i] - row_code[0]).max() < 1e-12
    with pytest.raises(ShapeMismatch):  # a row is a (1, d) batch
        encode(model.encoders, data[0])


def test_reconstruct_shape_and_stack_loss_consistency():
    data = rng.uniform(5, (40, 13))
    model = build_stack(data, SAEConfig(epochs=10), 6)
    recon = reconstruct(model, data)
    assert recon.shape == data.shape
    loss, _ = mse_loss(recon, data)
    assert abs(loss - model.stack_loss) < 1e-12


def test_reconstruct_rejects_a_single_row():
    data = rng.uniform(5, (40, 13))
    model = build_stack(data, SAEConfig(epochs=0), 6)
    with pytest.raises(ShapeMismatch):
        reconstruct(model, data[0])


def test_stack_loss_is_the_full_round_trip_loss_bit_for_bit():
    # build_stack decodes the codes it already holds instead of re-encoding
    data = rng.uniform(9, (700, 13))
    model = build_stack(data, SAEConfig(epochs=2), 3)
    loss, _ = mse_loss(reconstruct(model, data), data)
    assert model.stack_loss == float(loss)


@pytest.mark.parametrize("activation", ["relu", "linear", "tanh"])
def test_build_stack_keeps_the_codes_encode_gives(activation):
    data = rng.uniform(10, (700, 13))
    model = build_stack(data, SAEConfig(epochs=2, activation=activation), 5)
    assert np.array_equal(model.codes, encode(model.encoders, data))
    # kept in memory only: the stored model does not hold them
    assert "codes" not in json.dumps(model_to_dict(model))


# tracemalloc peak of build_stack over its input's bytes, on 40,000 rows of
# 13 features through the default 75/50/13 stack: 13.6 while each full-data
# pass built its training cache, 7.9 with one full-width array held at a time
HEAP_BOUND = 10.0


def test_build_stack_heap_peak_is_bounded_by_the_input_size():
    data = rng.uniform(12, (40_000, 13))
    tracemalloc.start()
    try:
        build_stack(data, SAEConfig(epochs=1), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < HEAP_BOUND * data.nbytes


def test_fine_tune_drops_the_kept_codes():
    x, y = blob_data(20, 3, seed=22)
    model = build_stack(x, SAEConfig(encoder_dims=(8, 4), epochs=1), 2)
    assert model.codes is not None
    fine_tune(model, x, y, 3, 2)
    assert model.codes is None


def test_reconstruction_beats_permuted_features():
    # column-wise shuffling destroys the joint structure the stack learned
    x, _ = blob_data(60, 3, seed=15)
    model = build_stack(x, SAEConfig(epochs=40), 8)
    loss_real, _ = mse_loss(reconstruct(model, x), x)
    permuted = x.copy()
    for j in range(permuted.shape[1]):
        permuted[:, j] = permuted[rng.permutation(rng.derive(77, "col", j),
                                                  len(permuted)), j]
    loss_permuted, _ = mse_loss(reconstruct(model, permuted), permuted)
    assert loss_real <= loss_permuted


def test_stack_gradients_match_finite_differences():
    # full autoencoder reconstruction loss through all six layers
    data = rng.uniform(31, (4, 13))
    model = build_stack(data, SAEConfig(encoder_dims=(5, 3), epochs=0), 13)
    layers = model.encoders + model.decoders
    params = []
    for layer in layers:
        params.extend(layer.params())

    def loss_fn():
        current = data
        caches = []
        for layer in layers:
            current, cache = dense_forward(layer, current)
            caches.append(cache)
        loss, grad = mse_loss(current, data)
        grads = []
        for layer, cache in zip(reversed(layers), reversed(caches)):
            from ransomflow.nn import dense_backward

            grad, gw, gb = dense_backward(layer, cache, grad)
            grads.append((gw, gb))
        grads.reverse()
        flat = []
        for gw, gb in grads:
            flat.extend([gw, gb])
        return loss, flat

    # relu kinks: confirm every pre-activation is clear of zero
    current = data
    for layer in layers:
        _, cache = dense_forward(layer, current)
        if layer.activation == "relu":
            assert np.abs(cache.pre_activation).min() > 1e-4
        current = cache.output
    assert grad_check(loss_fn, params) < 1e-4


def test_fine_tune_learns_separable_labels():
    x, y = blob_data(60, 3, seed=21)
    model = build_stack(x, SAEConfig(encoder_dims=(16, 8), epochs=20), 10)
    cfg = SAEConfig(encoder_dims=(16, 8), epochs=120, batch_size=32,
                    learning_rate=0.01)
    model.config = cfg
    losses = [r.loss for r in fine_tune(model, x, y, 3, 10)]
    assert losses[-1] < losses[0]
    # a row the head gets wrong costs at least ln 2 (its class holds at most
    # half the probability), so under 5% of the last epoch's rows were wrong
    assert losses[-1] < 0.05 * math.log(2)


def test_fine_tune_rejects_degenerate_classes():
    x = rng.uniform(12, (10, 13))
    model = build_stack(x, SAEConfig(epochs=0), 1)
    with pytest.raises(DegenerateClasses):
        fine_tune(model, x, np.zeros(10, dtype=int), 1, 1)
    with pytest.raises(LabelOutOfRange):
        fine_tune(model, x, np.full(10, 5), 3, 1)


def test_model_serialization_round_trip_bit_exact():
    data = rng.uniform(14, (25, 13))
    model = build_stack(data, SAEConfig(epochs=2), 3)
    doc = model_to_dict(model)
    assert set(doc) == {"encoders"}  # decoders and loss curves stay in memory
    restored = model_from_dict(doc, model.config, 13)
    assert np.array_equal(encode(restored, data), encode(model.encoders, data))



def test_model_dict_round_trip_is_bit_exact():
    x, y = blob_data(10, 3, seed=41)
    cfg = SAEConfig(encoder_dims=(6, 3), epochs=2, batch_size=8)
    model = build_stack(x, cfg, 9)
    fine_tune(model, x, y, 3, 9)
    doc = json.loads(json.dumps(model_to_dict(model)))
    restored = model_from_dict(doc, model.config, x.shape[1])
    for layer, back in zip(model.encoders, restored, strict=True):
        assert back.activation == layer.activation
        for a, b in zip(layer.params(), back.params(), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert b.flags.writeable


def test_config_dict_round_trip():
    cfg = SAEConfig(encoder_dims=(9, 4), activation="tanh", epochs=7,
                    batch_size=16, learning_rate=0.01,
                    convergence_threshold=0.25)
    doc = section_doc(cfg)
    assert set(doc) == {"encoder_dims", "activation", "epochs", "batch_size",
                        "learning_rate", "convergence_threshold"}
    assert read_section(SAEConfig, doc) == cfg
    assert read_section(SAEConfig, json.loads(json.dumps(doc))) == cfg


def test_config_from_dict_is_strict():
    doc = section_doc(SAEConfig())
    dropped = {k: v for k, v in doc.items() if k != "convergence_threshold"}
    for bad, named in (({**doc, "extra": 1}, "extra"),
                       ({**doc, "epochs": "x"}, "epochs"),
                       (dropped, "convergence_threshold")):
        with pytest.raises(SchemaMismatch, match=named):
            read_section(SAEConfig, bad)


@pytest.mark.parametrize("value", ["x", 0, -1.0, True])
def test_config_rejects_bad_convergence_threshold(value):
    with pytest.raises(ConfigError):
        SAEConfig(convergence_threshold=value)
