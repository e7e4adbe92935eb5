"""The shared mini-batch Adam loop against the loops it replaced.

``nn.train_epochs`` runs every training stage: each SAE layer's
pretraining, the supervised SAE fine-tune and the LSTM classifier. The
three ``reference_*`` functions below are the per-stage epoch loops that
came before it, kept verbatim apart from their names, stepping the
per-tensor textbook Adam (``conftest.ReferenceAdam``) over the model's own
arrays. Weights and loss histories must match them bit for bit, also
through the ``train`` command; :func:`epoch_records` turns the histories
they return into the epoch records the trainers return now.

Every history CSV is a projection of those records. The writers that
built each CSV from the old per-stage shapes are kept below as
``OLD_WRITERS`` and must give the same bytes.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import ReferenceAdam, blob_data

from ransomflow import gbt, lstm, rng, sae
from ransomflow.cli import main
from ransomflow.errors import DataError
from ransomflow.lstm import (
    LstmConfig,
    create_classifier,
    sequence_backward,
    sequence_forward,
    to_sequences,
    train_classifier,
)
from ransomflow.nn import (
    Adam,
    DenseLayer,
    EpochRecord,
    cross_entropy_loss,
    dense_backward,
    dense_backward_preact,
    dense_forward,
    mse_loss,
    records_csv,
    train_epochs,
)
from ransomflow.sae import (
    SAEConfig,
    SAEModel,
    build_stack,
    fine_tune,
    pretrain_layer,
)
from ransomflow.serialize import csv_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator)


def reference_pretrain_layer(data: np.ndarray, hidden_dim: int,
                             config: SAEConfig, seed: int):
    """Train one (encoder, decoder) pair to reconstruct ``data``.

    Returns (encoder, decoder, losses) where losses holds the running
    epoch-mean reconstruction loss. Training stops early once an epoch mean
    falls below ``config.convergence_threshold`` (when set), so the list
    length is at most ``config.epochs``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError(f"expected 2-d data, got shape {data.shape}")
    n, width = data.shape
    if n == 0:
        raise DataError("cannot pretrain on zero rows")
    encoder = DenseLayer.create(width, hidden_dim, config.activation,
                                rng.derive(seed, "encoder"))
    decoder = DenseLayer.create(hidden_dim, width, "linear",
                                rng.derive(seed, "decoder"))
    params = encoder.params() + decoder.params()
    optimizer = ReferenceAdam(params, config.learning_rate)
    losses = []
    for epoch in range(config.epochs):
        accumulated = 0.0
        for idx in rng.epoch_batches(n, config.batch_size, seed, epoch):
            xb = data[idx]
            code, enc_cache = dense_forward(encoder, xb)
            recon, dec_cache = dense_forward(decoder, code)
            loss, grad_recon = mse_loss(recon, xb)
            grad_code, gw_dec, gb_dec = dense_backward(decoder, dec_cache,
                                                       grad_recon, (None, None),
                                                       True)
            _, gw_enc, gb_enc = dense_backward(encoder, enc_cache, grad_code,
                                               (None, None), False)
            optimizer.step(params, [gw_enc, gb_enc, gw_dec, gb_dec])
            accumulated += loss * xb.shape[0]
        epoch_loss = accumulated / n
        losses.append(epoch_loss)
        if (config.convergence_threshold is not None
                and epoch_loss < config.convergence_threshold):
            break
    return encoder, decoder, losses



def reference_fine_tune(model: SAEModel, x: np.ndarray, y: np.ndarray,
                        k_classes: int, seed: int,
                        config: SAEConfig | None = None):
    """Supervised pass: softmax head on the code layer, cross-entropy loss.

    Encoder weights and the head are updated jointly, and the codes
    ``build_stack`` kept are dropped. Returns
    (head, losses) with the per-epoch mean loss.
    """
    config = config or model.config
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("cannot fine-tune on zero rows")
    if y.shape != (x.shape[0],):
        raise DataError(f"{x.shape[0]} rows vs labels shape {y.shape}")
    if k_classes < 2:
        raise DataError(f"need at least 2 classes, got {k_classes}")
    if y.size and (y.min() < 0 or y.max() >= k_classes):
        raise DataError(f"labels outside [0, {k_classes})")
    model.codes = None  # the encoders change below
    seed = rng.derive(seed, "fine-tune")
    head = DenseLayer.create(model.code_dim, k_classes, "softmax",
                             rng.derive(seed, "head"))
    params = encoder_params(model) + head.params()
    optimizer = ReferenceAdam(params, config.learning_rate)
    n = x.shape[0]
    losses = []
    for epoch in range(config.epochs):
        accumulated = 0.0
        for idx in rng.epoch_batches(n, config.batch_size, seed, epoch):
            xb, yb = x[idx], y[idx]
            caches = []
            current = xb
            for layer in model.encoders:
                current, cache = dense_forward(layer, current)
                caches.append(cache)
            probs, head_cache = dense_forward(head, current)
            loss, grad_logits = cross_entropy_loss(probs, yb)
            grads = []
            grad, gw, gb = dense_backward_preact(head, head_cache, grad_logits,
                                                 (None, None))
            grads.append((gw, gb))
            for layer, cache in zip(reversed(model.encoders), reversed(caches)):
                grad, gw, gb = dense_backward(layer, cache, grad, (None, None),
                                              True)
                grads.append((gw, gb))
            grads.reverse()
            flat = []
            for gw, gb in grads:
                flat.extend([gw, gb])
            optimizer.step(params, flat)
            accumulated += loss * xb.shape[0]
        losses.append(accumulated / n)
    return head, losses



def reference_train_classifier(x: np.ndarray, y: np.ndarray,
                               config: LstmConfig, seed: int,
                               k_classes: int):
    """Mini-batch Adam training. Returns (model, history).

    ``history`` holds one (mean loss, training accuracy) pair per epoch,
    accumulated over the batches of that epoch.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("cannot train on zero rows")
    if y.shape != (x.shape[0],):
        raise DataError(f"{x.shape[0]} rows vs labels shape {y.shape}")
    if k_classes < 2:
        raise DataError(f"need at least 2 classes, got {k_classes}")
    if y.size and (y.min() < 0 or y.max() >= k_classes):
        raise DataError(f"labels outside [0, {k_classes})")
    sequences = to_sequences(x, config.sequence_layout)
    model = create_classifier(sequences.shape[2], k_classes, config, seed)
    # Adam steps views of the parameters. With one step per sequence every
    # cell runs from zero state, so the recurrent block w[:, :H] keeps its
    # seeded values and only w[:, H:] is live.
    live = [np.s_[...]] * len(model.params())
    if sequences.shape[1] == 1:
        live[:2 * len(model.cells):2] = \
            [np.s_[:, config.hidden_size:]] * len(model.cells)
    params = [p[s] for p, s in zip(model.params(), live)]
    optimizer = ReferenceAdam(params, config.learning_rate)
    n = x.shape[0]
    history = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        correct = 0
        for idx in rng.epoch_batches(n, config.batch_size, seed, epoch):
            batch = sequences[idx]
            labels = y[idx]
            probs, caches = sequence_forward(model, batch)
            loss, grad_logits = cross_entropy_loss(probs, labels)
            grads, _ = sequence_backward(model, caches, grad_logits,
                                         config.clip_threshold, None)
            optimizer.step(params, [g[s] for g, s in zip(grads, live)])
            loss_sum += loss * len(idx)
            correct += int((probs.argmax(axis=1) == labels).sum())
        history.append((loss_sum / n, correct / n))
    return model, history


def epoch_records(stage: str, history: list) -> list:
    """The :class:`EpochRecord` list of a reference loop's ``history``: its
    losses, or its (loss, accuracy) pairs."""
    return [EpochRecord(stage, None, epoch, *entry)
            if isinstance(entry, tuple)
            else EpochRecord(stage, None, epoch, entry, None)
            for epoch, entry in enumerate(history)]


def reference_pretrain_records(*args):
    encoder, decoder, losses = reference_pretrain_layer(*args)
    return encoder, decoder, epoch_records("SAE pretraining", losses)


def reference_fine_tune_records(model, x, y, k_classes, seed):
    return epoch_records("SAE fine-tuning",
                         reference_fine_tune(model, x, y, k_classes, seed)[1])


def reference_classifier_records(*args):
    model, history = reference_train_classifier(*args)
    return model, epoch_records("LSTM training", history)


def encoder_params(model: SAEModel) -> list:
    return [p for layer in model.encoders for p in layer.params()]


def assert_same_arrays(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert np.array_equal(a, b)


def pretrain_data():
    return rng.uniform(rng.derive(5, "pretrain"), (90, 6))


def test_pretrain_layer_matches_reference_without_threshold():
    cfg = SAEConfig(encoder_dims=(4,), epochs=4, batch_size=16)
    enc, dec, records = pretrain_layer(pretrain_data(), 4, cfg, seed=23)
    ref_enc, ref_dec, ref_records = reference_pretrain_records(
        pretrain_data(), 4, cfg, 23)
    assert len(records) == 4
    assert records == ref_records
    assert_same_arrays(enc.params() + dec.params(),
                       ref_enc.params() + ref_dec.params())


def test_pretrain_layer_matches_reference_when_it_stops_early():
    cfg = SAEConfig(encoder_dims=(4,), epochs=6, batch_size=16,
                    learning_rate=0.01)
    _, _, curve = reference_pretrain_layer(pretrain_data(), 4, cfg, seed=23)
    assert curve[1] > curve[2]
    # the third epoch's mean is the first one below the threshold
    cfg.convergence_threshold = (curve[1] + curve[2]) / 2
    enc, dec, records = pretrain_layer(pretrain_data(), 4, cfg, seed=23)
    ref_enc, ref_dec, ref_records = reference_pretrain_records(
        pretrain_data(), 4, cfg, 23)
    assert len(records) == 3
    assert records == ref_records
    assert_same_arrays(enc.params() + dec.params(),
                       ref_enc.params() + ref_dec.params())


def test_fine_tune_matches_reference():
    x, y = blob_data(20, 3, seed=31, width=6)
    cfg = SAEConfig(encoder_dims=(5, 3), epochs=3, batch_size=16)
    model, ref_model = build_stack(x, cfg, 7), build_stack(x, cfg, 7)
    records = fine_tune(model, x, y, 3, 7)
    ref_records = reference_fine_tune_records(ref_model, x, y, 3, 7)
    assert len(records) == 3
    assert records == ref_records
    assert_same_arrays(encoder_params(model), encoder_params(ref_model))


@pytest.mark.parametrize("cfg,seed", [
    (LstmConfig(hidden_size=5, epochs=3, batch_size=16), 13),
    (LstmConfig(hidden_size=3, num_layers=2, epochs=3, batch_size=16,
                sequence_layout="feature-steps", clip_threshold=0.05), 17),
], ids=["single-step", "feature-steps-clipped"])
def test_train_classifier_matches_reference(cfg, seed):
    x, y = blob_data(15, 3, seed=41, width=4)
    model, history = train_classifier(x, y, cfg, seed, 3)
    ref_model, ref_history = reference_classifier_records(x, y, cfg, seed, 3)
    assert len(history) == 3
    assert history == ref_history
    assert_same_arrays(model.params(), ref_model.params())


def test_train_epochs_returns_one_pair_per_epoch_and_stops_below():
    w = np.zeros(2)
    losses = iter([4.0, 4.0, 3.0, 3.0, 0.5, 0.5, 0.1, 0.1])
    seen = []

    def batch_step(idx):
        seen.append(len(idx))
        optimizer.grads[0][...] = 1.0
        return next(losses), len(idx) - 1

    optimizer = Adam([w], 0.1)
    (w,) = optimizer.params
    history = train_epochs("toy", optimizer, batch_step, 10, 5, 3, epochs=4,
                           stop_below=1.0)
    # stops after the third epoch, the first with a mean below 1.0
    assert history == [EpochRecord("toy", None, 0, 4.0, 0.8),
                       EpochRecord("toy", None, 1, 3.0, 0.8),
                       EpochRecord("toy", None, 2, 0.5, 0.8)]
    assert seen == [5] * 6
    assert (w < 0).all()  # one Adam step per batch moved the weights
    assert len(train_epochs("toy", Adam([np.zeros(1)], 0.1),
                            lambda idx: (1.0, 0), 7, 3, 3, epochs=5)) == 5
    # a stage that makes no predictions measures no accuracy
    assert [r.accuracy for r in train_epochs(
        "toy", Adam([np.zeros(1)], 0.1), lambda idx: (1.0, None), 7, 3, 3,
        epochs=2)] == [None, None]
    assert train_epochs("toy", Adam([np.zeros(1)], 0.1), batch_step, 7, 3, 3,
                        epochs=0) == []


def test_train_epochs_names_the_stage_and_epoch_of_a_divergence(recwarn):
    losses = iter([1.0, 1.0, np.inf, 1.0])
    with pytest.raises(DataError,
                       match=r"^toy: epoch 1: the loss is not finite$"):
        train_epochs("toy", Adam([np.zeros(1)], 0.1),
                     lambda idx: (next(losses), 0), 6, 3, 3, epochs=3)

    class StepFault(DataError):
        pass

    def misshapen(idx):
        raise StepFault("probability rows must sum to 1 within 1e-6")

    # a batch step's DataError keeps its type and gains the stage and epoch
    with pytest.raises(StepFault,
                       match=r"^toy: epoch 0: probability rows must sum"):
        train_epochs("toy", Adam([np.zeros(1)], 0.1), misshapen, 6, 3, 3,
                     epochs=2)

    def overflow(idx):
        return float(np.float64(1e308) * 10.0), 0

    # numpy's overflow warning is silenced; the loss check reports it
    with pytest.raises(DataError, match=r"^toy: epoch 0: the loss is not"):
        train_epochs("toy", Adam([np.zeros(1)], 0.1), overflow, 6, 3, 3,
                     epochs=1)
    assert [w for w in recwarn if w.category is RuntimeWarning] == []


@pytest.mark.parametrize("fine", [False, True], ids=["plain", "fine-tune"])
def test_train_command_matches_per_tensor_reference(fine, tmp_path,
                                                    monkeypatch):
    # default settings (one step per row), 3 epochs per stage: the stored
    # weights and every history equal those of the reference loops
    text, _ = gen.generate(3, raw_rows=1200, duplicates=120, bad_times=12)
    (tmp_path / "raw.csv").write_text(text, encoding="utf-8")
    art = tmp_path / "art"
    assert main(["ingest", str(tmp_path / "raw.csv"), "--output",
                 str(art)]) == 0
    train = ["train", str(art), "--kind", "sae-lstm", "--sae-epochs", "3",
             "--lstm-epochs", "3", *(["--fine-tune"] if fine else [])]
    assert main([*train, "--output", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(sae, "pretrain_layer", reference_pretrain_records)
    monkeypatch.setattr(sae, "fine_tune", reference_fine_tune_records)
    monkeypatch.setattr(lstm, "train_classifier",
                        reference_classifier_records)
    assert main([*train, "--output", str(tmp_path / "ref")]) == 0
    names = ["sae_history.csv", "lstm_history.csv"]
    names += ["fine_tune_history.csv"] if fine else []
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes()
    new, ref = (json.loads((tmp_path / side / "bundle.json").read_text())
                for side in ("new", "ref"))
    assert new["payload"]["components"] == ref["payload"]["components"]


# The history writers as they were, each reading its trainer's old return
# shape, rebuilt from the records: per layer its epoch losses (sae), the
# epoch losses (fine-tune), the (loss, accuracy) pairs (lstm) and the losses
# from before any tree (gbt).
OLD_WRITERS = {
    "sae": lambda pretrain_losses: csv_text(("layer", "epoch", "loss"), (
        (layer_index, epoch, loss)
        for layer_index, curve in enumerate(pretrain_losses)
        for epoch, loss in enumerate(curve))),
    "fine-tune": lambda ft_losses: csv_text(("epoch", "loss"),
                                            enumerate(ft_losses)),
    "lstm": lambda history: csv_text(
        ("epoch", "loss", "accuracy"),
        ((epoch, *entry) for epoch, entry in enumerate(history))),
    "gbt": lambda losses: csv_text(("round", "loss"), enumerate(losses)),
}


def sae_history(encoder_dims, epochs, threshold=None):
    """(new, old shape) of a stack's pretraining history."""
    x, _ = blob_data(20, 3, seed=31, width=6)
    cfg = SAEConfig(encoder_dims=encoder_dims, epochs=epochs, batch_size=16,
                    convergence_threshold=threshold)
    model = build_stack(x, cfg, 7)
    curves = [[r.loss for r in model.records if r.layer == depth]
              for depth in range(len(encoder_dims))]
    return sae.history_csv(model), curves


def fine_tune_history():
    x, y = blob_data(20, 3, seed=31, width=6)
    model = build_stack(x, SAEConfig(encoder_dims=(5, 3), epochs=2,
                                     batch_size=16), 7)
    records = fine_tune(model, x, y, 3, 7)
    # the train command's projection of the fine-tune records
    text = records_csv(records, epoch="step", loss="loss")
    return text, [r.loss for r in records]


def lstm_history():
    x, y = blob_data(15, 3, seed=41, width=4)
    _, records = train_classifier(
        x, y, LstmConfig(hidden_size=5, epochs=2, batch_size=16), 13, 3)
    return lstm.history_csv(records), [(r.loss, r.accuracy) for r in records]


def gbt_history(rounds):
    x, y = blob_data(15, 3, seed=73)
    _, records = gbt.train_gbt(x, y, gbt.GbtParams(rounds=rounds), 3)
    return gbt.history_csv(records), [r.loss for r in records]


# in "sae-early-stop" the third layer's third epoch is the first of any layer
# below the threshold; ``rows`` counts the CSV rows of each layer, or of the
# whole run
@pytest.mark.parametrize("writer,history,rows", [
    ("sae", lambda: sae_history((5, 4, 3), 4, threshold=0.05), [4, 4, 3]),
    ("sae", lambda: sae_history((5, 4, 3), 0), [0, 0, 0]),
    ("fine-tune", fine_tune_history, [2]),
    ("lstm", lstm_history, [2]),
    ("gbt", lambda: gbt_history(0), [1]),
    ("gbt", lambda: gbt_history(3), [4]),
], ids=["sae-early-stop", "sae-no-epochs", "fine-tune", "lstm", "gbt-0",
        "gbt-3"])
def test_history_csv_layout(writer, history, rows):
    text, old_shape = history()
    assert text == OLD_WRITERS[writer](old_shape)
    assert text.count("\n") == 1 + sum(rows)
    if writer == "sae":  # each record's layer put it in its layer's rows
        assert [len(curve) for curve in old_shape] == rows
