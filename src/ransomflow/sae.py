"""Stacked autoencoder with greedy layerwise pretraining.

Each encoder layer (relu by default) is trained with a linear decoder to
minimize batch-mean squared reconstruction error on the codes of the layer
below it; its frozen codes then feed the next layer. The decoders only train
the stack and give its reconstruction loss; the model keeps its encoders and
epoch records, and a stored stack is its encoders alone, which is all
encoding reads. An optional supervised stage fine-tunes the encoders under a
softmax head with cross-entropy. Every stage is a batch step run by
:func:`ransomflow.nn.train_epochs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ConfigError, SchemaMismatch, check_int, check_positive
from .nn import (
    ACTIVATIONS,
    DenseLayer,
    adam_over,
    apply,
    cross_entropy_loss,
    dense_backward,
    dense_backward_preact,
    dense_forward,
    finite_loss,
    layer_from_dict,
    layer_to_dict,
    mse_loss,
    records_csv,
    train_epochs,
)
from .serialize import require_keys


@dataclass
class SAEConfig:
    encoder_dims: tuple = (75, 50, 13)
    activation: str = "relu"
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 0.001
    convergence_threshold: float | None = None

    def __post_init__(self):
        if not isinstance(self.encoder_dims, (list, tuple)):
            raise ConfigError(f"encoder dims must be a list of integers, got "
                              f"{self.encoder_dims!r}")
        self.encoder_dims = tuple(self.encoder_dims)
        check_int("encoder depth", len(self.encoder_dims), 1)
        for dim in self.encoder_dims:
            check_int("encoder dim", dim, 1)
        check_int("epochs", self.epochs, 0)
        check_int("batch size", self.batch_size, 1)
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        check_positive("learning rate", self.learning_rate)
        check_positive("convergence threshold", self.convergence_threshold,
                       optional=True)


@dataclass
class SAEModel:
    """Trained stack: encoders input->code."""

    encoders: list  # DenseLayer, input side first
    config: SAEConfig
    records: list  # nn.EpochRecord per layer and epoch, input side first
    stack_loss: float
    # build_stack's training rows encoded, until the encoders change; never
    # serialized
    codes: np.ndarray | None = field(repr=False, compare=False)

    @property
    def code_dim(self) -> int:
        return self.encoders[-1].out_dim


def pretrain_layer(data: np.ndarray, hidden_dim: int, config: SAEConfig,
                   seed: int):
    """Train one (encoder, decoder) pair to reconstruct ``data``.

    Returns (encoder, decoder, records), a :class:`ransomflow.nn.EpochRecord`
    of each epoch's mean reconstruction loss. Training stops early once it
    falls below ``config.convergence_threshold`` (when set).
    """
    n, width = data.shape
    encoder = DenseLayer.create(width, hidden_dim, config.activation,
                                rng.derive(seed, "encoder"))
    decoder = DenseLayer.create(hidden_dim, width, "linear",
                                rng.derive(seed, "decoder"))
    optimizer = adam_over([encoder, decoder], config.learning_rate)
    enc_grads, dec_grads = optimizer.grads[:2], optimizer.grads[2:]

    def batch_step(idx):
        xb = data[idx]
        code, enc_cache = dense_forward(encoder, xb)
        recon, dec_cache = dense_forward(decoder, code)
        loss, grad_recon = mse_loss(recon, xb)
        grad_code = dense_backward(decoder, dec_cache, grad_recon, dec_grads,
                                   True)[0]
        dense_backward(encoder, enc_cache, grad_code, enc_grads, False)
        return loss, None

    records = train_epochs("SAE pretraining", optimizer, batch_step, n,
                           config.batch_size, seed, config.epochs,
                           config.convergence_threshold)
    return encoder, decoder, records


@np.errstate(all="ignore")  # the loss check reports overflow instead
def build_stack(data: np.ndarray, config: SAEConfig, seed: int) -> SAEModel:
    """Greedy layerwise pretraining over ``config.encoder_dims``.

    Each layer draws from its own substream of ``seed``. Labels are never
    consulted. The returned model holds each layer's epoch records and the
    whole stack's reconstruction loss on the training data, which must be
    finite, and keeps their codes, equal to ``encode(model.encoders, data)``.

    Each layer's codes are encoded once, from the codes of the layer below,
    by :func:`ransomflow.nn.apply`, which keeps no cache. They are written
    over the codes they consume, whose array is then shrunk to them; only
    the first layer, whose input is ``data``, and a layer wider than the one
    below it get an array of their own.
    """
    n = data.shape[0]
    encoders = []
    decoders = []
    records = []
    codes = data
    for depth, hidden_dim in enumerate(config.encoder_dims):
        layer_seed = rng.derive(seed, "layer", depth)
        encoder, decoder, layer_records = pretrain_layer(
            codes, hidden_dim, config, layer_seed)
        encoders.append(encoder)
        decoders.append(decoder)
        records += [r._replace(layer=depth) for r in layer_records]
        if depth == 0 or hidden_dim > codes.shape[1]:
            codes = apply([encoder], codes)
        else:
            apply([encoder], codes, codes.reshape(-1)[
                :n * hidden_dim].reshape(n, hidden_dim))
            # the new codes are the array's first n * hidden_dim values, and
            # no view of it outlives apply, so the shrink strands no reader;
            # a tracer's frame dict may hold the array itself, which the
            # resize updates, hence no reference count check
            codes.resize((n, hidden_dim), refcheck=False)
    decoders.reverse()
    # decoding the codes gives the reconstruction
    stack_loss = finite_loss("SAE pretraining: stack reconstruction",
                             mse_loss(apply(decoders, codes), data)[0])
    return SAEModel(encoders=encoders, config=config, records=records,
                    stack_loss=stack_loss, codes=codes)


def encode(encoders: list, x: np.ndarray) -> np.ndarray:
    """Map (n, d) rows through ``encoders`` to the deepest code layer."""
    return apply(encoders, x)


def fine_tune(model: SAEModel, x: np.ndarray, y: np.ndarray, k_classes: int,
              seed: int):
    """Supervised pass: softmax head on the code layer, cross-entropy loss
    over labels ``y`` in [0, k_classes).

    Encoder weights and the head are updated jointly, and the codes
    ``build_stack`` kept are dropped. The head and
    the batch order draw from a substream of ``seed``, the seed the stack
    was built with, and the pass runs with the stack's own settings. The head
    only trains the encoders and is discarded. Returns one
    :class:`ransomflow.nn.EpochRecord` per epoch.
    """
    config = model.config
    model.codes = None  # the encoders change below
    seed = rng.derive(seed, "fine-tune")
    head = DenseLayer.create(model.code_dim, k_classes, "softmax",
                             rng.derive(seed, "head"))
    optimizer = adam_over([*model.encoders, head], config.learning_rate)
    grads = optimizer.grads

    def batch_step(idx):
        caches = []
        current = x[idx]
        for layer in model.encoders:
            current, cache = dense_forward(layer, current)
            caches.append(cache)
        probs, head_cache = dense_forward(head, current)
        loss, grad_logits = cross_entropy_loss(probs, y[idx])
        grad = dense_backward_preact(head, head_cache, grad_logits,
                                     grads[-2:])[0]
        for j in range(len(caches) - 1, -1, -1):
            grad = dense_backward(model.encoders[j], caches[j], grad,
                                  grads[2 * j:2 * j + 2], j > 0)[0]
        return loss, None

    return train_epochs("SAE fine-tuning", optimizer, batch_step, x.shape[0],
                        config.batch_size, seed, config.epochs)


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model: SAEModel) -> dict:
    return {"encoders": [layer_to_dict(l) for l in model.encoders]}


def model_from_dict(doc: dict, config: SAEConfig, features: int) -> list:
    """The encoders in ``doc``, applying ``config.activation``;
    :class:`SchemaMismatch` unless they map ``features`` inputs through
    ``config.encoder_dims``."""
    require_keys(doc, ("encoders",), "sae")
    encoders = [layer_from_dict(d, config.activation) for d in doc["encoders"]]
    shapes = [layer.weights.shape for layer in encoders]
    dims = config.encoder_dims
    if shapes != list(zip(dims, (features, *dims[:-1]))):
        raise SchemaMismatch(f"encoder weight shapes {shapes} contradict "
                             f"{features} features and sae config")
    return encoders


def history_csv(model: SAEModel) -> str:
    return records_csv(model.records, layer="layer", epoch="step", loss="loss")
