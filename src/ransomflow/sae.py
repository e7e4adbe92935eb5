"""Stacked autoencoder with greedy layerwise pretraining.

Each encoder layer is trained as a standalone autoencoder on the codes of the
layer below it: encoder (relu by default) plus a throwaway-free linear decoder
minimizing batch-mean squared reconstruction error. After a layer converges,
its frozen codes become the next layer's input. The decoders are kept so the
full stack can reconstruct inputs, and an optional supervised stage attaches a
softmax head and fine-tunes the encoder weights with cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import (
    ConfigError,
    DegenerateClasses,
    EmptyData,
    ShapeMismatch,
    check_int,
    check_label_range,
)
from .nn import (
    ACTIVATIONS,
    Adam,
    DenseLayer,
    cross_entropy_loss,
    dense_backward,
    dense_backward_preact,
    dense_forward,
    layer_from_dict,
    layer_to_dict,
    mse_loss,
)
from .serialize import SCHEMA_VERSION, curve_csv, require_version


@dataclass
class SAEConfig:
    encoder_dims: tuple = (75, 50, 13)
    activation: str = "relu"
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 0.001
    convergence_threshold: float | None = None
    seed: int = 1819

    def __post_init__(self):
        self.encoder_dims = tuple(self.encoder_dims)
        check_int("encoder depth", len(self.encoder_dims), 1)
        for dim in self.encoder_dims:
            check_int("encoder dim", dim, 1)
        check_int("epochs", self.epochs, 0)
        check_int("batch size", self.batch_size, 1)
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning rate must be > 0, got {self.learning_rate!r}")

    def to_dict(self) -> dict:
        return {
            "encoder_dims": list(self.encoder_dims),
            "activation": self.activation,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "convergence_threshold": self.convergence_threshold,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SAEConfig":
        return cls(
            encoder_dims=tuple(doc["encoder_dims"]),
            activation=doc["activation"],
            epochs=doc["epochs"],
            batch_size=doc["batch_size"],
            learning_rate=doc["learning_rate"],
            convergence_threshold=doc["convergence_threshold"],
            seed=doc["seed"],
        )


@dataclass
class SAEModel:
    """Trained stack: encoders input->code, decoders code->input."""

    encoders: list  # DenseLayer, input side first
    decoders: list  # DenseLayer, code side first (reconstruction order)
    config: SAEConfig
    pretrain_losses: list  # per layer, per epoch
    stack_loss: float

    @property
    def input_dim(self) -> int:
        return self.encoders[0].in_dim

    @property
    def code_dim(self) -> int:
        return self.encoders[-1].out_dim

    @property
    def param_count(self) -> int:
        return sum(l.param_count for l in self.encoders + self.decoders)

    @property
    def layer_param_counts(self) -> list:
        return [l.param_count for l in self.encoders + self.decoders]

    def encoder_params(self) -> list:
        out = []
        for layer in self.encoders:
            out.extend(layer.params())
        return out


def _epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    order = rng.permutation(rng.derive(seed, "epoch", epoch), n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def pretrain_layer(data: np.ndarray, hidden_dim: int, config: SAEConfig,
                   seed: int | None = None):
    """Train one (encoder, decoder) pair to reconstruct ``data``.

    Returns (encoder, decoder, losses) where losses holds the running
    epoch-mean reconstruction loss. Training stops early once an epoch mean
    falls below ``config.convergence_threshold`` (when set), so the list
    length is at most ``config.epochs``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatch(f"expected 2-d data, got shape {data.shape}")
    n, width = data.shape
    if n == 0:
        raise EmptyData("cannot pretrain on zero rows")
    seed = config.seed if seed is None else seed
    encoder = DenseLayer.create(width, hidden_dim, config.activation,
                                rng.derive(seed, "encoder"))
    decoder = DenseLayer.create(hidden_dim, width, "linear",
                                rng.derive(seed, "decoder"))
    params = encoder.params() + decoder.params()
    optimizer = Adam(params, config.learning_rate)
    losses = []
    for epoch in range(config.epochs):
        accumulated = 0.0
        for idx in _epoch_batches(n, config.batch_size, seed, epoch):
            xb = data[idx]
            code, enc_cache = dense_forward(encoder, xb)
            recon, dec_cache = dense_forward(decoder, code)
            loss, grad_recon = mse_loss(recon, xb)
            grad_code, gw_dec, gb_dec = dense_backward(decoder, dec_cache, grad_recon)
            _, gw_enc, gb_enc = dense_backward(encoder, enc_cache, grad_code)
            optimizer.step(params, [gw_enc, gb_enc, gw_dec, gb_dec])
            accumulated += loss * xb.shape[0]
        epoch_loss = accumulated / n
        losses.append(epoch_loss)
        if (config.convergence_threshold is not None
                and epoch_loss < config.convergence_threshold):
            break
    return encoder, decoder, losses


def build_stack(data: np.ndarray, config: SAEConfig | None = None) -> SAEModel:
    """Greedy layerwise pretraining over ``config.encoder_dims``.

    Labels are never consulted. The returned model records each layer's loss
    curve and the whole stack's reconstruction loss on the training data.
    """
    config = config or SAEConfig()
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatch(f"expected 2-d data, got shape {data.shape}")
    if data.shape[0] == 0:
        raise EmptyData("cannot pretrain on zero rows")
    encoders = []
    decoders = []
    histories = []
    current = data
    for depth, hidden_dim in enumerate(config.encoder_dims):
        layer_seed = rng.derive(config.seed, "layer", depth)
        encoder, decoder, losses = pretrain_layer(current, hidden_dim, config,
                                                  layer_seed)
        encoders.append(encoder)
        decoders.append(decoder)
        histories.append(losses)
        current, _ = dense_forward(encoder, current)
    decoders.reverse()
    model = SAEModel(encoders=encoders, decoders=decoders, config=config,
                     pretrain_losses=histories, stack_loss=float("nan"))
    model.stack_loss = float(mse_loss(reconstruct(model, data), data)[0])
    return model


def encode(model: SAEModel, x: np.ndarray) -> np.ndarray:
    """Map inputs to the deepest code layer."""
    current = np.asarray(x, dtype=np.float64)
    single = current.ndim == 1
    if single:
        current = current[None, :]
    for layer in model.encoders:
        current, _ = dense_forward(layer, current)
    return current[0] if single else current


def reconstruct(model: SAEModel, x: np.ndarray) -> np.ndarray:
    """Round trip through the full stack: encode then decode."""
    current = np.asarray(x, dtype=np.float64)
    single = current.ndim == 1
    if single:
        current = current[None, :]
    for layer in model.encoders:
        current, _ = dense_forward(layer, current)
    for layer in model.decoders:
        current, _ = dense_forward(layer, current)
    return current[0] if single else current


def fine_tune(model: SAEModel, x: np.ndarray, y: np.ndarray, k_classes: int,
              config: SAEConfig | None = None):
    """Supervised pass: softmax head on the code layer, cross-entropy loss.

    Encoder weights and the head are updated jointly; decoders are left
    untouched. Returns (head, losses) with the per-epoch mean loss.
    """
    config = config or model.config
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyData("cannot fine-tune on zero rows")
    if y.shape != (x.shape[0],):
        raise ShapeMismatch(f"{x.shape[0]} rows vs labels shape {y.shape}")
    if k_classes < 2:
        raise DegenerateClasses(f"need at least 2 classes, got {k_classes}")
    check_label_range(y, k_classes)
    seed = rng.derive(config.seed, "fine-tune")
    head = DenseLayer.create(model.code_dim, k_classes, "softmax",
                             rng.derive(seed, "head"))
    params = model.encoder_params() + head.params()
    optimizer = Adam(params, config.learning_rate)
    n = x.shape[0]
    losses = []
    for epoch in range(config.epochs):
        accumulated = 0.0
        for idx in _epoch_batches(n, config.batch_size, seed, epoch):
            xb, yb = x[idx], y[idx]
            caches = []
            current = xb
            for layer in model.encoders:
                current, cache = dense_forward(layer, current)
                caches.append(cache)
            probs, head_cache = dense_forward(head, current)
            loss, grad_logits = cross_entropy_loss(probs, yb)
            grads = []
            grad, gw, gb = dense_backward_preact(head, head_cache, grad_logits)
            grads.append((gw, gb))
            for layer, cache in zip(reversed(model.encoders), reversed(caches)):
                grad, gw, gb = dense_backward(layer, cache, grad)
                grads.append((gw, gb))
            grads.reverse()
            flat = []
            for gw, gb in grads:
                flat.extend([gw, gb])
            optimizer.step(params, flat)
            accumulated += loss * xb.shape[0]
        losses.append(accumulated / n)
    return head, losses


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model: SAEModel, head: DenseLayer | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "component": "sae",
        "config": model.config.to_dict(),
        "encoders": [layer_to_dict(l) for l in model.encoders],
        "decoders": [layer_to_dict(l) for l in model.decoders],
        "pretrain_losses": [list(map(float, curve)) for curve in model.pretrain_losses],
        "stack_loss": float(model.stack_loss),
        "head": layer_to_dict(head) if head is not None else None,
    }
    return doc


def model_from_dict(doc: dict):
    require_version(doc, "sae model")
    if doc.get("component") != "sae":
        from .errors import SchemaMismatch

        raise SchemaMismatch(f"expected sae component, got {doc.get('component')!r}")
    model = SAEModel(
        encoders=[layer_from_dict(d) for d in doc["encoders"]],
        decoders=[layer_from_dict(d) for d in doc["decoders"]],
        config=SAEConfig.from_dict(doc["config"]),
        pretrain_losses=[list(curve) for curve in doc["pretrain_losses"]],
        stack_loss=float(doc["stack_loss"]),
    )
    head = layer_from_dict(doc["head"]) if doc.get("head") is not None else None
    return model, head


def history_csv(model: SAEModel) -> str:
    """Loss curves as layer,epoch,loss rows."""
    return curve_csv("layer,epoch,loss", (
        (layer_index, epoch, loss)
        for layer_index, curve in enumerate(model.pretrain_losses)
        for epoch, loss in enumerate(curve)))
