"""LSTM classifier trained with full backpropagation through time.

Each cell keeps its four gates fused in one weight matrix ``w`` of shape
(4 * hidden, hidden + input) and one bias ``b`` of length 4 * hidden. The row
blocks are the input, forget, output and candidate gates, in that order; the
columns multiply the concatenation z = [h_prev | x_t], recurrent block first.
One matmul gives every gate pre-activation:

    [a_i | a_f | a_o | a_g] = z @ w.T + b
    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o)      g = tanh(a_g)
    c_t = f * c_prev + i * g      h_t = o * tanh(c_t)

Tabular rows are fed either as one step carrying all features (the default)
or as one step per feature. A softmax head reads the final hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    ConfigError,
    DegenerateClasses,
    EmptyData,
    SchemaMismatch,
    ShapeMismatch,
    check_int,
    check_label_range,
)
from .nn import (
    Adam,
    DenseLayer,
    cross_entropy_loss,
    dense_backward_preact,
    dense_forward,
    layer_from_dict,
    layer_to_dict,
    sigmoid,
)
from .serialize import SCHEMA_VERSION, curve_csv, float_list, require_version

GATES = ("input", "forget", "output", "candidate")
LAYOUTS = ("single-step", "feature-steps")


@dataclass
class LstmCell:
    w: np.ndarray  # (4 * hidden, hidden + input), row blocks i | f | o | g
    b: np.ndarray  # (4 * hidden,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[0] % 4:
            raise ShapeMismatch(
                f"gate matrix shape {self.w.shape} is not (4 * hidden, columns)"
            )
        if self.b.shape != (self.w.shape[0],):
            raise ShapeMismatch(
                f"gate bias shape {self.b.shape} != ({self.w.shape[0]},)"
            )
        if self.w.shape[1] <= self.hidden_size:
            raise ShapeMismatch("gate matrix must have input + hidden columns")

    @classmethod
    def create(cls, input_size: int, hidden_size: int, seed: int) -> "LstmCell":
        total = input_size + hidden_size
        bound = np.sqrt(6.0 / (total + hidden_size))
        w = np.concatenate([
            rng.uniform_signed(rng.derive(seed, "gate", gate),
                               (hidden_size, total), bound)
            for gate in GATES
        ])
        return cls(w=w, b=np.zeros(4 * hidden_size))

    @property
    def hidden_size(self) -> int:
        return self.w.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[1] - self.hidden_size

    @property
    def param_count(self) -> int:
        return self.w.size + self.b.size

    def params(self) -> list:
        return [self.w, self.b]


@dataclass
class GateCache:
    """Forward values one step of BPTT needs."""

    z: np.ndarray          # (m, hidden + input), [h_prev | x_t]
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_prev: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray


def cell_forward(cell: LstmCell, x_t: np.ndarray, h_prev: np.ndarray,
                 c_prev: np.ndarray):
    """One LSTM step. Accepts single vectors or (m, dim) batches.

    Returns (h, c, cache).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    c_prev = np.asarray(c_prev, dtype=np.float64)
    single = x_t.ndim == 1
    if single:
        x_t, h_prev, c_prev = x_t[None, :], h_prev[None, :], c_prev[None, :]
    hidden = cell.hidden_size
    if x_t.shape[1] != cell.input_size:
        raise ShapeMismatch(
            f"input width {x_t.shape[1]} != cell input size {cell.input_size}"
        )
    if h_prev.shape != (x_t.shape[0], hidden) or c_prev.shape != h_prev.shape:
        raise ShapeMismatch(
            f"state shapes {h_prev.shape}/{c_prev.shape} do not match "
            f"batch {x_t.shape[0]} x hidden {hidden}"
        )
    z = np.concatenate([h_prev, x_t], axis=1)
    gates = z @ cell.w.T + cell.b
    gates[:, :3 * hidden] = sigmoid(gates[:, :3 * hidden])
    gates[:, 3 * hidden:] = np.tanh(gates[:, 3 * hidden:])
    i, f, o, g = np.split(gates, 4, axis=1)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = GateCache(z=z, i=i, f=f, o=o, g=g, c_prev=c_prev, c=c, tanh_c=tanh_c)
    if single:
        return h[0], c[0], cache
    return h, c, cache


@dataclass
class LstmConfig:
    hidden_size: int = 168
    num_layers: int = 1
    epochs: int = 400
    batch_size: int = 128
    learning_rate: float = 0.001
    sequence_layout: str = "single-step"
    clip_threshold: float | None = None
    seed: int = 1819

    def __post_init__(self):
        check_int("hidden size", self.hidden_size, 1)
        check_int("layer count", self.num_layers, 1)
        check_int("epochs", self.epochs, 0)
        check_int("batch size", self.batch_size, 1)
        if not self.learning_rate > 0:
            raise ConfigError(f"learning rate must be > 0, got {self.learning_rate!r}")
        if self.sequence_layout not in LAYOUTS:
            raise ConfigError(
                f"sequence layout must be one of {LAYOUTS}, got "
                f"{self.sequence_layout!r}"
            )
        if self.clip_threshold is not None and self.clip_threshold <= 0:
            raise ValueError("clip threshold must be positive when set")

    def to_dict(self) -> dict:
        return {
            "hidden_size": self.hidden_size,
            "num_layers": self.num_layers,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "sequence_layout": self.sequence_layout,
            "clip_threshold": self.clip_threshold,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LstmConfig":
        return cls(**doc)


@dataclass
class LstmClassifier:
    cells: list  # LstmCell per layer, input side first
    head: DenseLayer
    config: LstmConfig
    k_classes: int

    @property
    def param_count(self) -> int:
        return sum(c.param_count for c in self.cells) + self.head.param_count

    def params(self) -> list:
        out = []
        for cell in self.cells:
            out.extend(cell.params())
        out.extend(self.head.params())
        return out


def to_sequences(x: np.ndarray, layout: str) -> np.ndarray:
    """Reshape (n, d) feature rows into (n, T, step_dim) sequences."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected (rows, features), got shape {x.shape}")
    if layout == "single-step":
        return x[:, None, :]
    if layout == "feature-steps":
        return x[:, :, None]
    raise ConfigError(f"unknown sequence layout {layout!r}")


@dataclass
class SequenceCaches:
    steps: list       # per layer: list of GateCache per time step
    head_cache: object
    batch_size: int
    time_steps: int


def sequence_forward(model: LstmClassifier, sequences: np.ndarray):
    """Run the stack over a (m, T, d) batch or a single (T, d) sequence.

    States start at zero. The softmax head reads the last layer's final
    hidden state. Returns (probs, caches).
    """
    sequences = np.asarray(sequences, dtype=np.float64)
    single = sequences.ndim == 2
    if single:
        sequences = sequences[None, :, :]
    if sequences.ndim != 3:
        raise ShapeMismatch(f"expected (m, T, d) sequences, got {sequences.shape}")
    m, time_steps, width = sequences.shape
    if time_steps == 0:
        raise EmptyData("sequences must have at least one step")
    if width != model.cells[0].input_size:
        raise ShapeMismatch(
            f"step width {width} != first cell input {model.cells[0].input_size}"
        )
    layer_steps = []
    inputs = [sequences[:, t, :] for t in range(time_steps)]
    for cell in model.cells:
        h = np.zeros((m, cell.hidden_size))
        c = np.zeros((m, cell.hidden_size))
        caches = []
        outputs = []
        for x_t in inputs:
            h, c, cache = cell_forward(cell, x_t, h, c)
            caches.append(cache)
            outputs.append(h)
        layer_steps.append(caches)
        inputs = outputs
    probs, head_cache = dense_forward(model.head, inputs[-1])
    caches = SequenceCaches(steps=layer_steps, head_cache=head_cache,
                            batch_size=m, time_steps=time_steps)
    if single:
        return probs[0], caches
    return probs, caches


def sequence_backward(model: LstmClassifier, caches: SequenceCaches,
                      grad_logits: np.ndarray,
                      clip_threshold: float | None = None):
    """Full BPTT from the head gradient back through every step and layer.

    ``grad_logits`` is the loss gradient at the head pre-activation, e.g. the
    (p - y) / m term from :func:`ransomflow.nn.cross_entropy_loss`. Returns
    (grads, global_norm) with grads aligned to ``model.params()``. When
    ``clip_threshold`` is set and the global L2 norm exceeds it, all grads are
    rescaled to that norm; the returned value is the norm of the returned
    grads.
    """
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.ndim == 1:
        grad_logits = grad_logits[None, :]
    grad_h_final, grad_head_w, grad_head_b = dense_backward_preact(
        model.head, caches.head_cache, grad_logits
    )
    time_steps = caches.time_steps
    m = caches.batch_size
    cell_grads = []
    # dh arriving at each step of the current layer from the layer above.
    upper = [np.zeros((m, model.cells[-1].hidden_size)) for _ in range(time_steps)]
    upper[-1] = grad_h_final
    for layer_index in range(len(model.cells) - 1, -1, -1):
        cell = model.cells[layer_index]
        step_caches = caches.steps[layer_index]
        hidden = cell.hidden_size
        gw = np.zeros_like(cell.w)
        gb = np.zeros_like(cell.b)
        grad_h_next = np.zeros((m, hidden))
        grad_c_next = np.zeros((m, hidden))
        lower = []
        for t in range(time_steps - 1, -1, -1):
            cache = step_caches[t]
            grad_h = upper[t] + grad_h_next
            grad_c = grad_c_next + grad_h * cache.o * (1.0 - cache.tanh_c ** 2)
            # loss gradient at the pre-activations, gate blocks i | f | o | g
            pre = np.concatenate([
                grad_c * cache.g * cache.i * (1.0 - cache.i),
                grad_c * cache.c_prev * cache.f * (1.0 - cache.f),
                grad_h * cache.tanh_c * cache.o * (1.0 - cache.o),
                grad_c * cache.i * (1.0 - cache.g ** 2),
            ], axis=1)
            gw += pre.T @ cache.z
            gb += pre.sum(axis=0)
            grad_z = pre @ cell.w
            grad_h_next = grad_z[:, :hidden]
            grad_c_next = grad_c * cache.f
            lower.append(grad_z[:, hidden:])
        lower.reverse()
        upper = lower
        cell_grads.append([gw, gb])
    cell_grads.reverse()
    grads = []
    for block in cell_grads:
        grads.extend(block)
    grads.extend([grad_head_w, grad_head_b])
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if clip_threshold is not None and norm > clip_threshold:
        scale = clip_threshold / norm
        grads = [g * scale for g in grads]
        norm = clip_threshold
    return grads, norm


def create_classifier(input_dim: int, k_classes: int,
                      config: LstmConfig) -> LstmClassifier:
    """Fresh stack with seeded Glorot gates and zero biases."""
    if k_classes < 2:
        raise DegenerateClasses(f"need at least 2 classes, got {k_classes}")
    cells = []
    step_width = input_dim
    for layer_index in range(config.num_layers):
        cells.append(LstmCell.create(
            step_width, config.hidden_size,
            rng.derive(config.seed, "cell", layer_index),
        ))
        step_width = config.hidden_size
    head = DenseLayer.create(config.hidden_size, k_classes, "softmax",
                             rng.derive(config.seed, "head"))
    return LstmClassifier(cells=cells, head=head, config=config,
                          k_classes=k_classes)


def train_classifier(x: np.ndarray, y: np.ndarray,
                     config: LstmConfig | None = None,
                     k_classes: int | None = None):
    """Mini-batch Adam training. Returns (model, history).

    ``history`` holds one (mean loss, training accuracy) pair per epoch,
    accumulated over the batches of that epoch.
    """
    config = config or LstmConfig()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyData("cannot train on zero rows")
    if y.shape != (x.shape[0],):
        raise ShapeMismatch(f"{x.shape[0]} rows vs labels shape {y.shape}")
    k = int(y.max()) + 1 if k_classes is None else int(k_classes)
    if k < 2:
        raise DegenerateClasses(f"need at least 2 classes, got {k}")
    check_label_range(y, k)
    sequences = to_sequences(x, config.sequence_layout)
    model = create_classifier(sequences.shape[2], k, config)
    params = model.params()
    optimizer = Adam(params, config.learning_rate)
    n = x.shape[0]
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(rng.derive(config.seed, "epoch", epoch), n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = sequences[idx]
            labels = y[idx]
            probs, caches = sequence_forward(model, batch)
            loss, grad_logits = cross_entropy_loss(probs, labels)
            grads, _ = sequence_backward(model, caches, grad_logits,
                                         config.clip_threshold)
            optimizer.step(params, grads)
            loss_sum += loss * len(idx)
            correct += int((probs.argmax(axis=1) == labels).sum())
        history.append((loss_sum / n, correct / n))
    return model, history


def predict_proba(model: LstmClassifier, x: np.ndarray,
                  chunk: int = 4096) -> np.ndarray:
    """Class probabilities for (n, d) feature rows."""
    sequences = to_sequences(x, model.config.sequence_layout)
    parts = []
    for start in range(0, sequences.shape[0], chunk):
        probs, _ = sequence_forward(model, sequences[start:start + chunk])
        parts.append(probs)
    if not parts:
        return np.empty((0, model.k_classes))
    return np.concatenate(parts, axis=0)


def predict(model: LstmClassifier, x: np.ndarray) -> np.ndarray:
    """Most probable class per row; ties resolve to the lowest index."""
    return predict_proba(model, x).argmax(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Serialization


def cell_to_dict(cell: LstmCell) -> dict:
    return {
        "hidden_size": cell.hidden_size,
        "input_size": cell.input_size,
        "w": float_list(cell.w),
        "b": float_list(cell.b),
    }


def cell_from_dict(doc: dict) -> LstmCell:
    cell = LstmCell(w=doc["w"], b=doc["b"])
    if cell.hidden_size != doc["hidden_size"] or cell.input_size != doc["input_size"]:
        raise ShapeMismatch("stored cell dims disagree with matrix shapes")
    return cell


def model_to_dict(model: LstmClassifier) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "component": "lstm",
        "config": model.config.to_dict(),
        "k_classes": model.k_classes,
        "cells": [cell_to_dict(c) for c in model.cells],
        "head": layer_to_dict(model.head),
    }


def model_from_dict(doc: dict) -> LstmClassifier:
    require_version(doc, "lstm model")
    if doc.get("component") != "lstm":
        raise SchemaMismatch(f"expected lstm component, got {doc.get('component')!r}")
    return LstmClassifier(
        cells=[cell_from_dict(d) for d in doc["cells"]],
        head=layer_from_dict(doc["head"]),
        config=LstmConfig.from_dict(doc["config"]),
        k_classes=int(doc["k_classes"]),
    )


def history_csv(history) -> str:
    return curve_csv("epoch,loss,accuracy",
                     ((epoch, *entry) for epoch, entry in enumerate(history)))
