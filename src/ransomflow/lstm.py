"""LSTM classifier trained with full backpropagation through time.

Each cell keeps its four gates fused in one weight matrix ``w`` of shape
(4 * hidden, hidden + input) and one bias ``b`` of length 4 * hidden. The row
blocks are the input, forget, output and candidate gates, in that order; the
columns multiply the concatenation z = [h_prev | x_t], recurrent block first.
One matmul gives every gate pre-activation:

    [a_i | a_f | a_o | a_g] = z @ w.T + b
    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o)      g = tanh(a_g)
    c_t = f * c_prev + i * g      h_t = o * tanh(c_t)

Every sequence starts from h = c = 0, so each layer's first step is a
zero-state step. The forget gate only scales c_prev = 0 there, so the step
multiplies and activates just the three live gates, i | o | g, of the input
block: [a_i | a_o | a_g] = x_t @ w[live, H:].T + b[live], and c_t = i * g.
Its backward pass writes gradient on those rows of w[:, H:] and b only; the
recurrent block and the forget rows keep zero gradient. With one step per
sequence (the default layout) those entries never get a gradient at all, so
training steps only those rows and the head, as views of Adam's flat buffer
that zero-state steps read (``LstmCell.live``) and BPTT writes into. A bundle
stores just those parts; loading writes them into the seeded stack.

Tabular rows are fed either as one step carrying all features (the default)
or as one step per feature. A softmax head reads the final hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (
    ConfigError,
    DegenerateClasses,
    EmptyData,
    SchemaMismatch,
    ShapeMismatch,
    check_int,
    check_labeled_rows,
    check_positive,
)
from .nn import (
    Adam,
    DenseLayer,
    cross_entropy_loss,
    dense_backward_preact,
    dense_forward,
    layer_from_dict,
    layer_to_dict,
    records_csv,
    row_chunks,
    sigmoid,
    train_epochs,
)
from .serialize import array_doc, array_from_doc, require_keys

GATES = ("input", "forget", "output", "candidate")
LAYOUTS = ("single-step", "feature-steps")


@dataclass
class LstmCell:
    w: np.ndarray  # (4 * hidden, hidden + input), row blocks i | f | o | g
    b: np.ndarray  # (4 * hidden,)
    # Adam's views of w[live, H:], b[live] while one-step training runs
    live: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

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


def live_rows(hidden: int) -> np.ndarray:
    """Rows of the i | o | g gate blocks: all a zero-state step uses."""
    return np.concatenate((np.arange(hidden), np.arange(2 * hidden, 4 * hidden)))


def gate_blocks(a: np.ndarray, hidden: int) -> list:
    """The ``hidden``-wide column blocks of ``a``, as views."""
    return [a[:, j:j + hidden] for j in range(0, a.shape[1], hidden)]


@dataclass
class GateCache:
    """Forward values one step of BPTT needs; the gates are in-place views."""

    z: np.ndarray          # [h_prev | x_t], or x_t alone on a zero-state step
    w: np.ndarray          # what z multiplied: w, or w[live, H:]
    i: np.ndarray
    f: np.ndarray | None   # None on a zero-state step, which has three gates
    o: np.ndarray
    g: np.ndarray
    c_prev: np.ndarray | None  # None marks a zero-state step
    tanh_c: np.ndarray


def cell_forward(cell: LstmCell, x_t: np.ndarray,
                 h_prev: np.ndarray | None = None,
                 c_prev: np.ndarray | None = None):
    """One LSTM step. Accepts single vectors or (m, dim) batches.

    ``h_prev = c_prev = None`` is the zero state: only the i | o | g rows of
    the input block of ``w`` are multiplied and the forget gate is not
    computed. Returns (h, c, cache).
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    single = x_t.ndim == 1
    if single:
        x_t = x_t[None, :]
    hidden = cell.hidden_size
    if x_t.shape[1] != cell.input_size:
        raise ShapeMismatch(
            f"input width {x_t.shape[1]} != cell input size {cell.input_size}"
        )
    if h_prev is None and c_prev is None:
        z = x_t
        if cell.live is None:
            rows = live_rows(hidden)
            w, b = cell.w[rows, hidden:], cell.b[rows]
        else:
            w, b = cell.live
    else:
        if h_prev is None or c_prev is None:
            raise ShapeMismatch("give both h_prev and c_prev, or neither")
        h_prev = np.asarray(h_prev, dtype=np.float64)
        c_prev = np.asarray(c_prev, dtype=np.float64)
        if single:
            h_prev, c_prev = h_prev[None, :], c_prev[None, :]
        if h_prev.shape != (x_t.shape[0], hidden) \
                or c_prev.shape != h_prev.shape:
            raise ShapeMismatch(
                f"state shapes {h_prev.shape}/{c_prev.shape} do not match "
                f"batch {x_t.shape[0]} x hidden {hidden}"
            )
        z, w, b = np.concatenate([h_prev, x_t], axis=1), cell.w, cell.b
    gates = z @ w.T
    gates += b
    # every gate block but the last, the candidate g, is a sigmoid
    sigmoid(gates[:, :-hidden], out=gates[:, :-hidden])
    np.tanh(gates[:, -hidden:], out=gates[:, -hidden:])
    if c_prev is None:
        (i, o, g), f = gate_blocks(gates, hidden), None
        c = i * g
    else:
        i, f, o, g = gate_blocks(gates, hidden)
        c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = GateCache(z=z, w=w, i=i, f=f, o=o, g=g, c_prev=c_prev, tanh_c=tanh_c)
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

    def __post_init__(self):
        check_int("hidden size", self.hidden_size, 1)
        check_int("layer count", self.num_layers, 1)
        check_int("epochs", self.epochs, 0)
        check_int("batch size", self.batch_size, 1)
        check_positive("learning rate", self.learning_rate)
        if self.sequence_layout not in LAYOUTS:
            raise ConfigError(
                f"sequence layout must be one of {LAYOUTS}, got "
                f"{self.sequence_layout!r}"
            )
        check_positive("clip threshold", self.clip_threshold, optional=True)


@dataclass
class LstmClassifier:
    cells: list  # LstmCell per layer, input side first
    head: DenseLayer
    config: LstmConfig

    @property
    def param_count(self) -> int:
        return sum(c.param_count for c in self.cells) + self.head.param_count

    def params(self) -> list:
        return [p for cell in self.cells for p in cell.params()] + \
            self.head.params()


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


def sequence_forward(model: LstmClassifier, sequences: np.ndarray):
    """Run the stack over a (m, T, d) batch of sequences.

    States start at zero. The softmax head reads the last layer's final
    hidden state. Returns ((m, k) probs, caches).
    """
    sequences = np.asarray(sequences, dtype=np.float64)
    if sequences.ndim != 3:
        raise ShapeMismatch(f"expected (m, T, d) sequences, got {sequences.shape}")
    _, time_steps, width = sequences.shape
    if time_steps == 0:
        raise EmptyData("sequences must have at least one step")
    if width != model.cells[0].input_size:
        raise ShapeMismatch(
            f"step width {width} != first cell input {model.cells[0].input_size}"
        )
    layer_steps = []
    inputs = [sequences[:, t, :] for t in range(time_steps)]
    for cell in model.cells:
        h = c = None
        caches = []
        outputs = []
        for x_t in inputs:
            h, c, cache = cell_forward(cell, x_t, h, c)
            caches.append(cache)
            outputs.append(h)
        layer_steps.append(caches)
        inputs = outputs
    probs, head_cache = dense_forward(model.head, inputs[-1])
    return probs, SequenceCaches(steps=layer_steps, head_cache=head_cache)


def sequence_backward(model: LstmClassifier, caches: SequenceCaches,
                      grad_logits: np.ndarray,
                      clip_threshold: float | None = None, out=None):
    """Full BPTT from the head gradient back through every step and layer.

    ``grad_logits`` is the (m, k) loss gradient at the head pre-activation,
    e.g. the (p - y) / m term from :func:`ransomflow.nn.cross_entropy_loss`.
    Returns (grads, global_norm) with grads aligned to ``model.params()``.
    When ``clip_threshold`` is set and the global L2 norm exceeds it, all
    grads are rescaled to that norm; the returned value is the norm of the
    returned grads.

    Training passes ``out``, Adam's gradient views of the trained parts, to
    be filled in place of the full grads, and gets a norm only if it clips.
    """
    time_steps, m = len(caches.steps[0]), grad_logits.shape[0]
    # the full grads are built only without ``out``, or to clip them
    full = out is None or clip_threshold is not None
    slices = trained_slices(model, time_steps) if full else None
    parts = out or [np.empty_like(p[s]) for p, s in zip(model.params(), slices)]
    grad_h_final = dense_backward_preact(model.head, caches.head_cache,
                                         grad_logits, parts[-2:])[0]
    # dh arriving at each step of the current layer from the layer above.
    upper = [0.0] * (time_steps - 1) + [grad_h_final]
    for layer_index in range(len(model.cells) - 1, -1, -1):
        cell = model.cells[layer_index]
        step_caches = caches.steps[layer_index]
        hidden = cell.hidden_size
        # all of w and b with several steps, which each step adds into;
        # else just their live rows, which the one step writes
        gw, gb = parts[2 * layer_index:2 * layer_index + 2]
        if time_steps > 1:
            gw.fill(0.0)
            gb.fill(0.0)
        grad_h_next = grad_c_next = 0.0
        lower = []
        for t in range(time_steps - 1, -1, -1):
            cache = step_caches[t]
            grad_h = upper[t] + grad_h_next
            grad_c = grad_c_next + grad_h * cache.o * (1.0 - cache.tanh_c ** 2)
            # loss gradient at the pre-activations, gate blocks i | f | o | g;
            # a zero-state step has no forget block
            pre = np.empty((m, (3 if cache.f is None else 4) * hidden))
            blocks = gate_blocks(pre, hidden)
            np.multiply(grad_c * cache.g * cache.i, 1.0 - cache.i, out=blocks[0])
            np.multiply(grad_h * cache.tanh_c * cache.o, 1.0 - cache.o,
                        out=blocks[-2])
            np.multiply(grad_c * cache.i, 1.0 - cache.g ** 2, out=blocks[-1])
            if cache.f is None:
                # first step: no forget gate, and no earlier state to pass a
                # gradient back to
                dw = np.matmul(pre.T, cache.z, out=gw if time_steps == 1 else None)
                db = np.sum(pre, axis=0, out=gb if time_steps == 1 else None)
                if time_steps > 1:  # whole gw and gb: add to their live rows
                    rows = live_rows(hidden)
                    gw[rows, hidden:] += dw
                    gb[rows] += db
                if layer_index:
                    lower.append(pre @ cache.w)
                continue
            np.multiply(grad_c * cache.c_prev * cache.f, 1.0 - cache.f,
                        out=blocks[1])
            gb += pre.sum(axis=0)
            gw += pre.T @ cache.z
            grad_c_next = grad_c * cache.f
            if layer_index:
                grad_z = pre @ cache.w
                grad_h_next = grad_z[:, :hidden]
                lower.append(grad_z[:, hidden:])
            else:  # the raw input needs no gradient
                grad_h_next = pre @ cache.w[:, :hidden]
        upper = lower[::-1]
    if not full:
        return out, None
    grads = [np.zeros_like(p) for p in model.params()]
    for g, s, part in zip(grads, slices, parts):
        g[s] = part
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if clip_threshold is not None and norm > clip_threshold:
        for g in out or grads:
            g *= clip_threshold / norm
        norm = clip_threshold
    return out or grads, norm


def create_classifier(input_dim: int, k_classes: int, config: LstmConfig,
                      seed: int) -> LstmClassifier:
    """Fresh stack with Glorot gates drawn from ``seed`` and zero biases."""
    if k_classes < 2:
        raise DegenerateClasses(f"need at least 2 classes, got {k_classes}")
    cells = []
    step_width = input_dim
    for layer_index in range(config.num_layers):
        cells.append(LstmCell.create(
            step_width, config.hidden_size,
            rng.derive(seed, "cell", layer_index),
        ))
        step_width = config.hidden_size
    head = DenseLayer.create(config.hidden_size, k_classes, "softmax",
                             rng.derive(seed, "head"))
    return LstmClassifier(cells=cells, head=head, config=config)


def trained_slices(model: LstmClassifier, time_steps: int) -> list:
    """Per array of ``model.params()``, the index of the part training steps.

    With one step per sequence every cell runs from zero state, so only the
    i | o | g rows of the input block w[:, H:] and of b are live; the
    recurrent block and the forget rows keep their seeded values. Otherwise
    all of w and b are. The head is live."""
    hidden = model.config.hidden_size
    rows = live_rows(hidden)
    cell = [(rows, np.s_[hidden:]), rows] if time_steps == 1 else [np.s_[...]] * 2
    return cell * len(model.cells) + [np.s_[...]] * 2


def train_classifier(x: np.ndarray, y: np.ndarray, config: LstmConfig,
                     seed: int, k_classes: int):
    """Mini-batch Adam training through :func:`ransomflow.nn.train_epochs`.

    Labels ``y`` must fall inside [0, k_classes). ``seed`` draws the initial
    weights and the batch order. Returns (model, records), a
    :class:`ransomflow.nn.EpochRecord` of each epoch's mean loss and accuracy.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    check_labeled_rows(x, y, k_classes)
    sequences = to_sequences(x, config.sequence_layout)
    model = create_classifier(sequences.shape[2], k_classes, config, seed)
    live = trained_slices(model, sequences.shape[1])
    optimizer = Adam([p[s] for p, s in zip(model.params(), live)],
                     config.learning_rate)
    # the model trains Adam's views, a one-step cell just its live rows
    views = iter(optimizer.params)
    for cell in model.cells:
        if sequences.shape[1] == 1:
            cell.live = next(views), next(views)
        else:
            cell.w, cell.b = next(views), next(views)
    model.head.weights, model.head.biases = next(views), next(views)

    def batch_step(idx):
        labels = y[idx]
        probs, caches = sequence_forward(model, sequences[idx])
        loss, grad_logits = cross_entropy_loss(probs, labels)
        sequence_backward(model, caches, grad_logits, config.clip_threshold,
                          optimizer.grads)
        return loss, int((probs.argmax(axis=1) == labels).sum())

    records = train_epochs("LSTM training", optimizer, batch_step,
                           x.shape[0], config.batch_size, seed, config.epochs)
    for p, s, view in zip(model.params(), live, optimizer.params):
        p[s] = view
    for cell in model.cells:
        cell.live = None
    return model, records


def predict_proba(model: LstmClassifier, x: np.ndarray) -> np.ndarray:
    """Class probabilities for (n, d) feature rows.

    The rows run in the chunks of :func:`ransomflow.nn.row_chunks`, which
    bound the cached gate values; each row's probabilities equal those of
    one :func:`sequence_forward` over all rows.
    """
    sequences = to_sequences(x, model.config.sequence_layout)
    probs = np.empty((sequences.shape[0], model.head.out_dim))
    for rows in row_chunks(sequences.shape[0]):
        probs[rows] = sequence_forward(model, sequences[rows])[0]
    return probs


def predict(model: LstmClassifier, x: np.ndarray) -> np.ndarray:
    """Most probable class per row; ties resolve to the lowest index."""
    return predict_proba(model, x).argmax(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model: LstmClassifier, features: int) -> dict:
    """The parts of ``model``, trained on ``features``-wide rows, that
    training changed; :func:`model_from_dict` derives the rest."""
    steps = to_sequences(np.empty((0, features)),
                         model.config.sequence_layout).shape[1]
    # the cells' trained parts; the head, last, trains whole
    views = iter(p[s] for p, s in zip(model.params(),
                                      trained_slices(model, steps)))
    return {
        "cells": [{"w": array_doc(next(views), "lstm cell w"),
                   "b": array_doc(next(views), "lstm cell b")}
                  for _ in model.cells],
        "head": layer_to_dict(model.head),
    }


def model_from_dict(doc: dict, config: LstmConfig, features: int,
                    k_classes: int, seed: int) -> LstmClassifier:
    """The seeded classifier ``train_classifier`` starts from, with the parts
    ``doc`` stores written in; :class:`SchemaMismatch` unless each stored
    part has the shape of the part training changes."""
    _, steps, width = to_sequences(np.empty((0, features)),
                                   config.sequence_layout).shape
    model = create_classifier(width, k_classes, config, seed)
    require_keys(doc, ("cells", "head"), "lstm")
    stored = [a for cell in doc["cells"] for a in (cell["w"], cell["b"])]
    for cell in doc["cells"]:
        require_keys(cell, ("w", "b"), "lstm cell")
    stored = [*map(array_from_doc, stored),
              *layer_from_dict(doc["head"], "softmax").params()]
    params = model.params()
    if len(stored) != len(params):
        raise SchemaMismatch(f"{len(doc['cells'])} stored cells for "
                             f"{config.num_layers} lstm layers")
    for p, s, part in zip(params, trained_slices(model, steps), stored):
        if part.shape != p[s].shape:
            raise SchemaMismatch(f"stored lstm parameter shape {part.shape} "
                                 f"!= {p[s].shape}")
        p[s] = part
    return model


def history_csv(records) -> str:
    return records_csv(records, epoch="step", loss="loss", accuracy="accuracy")
