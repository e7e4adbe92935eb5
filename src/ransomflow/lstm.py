"""LSTM classifier trained with full backpropagation through time.

Each cell keeps its four gates fused in one weight matrix ``w`` of shape
(4 * hidden, hidden + input) and one bias ``b`` of length 4 * hidden. The row
blocks are the input, forget, output and candidate gates, in that order; the
columns multiply the concatenation z = [h_prev | x_t], recurrent block first.
One matmul gives every gate pre-activation:

    [a_i | a_f | a_o | a_g] = z @ w.T + b
    i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o)      g = tanh(a_g)
    c_t = f * c_prev + i * g      h_t = o * tanh(c_t)

The product is (m, 4H), so each gate is a strided column block of it, and
numpy runs an elementwise op over such a block row by row. Each step
therefore copies it once into a contiguous gate-major (G, m, H) array, G
being 4 here and 3 on the one-step cell below, adds b and activates it
there (:func:`cell_step`): every later read of a gate, forward and in
BPTT, is contiguous. The copy changes no value, and the product keeps its
operands, so the results are those of the fused layout bit for bit.

Every sequence starts from h = c = 0, so each layer's first step is a
zero-state step. It has no h_prev, so it multiplies x_t, D wide, by the input
block w[:, -D:] alone and adds all of b; and c_t = i * g, since the forget
gate has no c_prev to scale. A full cell still activates that gate there,
and nothing reads it: the backward pass writes 0.0 for its pre-activation,
so the step adds gradient into w[:, -D:] and b, the forget rows getting
exactly 0. With one step per sequence (the default layout) every step is
such a step, so training keeps only what a step reads: a one-step cell
(``LstmCell.one_step``) is the i | o | g rows of the input block, w of shape
(3H, D) and b of 3H, and the same code runs it. Adam trains the cells and
the head whole, and a bundle stores them as they are.

Tabular rows are fed either as one step carrying all features (the default)
or as one step per feature. A softmax head reads the final hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, SchemaMismatch, check_int, check_positive
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
    # a cell whose every step starts from the zero state keeps just what
    # such a step reads: w[live, H:] (3 * hidden, input) and b[live]
    one_step: bool = False

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
        return self.w.shape[0] // (3 if self.one_step else 4)

    def params(self) -> list:
        return [self.w, self.b]


def gate_blocks(a: np.ndarray, hidden: int) -> list:
    """The ``hidden``-wide column blocks of ``a``, as views."""
    return [a[:, j:j + hidden] for j in range(0, a.shape[1], hidden)]


@dataclass
class GateCache:
    """Forward values one step of BPTT needs; the gates are the blocks of one
    contiguous gate-major array."""

    z: np.ndarray          # [h_prev | x_t], or x_t alone on a zero-state step
    w: np.ndarray          # the view of w that z multiplied: step_weights
    i: np.ndarray
    f: np.ndarray | None   # None on a one-step cell; unread on the zero state
    o: np.ndarray
    g: np.ndarray
    c_prev: np.ndarray | None  # None marks a zero-state step
    tanh_c: np.ndarray


def step_weights(cell: LstmCell, z: np.ndarray) -> np.ndarray:
    """The columns of ``w`` that multiply a step's input ``z``, as a view: all
    of them for [h_prev | x_t], the input block alone for the x_t of a
    zero-state step (all of a one-step cell)."""
    return cell.w[:, -z.shape[1]:]


def cell_step(a: np.ndarray, b: np.ndarray, c_prev: np.ndarray | None,
              acts: np.ndarray):
    """The cell equations on the fused product ``a`` = z @ w.T of m rows.

    Writes ``a + b`` into ``acts``, a contiguous (G, m, H) array with one
    gate per block, and activates it there, so that every gate is read
    contiguously. G is 4 (i | f | o | g), or 3 (i | o | g) on a one-step
    cell. ``c_prev`` None is the zero state, where the forget gate has
    nothing to scale and c = i * g. Returns (h, c, tanh(c)).
    """
    gates, m, hidden = acts.shape
    np.copyto(acts, a.reshape(m, gates, hidden).transpose(1, 0, 2))
    acts += b.reshape(gates, 1, hidden)
    # every gate but the last, the candidate g, is a sigmoid
    sigmoid(acts[:-1], out=acts[:-1])
    np.tanh(acts[-1], out=acts[-1])
    c = acts[0] * acts[-1]
    if c_prev is not None:
        c += acts[1] * c_prev
    tanh_c = np.tanh(c)
    return acts[-2] * tanh_c, c, tanh_c


def cell_forward(cell: LstmCell, x_t: np.ndarray, h_prev: np.ndarray | None,
                 c_prev: np.ndarray | None):
    """One LSTM step. Accepts single vectors or (m, dim) batches.

    The two states come together. ``h_prev = c_prev = None`` is the zero
    state: x_t alone multiplies the input block of ``w``. Returns
    (h, c, cache).
    """
    single = x_t.ndim == 1
    if single:
        x_t = x_t[None, :]
        if c_prev is not None:
            h_prev, c_prev = h_prev[None, :], c_prev[None, :]
    z = x_t if c_prev is None else np.concatenate([h_prev, x_t], axis=1)
    w = step_weights(cell, z)
    acts = np.empty((cell.b.size // cell.hidden_size, x_t.shape[0],
                     cell.hidden_size))
    h, c, tanh_c = cell_step(z @ w.T, cell.b, c_prev, acts)
    i, *f, o, g = acts
    cache = GateCache(z=z, w=w, i=i, f=f[0] if f else None, o=o, g=g,
                      c_prev=c_prev, tanh_c=tanh_c)
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

    def params(self) -> list:
        return [p for cell in self.cells for p in cell.params()] + \
            self.head.params()


def to_sequences(x: np.ndarray, layout: str) -> np.ndarray:
    """Reshape (n, d) feature rows into (n, T, step_dim) sequences."""
    if layout == "single-step":
        return x[:, None, :]
    return x[:, :, None]  # feature-steps


@dataclass
class SequenceCaches:
    steps: list       # per layer: list of GateCache per time step
    head_cache: object


def sequence_forward(model: LstmClassifier, sequences: np.ndarray):
    """Run the stack over a (m, T, d) batch of sequences.

    States start at zero. The softmax head reads the last layer's final
    hidden state. Returns ((m, k) probs, caches).
    """
    time_steps = sequences.shape[1]
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
                      grad_logits: np.ndarray, clip_threshold: float | None,
                      out: list | None):
    """Full BPTT from the head gradient back through every step and layer.

    ``grad_logits`` is the (m, k) loss gradient at the head pre-activation,
    e.g. the (p - y) / m term from :func:`ransomflow.nn.cross_entropy_loss`.
    Returns (grads, global_norm) with grads aligned to ``model.params()``.
    When ``clip_threshold`` is set and the global L2 norm exceeds it, all
    grads are rescaled to that norm; the returned value is the norm of the
    returned grads.

    Training passes ``out``, Adam's gradient views, to be filled in place of
    new grads, and gets a norm only if it clips.
    """
    time_steps, m = len(caches.steps[0]), grad_logits.shape[0]
    grads = out or [np.empty_like(p) for p in model.params()]
    grad_h_final = dense_backward_preact(model.head, caches.head_cache,
                                         grad_logits, grads[-2:])[0]
    # dh arriving at each step of the current layer from the layer above.
    upper = [0.0] * (time_steps - 1) + [grad_h_final]
    for layer_index in range(len(model.cells) - 1, -1, -1):
        cell = model.cells[layer_index]
        step_caches = caches.steps[layer_index]
        hidden = cell.hidden_size
        # each step adds into the columns of gw its weights came from
        gw, gb = grads[2 * layer_index:2 * layer_index + 2]
        gw.fill(0.0)
        gb.fill(0.0)
        lower = []
        for t in range(time_steps - 1, -1, -1):
            cache = step_caches[t]
            i, f, o, g = cache.i, cache.f, cache.o, cache.g
            # the last step has no later step to take a gradient from
            last = t == time_steps - 1
            grad_h = upper[t] if last else upper[t] + grad_h_next
            # grad_c = grad_h * o * (1 - tanh_c ** 2) [+ grad_c_next], and each
            # gate block below = (the terms upstream of the gate) * (its
            # activation's slope); t1 and t2 hold the two factors
            grad_c, t1, t2 = np.empty((3, m, hidden))
            np.multiply(grad_h, o, out=grad_c)
            grad_c *= np.subtract(1.0, np.square(cache.tanh_c, out=t2), out=t2)
            if not last:
                grad_c += grad_c_next
            # loss gradient at the pre-activations, gate blocks i | f | o | g,
            # or i | o | g on a one-step cell
            pre = np.empty((m, cell.b.size))
            blocks = gate_blocks(pre, hidden)
            np.multiply(np.multiply(grad_c, g, out=t1), i, out=t1)
            np.multiply(t1, np.subtract(1.0, i, out=t2), out=blocks[0])
            np.multiply(np.multiply(grad_h, cache.tanh_c, out=t1), o, out=t1)
            np.multiply(t1, np.subtract(1.0, o, out=t2), out=blocks[-2])
            np.multiply(grad_c, i, out=t1)
            np.subtract(1.0, np.square(g, out=t2), out=t2)
            np.multiply(t1, t2, out=blocks[-1])
            if cache.c_prev is None:
                # the zero state: a full cell's forget gate scaled c_prev = 0
                # (a one-step cell's slice is empty)
                pre[:, hidden:-2 * hidden] = 0.0
            else:
                np.multiply(np.multiply(grad_c, cache.c_prev, out=t1), f,
                            out=t1)
                np.multiply(t1, np.subtract(1.0, f, out=t2), out=blocks[1])
                grad_c_next = grad_c * f
            gb += pre.sum(axis=0)
            gw[:, -cache.z.shape[1]:] += pre.T @ cache.z
            if layer_index:  # x_t is the h of the layer below
                grad_z = pre @ cache.w
                # h_prev's columns: none on the first step, whose grad_h_next
                # nothing reads
                grad_h_next = grad_z[:, :-hidden]
                lower.append(grad_z[:, -hidden:])
            elif t:  # the raw input needs no gradient
                grad_h_next = pre @ cache.w[:, :hidden]
        upper = lower[::-1]
    if out is not None and clip_threshold is None:
        return out, None
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if clip_threshold is not None and norm > clip_threshold:
        for g in grads:
            g *= clip_threshold / norm
        norm = clip_threshold
    return grads, norm


def create_classifier(input_dim: int, k_classes: int, config: LstmConfig,
                      seed: int) -> LstmClassifier:
    """Fresh stack with Glorot gates drawn from ``seed`` and zero biases."""
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


def train_classifier(x: np.ndarray, y: np.ndarray, config: LstmConfig,
                     seed: int, k_classes: int):
    """Mini-batch Adam training through :func:`ransomflow.nn.train_epochs`.

    Labels ``y`` fall inside [0, k_classes), and k_classes >= 2. ``seed``
    draws the initial weights and the batch order. Returns (model, records), a
    :class:`ransomflow.nn.EpochRecord` of each epoch's mean loss and accuracy.
    """
    sequences = to_sequences(x, config.sequence_layout)
    model = create_classifier(sequences.shape[2], k_classes, config, seed)
    if sequences.shape[1] == 1:
        # every step starts from the zero state, which reads no forget row
        # and no recurrent column
        forget = slice(config.hidden_size, 2 * config.hidden_size)
        model.cells = [
            LstmCell(np.delete(cell.w[:, config.hidden_size:], forget, axis=0),
                     np.delete(cell.b, forget), one_step=True)
            for cell in model.cells]
    optimizer = Adam(model.params(), config.learning_rate)
    # the model trains Adam's views
    views = iter(optimizer.params)
    for cell in model.cells:
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
    return model, records


# Rows per slice of a predict chunk's gate arithmetic: a slice's gates stay
# in the CPU's cache while the cell equations read them.
SLICE_ROWS = 256


def predict_proba(model: LstmClassifier, x: np.ndarray) -> np.ndarray:
    """Class probabilities for (n, d) feature rows, keeping no cache.

    The rows run in the chunks of :func:`ransomflow.nn.row_chunks`, and each
    step multiplies a whole chunk, as :func:`sequence_forward` over all rows
    would, so each row's probabilities equal that forward's. The cell
    equations then run over slices of at most :data:`SLICE_ROWS` rows.
    """
    sequences = to_sequences(x, model.config.sequence_layout)
    probs = np.empty((sequences.shape[0], model.head.out_dim))
    acts = np.empty(4 * SLICE_ROWS * model.config.hidden_size)
    for rows in row_chunks(sequences.shape[0]):
        probs[rows] = _chunk_proba(model, sequences[rows], acts)
    return probs


def _chunk_proba(model: LstmClassifier, sequences: np.ndarray,
                 acts: np.ndarray) -> np.ndarray:
    """Class probabilities of a chunk of (m, T, d) sequences; ``acts`` holds
    the activated gates of one slice at a time."""
    hidden = model.config.hidden_size
    inputs = list(sequences.transpose(1, 0, 2))
    for cell in model.cells:
        h = c = None
        outputs = []
        for x_t in inputs:
            z = x_t if c is None else np.concatenate([h, x_t], axis=1)
            a = z @ step_weights(cell, z).T
            h, c_next = np.empty((2, a.shape[0], hidden))
            for start in range(0, a.shape[0], SLICE_ROWS):
                s = slice(start, start + SLICE_ROWS)
                m = a[s].shape[0]
                h[s], c_next[s], _ = cell_step(
                    a[s], cell.b, None if c is None else c[s],
                    acts[:cell.b.size * m].reshape(-1, m, hidden))
            c = c_next
            outputs.append(h)
        inputs = outputs
    return dense_forward(model.head, inputs[-1])[0]


def predict(model: LstmClassifier, x: np.ndarray) -> np.ndarray:
    """Most probable class per row; ties resolve to the lowest index."""
    return predict_proba(model, x).argmax(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Serialization


def model_to_dict(model: LstmClassifier) -> dict:
    """The cells' and the head's weights and biases; whether a cell is
    one-step follows from the layout setting."""
    return {
        "cells": [{"w": array_doc(cell.w, "lstm cell w"),
                   "b": array_doc(cell.b, "lstm cell b")}
                  for cell in model.cells],
        "head": layer_to_dict(model.head),
    }


def model_from_dict(doc: dict, config: LstmConfig, features: int,
                    k_classes: int) -> LstmClassifier:
    """The classifier ``doc`` stores, for ``features``-wide rows;
    :class:`SchemaMismatch` unless each stored array has the shape that
    ``train_classifier`` gives it under ``config``: one-step cells when the
    layout gives one step per row."""
    _, steps, width = to_sequences(np.empty((0, features)),
                                   config.sequence_layout).shape
    require_keys(doc, ("cells", "head"), "lstm")
    for cell in doc["cells"]:
        require_keys(cell, ("w", "b"), "lstm cell")
    model = LstmClassifier(
        cells=[LstmCell(array_from_doc(cell["w"]), array_from_doc(cell["b"]),
                        one_step=steps == 1) for cell in doc["cells"]],
        head=layer_from_dict(doc["head"], "softmax"), config=config)
    if len(model.cells) != config.num_layers:
        raise SchemaMismatch(f"{len(model.cells)} stored cells for "
                             f"{config.num_layers} lstm layers")
    hidden = config.hidden_size
    # a one-step cell has no forget rows and no recurrent block
    rows, recurrent = (3 * hidden, 0) if steps == 1 else (4 * hidden, hidden)
    shapes = []
    for inputs in [width] + [hidden] * (config.num_layers - 1):
        shapes += [(rows, recurrent + inputs), (rows,)]
    shapes += [(k_classes, hidden), (k_classes,)]
    for p, shape in zip(model.params(), shapes):
        if p.shape != shape:
            raise SchemaMismatch(f"stored lstm parameter shape {p.shape} "
                                 f"!= {shape}")
    return model


def history_csv(records) -> str:
    return records_csv(records, epoch="step", loss="loss", accuracy="accuracy")
