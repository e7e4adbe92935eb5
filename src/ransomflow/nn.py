"""Dense layers, a cache-free chunked forward pass, losses, Adam and epoch
records.

Nothing here casts what it is given: arrays are float64 (labels int64) where
they are made, by ``rng.uniform``, ``serialize.array_from_doc``,
``dataset.label_encode``, ``normalize`` and the artifact's row store, and the
arrays this module allocates (``apply``'s output, Adam's buffer) are float64.
Weights use the (out_dim, in_dim) convention so a forward pass is
``x @ w.T + b`` on row-major batches. Initialization is Glorot-uniform with
bound sqrt(6 / (fan_in + fan_out)) drawn from the seeded stream in
:mod:`ransomflow.rng`; biases start at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import DataError
from .serialize import array_doc, array_from_doc, csv_text, require_keys

ACTIVATIONS = ("linear", "relu", "sigmoid", "tanh", "softmax")


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stabilized softmax."""
    shifted = z - z.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=-1, keepdims=True)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The tanh identity needs no exp, so it cannot overflow; ``out`` may be z.
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    return np.multiply(out, 0.5, out=out)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "tanh":
        return np.tanh(z)
    return softmax(z)


@dataclass
class DenseLayer:
    """Fully connected layer: out = act(x @ weights.T + biases)."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise DataError(f"weights must be 2-d, got {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise DataError(
                f"biases shape {self.biases.shape} does not match "
                f"{self.weights.shape[0]} output units"
            )

    @classmethod
    def create(cls, in_dim: int, out_dim: int, activation: str,
               seed: int) -> "DenseLayer":
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        weights = rng.uniform_signed(seed, (out_dim, in_dim), bound)
        return cls(weights, np.zeros(out_dim), activation)

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def params(self) -> list:
        return [self.weights, self.biases]


@dataclass
class BatchCache:
    """Values a backward pass needs from the matching forward pass."""

    inputs: np.ndarray
    pre_activation: np.ndarray
    output: np.ndarray


def _pre_activation(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    z = x @ layer.weights.T
    z += layer.biases
    return z


def dense_forward(layer: DenseLayer, x: np.ndarray):
    """Forward pass on a (m, in_dim) batch. Returns (output, cache)."""
    z = _pre_activation(layer, x)
    out = _activate(layer.activation, z)
    return out, BatchCache(inputs=x, pre_activation=z, output=out)


# Rows per chunk of a full-data pass. OpenBLAS rounds a product of a few rows
# through another kernel than a product of many, so a short tail chunk would
# change bits; every chunk holds at least this many rows or the whole input.
CHUNK_ROWS = 4096


def row_chunks(n: int) -> list:
    """Slices cutting ``n`` rows into max(1, n // CHUNK_ROWS) chunks of
    CHUNK_ROWS rows, the last also taking the remainder, so a row's result
    equals that of one product over all ``n`` rows."""
    starts = [i * CHUNK_ROWS for i in range(max(1, n // CHUNK_ROWS))]
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def apply(layers: list, x: np.ndarray, out: np.ndarray | None = None
          ) -> np.ndarray:
    """Forward pass of (n, d) rows through the dense ``layers`` in order,
    keeping no cache: chunk by chunk (:func:`row_chunks`) into one output,
    equal to chaining :func:`dense_forward`.

    ``out``, if given, receives the output; it may share the memory of
    ``x`` when it starts where ``x`` starts and its rows are no wider, since
    a chunk's output then covers only input rows already read.
    """
    if out is None:
        out = np.empty((x.shape[0], layers[-1].out_dim))
    for rows in row_chunks(x.shape[0]):
        current = x[rows]
        for layer in layers:
            current = _activate(layer.activation,
                                _pre_activation(layer, current))
        out[rows] = current
    return out


def _grad_pre_activation(layer: DenseLayer, cache: BatchCache,
                         grad_output: np.ndarray) -> np.ndarray:
    """Chain grad wrt output through the activation to grad wrt z."""
    act = layer.activation
    if act == "linear":
        return grad_output
    if act == "relu":
        return grad_output * (cache.pre_activation > 0.0)
    if act == "sigmoid":
        a = cache.output
        return grad_output * a * (1.0 - a)
    if act == "tanh":
        a = cache.output
        return grad_output * (1.0 - a * a)
    p = cache.output
    inner = (grad_output * p).sum(axis=1, keepdims=True)
    return p * (grad_output - inner)


def dense_backward(layer: DenseLayer, cache: BatchCache, grad_output: np.ndarray,
                   out, input_grad: bool):
    """Backprop through one layer.

    Returns (grad_input, grad_weights, grad_biases) for the batch the cache
    was built from; grad_input is None unless ``input_grad``, as for a layer
    whose input is data. ``grad_output`` is the loss gradient wrt the layer
    output. ``out``, a (weights, biases) pair of gradient views or of Nones,
    receives the last two.
    """
    grad_z = _grad_pre_activation(layer, cache, grad_output)
    return _backward_from_pre_activation(layer, cache, grad_z, out, input_grad)


def dense_backward_preact(layer: DenseLayer, cache: BatchCache,
                          grad_pre_activation: np.ndarray, out):
    """Backprop entry point for fused losses that differentiate wrt z directly.

    The softmax cross-entropy pairing produces (p - y) / n as the gradient at
    the pre-activation, so the softmax Jacobian must not be applied again.
    """
    return _backward_from_pre_activation(layer, cache, grad_pre_activation, out,
                                         True)


def _backward_from_pre_activation(layer, cache, grad_z, out, input_grad):
    grad_weights = np.matmul(grad_z.T, cache.inputs, out=out[0])
    grad_biases = np.sum(grad_z, axis=0, out=out[1])
    grad_input = grad_z @ layer.weights if input_grad else None
    return grad_input, grad_weights, grad_biases


# ---------------------------------------------------------------------------
# Losses


def mse_loss(predicted: np.ndarray, target: np.ndarray):
    """Batch-mean squared reconstruction error.

    loss = (1/m) * sum over the batch of the squared error of each row; the
    divisor is the row count m only, not the feature dimension.
    """
    m = predicted.shape[0]
    diff = predicted - target
    loss = float((diff * diff).sum() / m)
    diff *= 2.0 / m  # the gradient, in the difference's own buffer
    return loss, diff


def mean_log_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean of -log of each row's probability of its label, the probability
    clamped at 1e-12 so that a saturated row costs at most -log(1e-12)."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, 1e-12)).mean())


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray):
    """Mean categorical cross-entropy over integer labels in [0, k).

    Returns (loss, grad_logits): the :func:`mean_log_loss` and
    grad_logits = (probs - onehot) / n, the gradient wrt the softmax
    pre-activations, ready to feed into :func:`dense_backward_preact`.
    Rows that do not sum to 1, as a softmax over overflowed logits gives,
    raise :class:`DataError`.
    """
    n = probs.shape[0]
    # np.allclose(row_sums, 1.0, atol=1e-6) written out: atol plus the
    # default rtol 1e-5 times 1.0; NaN and inf sums compare False
    if not (np.abs(probs.sum(axis=1) - 1.0) <= 1e-6 + 1e-5).all():
        raise DataError("probability rows must sum to 1 within 1e-6")
    loss = mean_log_loss(probs, labels)
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizer


# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over one flat float64 buffer it allocates.

    ``params`` are the initial values, copied in once; the model then trains
    the views in :attr:`params` and writes each batch's gradient into the
    views in :attr:`grads`, and :meth:`step` rewrites the buffer in place.
    Each element is rounded exactly as a per-tensor update would round it.
    """

    def __init__(self, params, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        sizes = [np.size(p) for p in params]
        # the weights, their grads, the moments and two temporaries that
        # every step reuses
        self.p, self.g, self.m, self.v, self.m_hat, self.v_hat = \
            np.zeros((6, sum(sizes)))
        bounds = np.cumsum(sizes)[:-1]
        self.params = [part.reshape(np.shape(p)) for part, p in
                       zip(np.split(self.p, bounds), params)]
        self.grads = [part.reshape(view.shape) for part, view in
                      zip(np.split(self.g, bounds), self.params)]
        np.concatenate([np.ravel(p) for p in params], out=self.p)

    def step(self) -> None:
        """Update the weights from the gradient now in :attr:`grads`."""
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.t
        correction2 = 1.0 - ADAM_BETA2 ** self.t
        g, p, m, v, m_hat, v_hat = (self.g, self.p, self.m, self.v,
                                    self.m_hat, self.v_hat)
        # The textbook update, operation by operation in the same order,
        # written into the temporaries so the results stay bit-identical:
        #   m = b1 m + (1 - b1) g      v = b2 v + ((1 - b2) g) g
        #   p -= (lr * (m / c1)) / (sqrt(v / c2) + eps)
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=m_hat)
        m += m_hat
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=v_hat)
        v_hat *= g
        v += v_hat
        np.divide(m, correction1, out=m_hat)
        np.divide(v, correction2, out=v_hat)
        m_hat *= self.learning_rate
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPSILON
        m_hat /= v_hat
        p -= m_hat


def adam_over(layers, learning_rate: float) -> Adam:
    """Adam over the dense ``layers``' weights and biases, which then hold
    its views."""
    optimizer = Adam([p for layer in layers for p in layer.params()],
                     learning_rate)
    views = iter(optimizer.params)
    for layer in layers:
        layer.weights, layer.biases = next(views), next(views)
    return optimizer


class EpochRecord(NamedTuple):
    """One epoch of a training stage, or one boosting round."""

    stage: str
    layer: int | None  # the SAE layer an epoch pretrained, else None
    step: int
    loss: float
    accuracy: float | None  # None where the stage makes no predictions


def finite_loss(where: str, loss: float) -> float:
    """``loss``; :class:`DataError` naming ``where`` if it is not finite."""
    if not np.isfinite(loss):
        raise DataError(f"{where}: the loss is not finite")
    return loss


def records_csv(records, **columns) -> str:
    """One CSV row per record: the fields ``columns`` maps headers to."""
    return csv_text(columns, ([getattr(r, field) for field in columns.values()]
                              for r in records))


@np.errstate(all="ignore")  # the loss check reports overflow instead
def train_epochs(stage: str, optimizer: Adam, batch_step, n: int,
                 batch_size: int, seed: int, epochs: int,
                 stop_below: float | None = None) -> list:
    """Mini-batch Adam over ``n`` rows, reshuffled each epoch from ``seed``.

    ``batch_step(idx)`` writes the batch's gradient into ``optimizer.grads``
    and returns its mean loss and count of right predictions (None if none
    are made); ``optimizer.step()`` follows. Returns one :class:`EpochRecord`
    per epoch run, stopping after the first below ``stop_below``.

    A diverged run fails loudly: an epoch whose mean loss is not finite, or a
    :class:`DataError` from a batch step, raises :class:`DataError` naming
    ``stage`` and the epoch.
    """
    records = []
    for epoch in range(epochs):
        where = f"{stage}: epoch {epoch}"
        loss_sum, correct = 0.0, []
        try:
            for idx in rng.epoch_batches(n, batch_size, seed, epoch):
                loss, batch_correct = batch_step(idx)
                optimizer.step()
                loss_sum += loss * len(idx)
                correct.append(batch_correct)
        except DataError as exc:
            exc.args = (f"{where}: {exc}",)
            raise
        accuracy = None if correct[0] is None else sum(correct) / n
        records.append(EpochRecord(stage, None, epoch,
                                   finite_loss(where, loss_sum / n), accuracy))
        if stop_below is not None and records[-1].loss < stop_below:
            break
    return records


# ---------------------------------------------------------------------------
# Serialization


def layer_to_dict(layer: DenseLayer) -> dict:
    """The layer's weights and biases; its activation is a setting, which
    :func:`layer_from_dict` takes from the caller."""
    return {
        "weights": array_doc(layer.weights, "dense layer weights"),
        "biases": array_doc(layer.biases, "dense layer biases"),
    }


def layer_from_dict(doc: dict, activation: str) -> DenseLayer:
    require_keys(doc, ("weights", "biases"), "dense layer")
    return DenseLayer(
        array_from_doc(doc["weights"]),
        array_from_doc(doc["biases"]),
        activation,
    )
