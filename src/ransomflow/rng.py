"""Deterministic randomness built on a counter-based splitmix64 stream.

All stochastic steps in the pipeline (weight init, shuffling, splitting,
subsampling) draw from this module so that results are bit-identical across
runs, processes, and platforms. The generator is stateless: output i of a
stream is a pure function of (seed, i), which keeps parallel consumers
independent and makes derived seeds cheap.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z):
    """splitmix64's output mix of an int, or elementwise of a uint64 array
    (whose products wrap mod 2**64 unasked)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def splitmix64(seed: int, n: int) -> np.ndarray:
    """First n outputs of the splitmix64 stream for ``seed``, as uint64."""
    counters = np.arange(1, n + 1, dtype=np.uint64)
    return _mix(np.uint64(seed & _MASK) + counters * np.uint64(_GOLDEN))


def uniform(seed: int, shape: tuple) -> np.ndarray:
    """Uniform float64 samples in [0, 1) with 53-bit resolution."""
    bits = splitmix64(seed, math.prod(shape)) >> np.uint64(11)
    return (bits.astype(np.float64) / float(1 << 53)).reshape(shape)


def uniform_signed(seed: int, shape: tuple, bound: float) -> np.ndarray:
    """Uniform samples in [-bound, bound)."""
    return (2.0 * uniform(seed, shape) - 1.0) * bound


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n) via key sorting.

    The keys never tie (splitmix64 maps distinct counters through a
    bijection), so numpy's default sort gives the one stable order.
    """
    return np.argsort(splitmix64(seed, n))


def epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    """Row indices of each mini-batch of one epoch, in a seeded random order."""
    order = permutation(derive(seed, "epoch", epoch), n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def derive(seed: int, *tokens) -> int:
    """Stable child seed from a parent seed and a label path.

    Tokens are folded into the state byte by byte so that ("a", "bc") and
    ("ab", "c") land on different streams.
    """
    state = _mix(seed & _MASK)
    for token in tokens:
        state = _mix(state ^ 0xFF)
        for byte in str(token).encode("utf-8"):
            state = _mix(state ^ byte)
    return state
