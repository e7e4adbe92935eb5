"""Determinism and distribution sanity for the seeded stream."""

import numpy as np

from ransomflow import rng


def test_stream_is_reproducible_and_seed_sensitive():
    a = rng.splitmix64(42, 100)
    b = rng.splitmix64(42, 100)
    c = rng.splitmix64(43, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_extension_is_a_prefix():
    short = rng.splitmix64(7, 10)
    long = rng.splitmix64(7, 50)
    assert np.array_equal(short, long[:10])


def test_uniform_range_and_shape():
    u = rng.uniform(3, (200, 4))
    assert u.shape == (200, 4)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # crude flatness: mean of many uniforms close to 0.5
    assert abs(u.mean() - 0.5) < 0.05


def test_uniform_signed_bound():
    u = rng.uniform_signed(5, (300,), 0.25)
    assert np.abs(u).max() <= 0.25


def test_permutation_is_a_permutation():
    for seed in (1, 2, 9):
        p = rng.permutation(seed, 257)
        assert np.array_equal(np.sort(p), np.arange(257))
    assert not np.array_equal(rng.permutation(1, 257), rng.permutation(2, 257))


def test_derive_separates_token_paths():
    assert rng.derive(1, "a", "bc") != rng.derive(1, "ab", "c")
    assert rng.derive(1, "x") != rng.derive(2, "x")
    assert rng.derive(5, "epoch", 1) == rng.derive(5, "epoch", 1)
    assert rng.derive(5, "epoch", 1) != rng.derive(5, "epoch", 2)


def test_epoch_batches_cover_the_epoch_permutation():
    batches = list(rng.epoch_batches(10, 4, 5, 2))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert np.array_equal(np.concatenate(batches),
                          rng.permutation(rng.derive(5, "epoch", 2), 10))


def test_permutation_is_the_stable_key_order():
    keys = rng.splitmix64(11, 5000)
    assert np.array_equal(rng.permutation(11, 5000),
                          np.argsort(keys, kind="stable"))

