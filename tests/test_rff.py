"""Random cosine feature maps: prefix stability, values, sampling distribution."""

from __future__ import annotations

import math

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from smootherlab import rff
from smootherlab.errors import ValidationError
from smootherlab.rff import BLOCK, DEFAULT_SCALE, sample_frequencies, transform


def test_default_scale():
    assert DEFAULT_SCALE == 0.2


def test_prefix_stability_bitwise():
    wide = sample_frequencies(0, 100, 7)
    narrow = sample_frequencies(0, 23, 7)
    assert np.array_equal(wide.frequencies[:23], narrow.frequencies)


def test_different_seeds_differ():
    a = sample_frequencies(0, 10, 4)
    b = sample_frequencies(1, 10, 4)
    assert not np.array_equal(a.frequencies, b.frequencies)


def test_transform_matches_elementwise_cosine():
    fmap = sample_frequencies(3, 5, 2)
    X = np.array([[0.1, -0.4], [2.0, 0.0], [0.0, 0.0]])
    Phi = transform(fmap, X, 5)
    for i in range(3):
        for p in range(5):
            direct = math.cos(float(np.dot(fmap.frequencies[p], X[i])))
            assert abs(Phi[i, p] - direct) <= 1e-12


def test_transform_at_origin_is_one():
    fmap = sample_frequencies(0, 8, 3)
    Phi = transform(fmap, np.zeros((2, 3)), 8)
    assert np.array_equal(Phi, np.ones((2, 8)))


def test_transform_known_frequency(monkeypatch):
    monkeypatch.setattr(rff, "_frequency_row", lambda seed, row, d, scale: np.array([np.pi, 0.0]))
    fmap = sample_frequencies(0, 1, 2, scale=1.0)
    Phi = transform(fmap, np.array([[1.0, 5.0], [0.5, -2.0]]), 1)
    assert np.allclose(Phi[:, 0], [math.cos(math.pi), math.cos(math.pi / 2)], atol=1e-15)


def test_transform_prefix_consistency():
    fmap = sample_frequencies(2, 12, 3)
    X = np.random.default_rng(1).normal(size=(6, 3))
    assert np.array_equal(transform(fmap, X, 4), transform(fmap, X, 12)[:, :4])


def test_frequencies_are_write_locked():
    fmap = sample_frequencies(0, 4, 2)
    with pytest.raises((ValueError, RuntimeError)):
        fmap.frequencies[0, 0] = 99.0


def test_sampling_moments():
    # enough entries that the MC std of N(0, scale^2) lands within 1%
    fmap = sample_frequencies(5, 1500, 700)
    draws = fmap.frequencies.ravel()
    assert draws.size >= 1_000_000
    assert abs(draws.std() - DEFAULT_SCALE) <= 0.01 * DEFAULT_SCALE
    assert abs(draws.mean()) <= 5.0 * DEFAULT_SCALE / np.sqrt(draws.size)


def test_custom_scale():
    fmap = sample_frequencies(5, 400, 300, scale=1.5)
    assert abs(fmap.frequencies.std() - 1.5) <= 0.03 * 1.5
    assert fmap.scale == 1.5


def test_validation():
    with pytest.raises(ValidationError):
        sample_frequencies(0, 0, 3)
    with pytest.raises(ValidationError):
        sample_frequencies(0, 3, 0)
    with pytest.raises(ValidationError):
        sample_frequencies(0, 3, 3, scale=0.0)
    fmap = sample_frequencies(0, 3, 2)
    with pytest.raises(ValidationError):
        transform(fmap, np.zeros((2, 2)), 4)
    with pytest.raises(ValidationError):
        transform(fmap, np.zeros((2, 2)), 0)
    with pytest.raises(ValidationError):
        transform(fmap, np.zeros((2, 3)), 2)


@pytest.mark.parametrize(
    "args, name",
    [((-1, 3, 2), "seed"), ((1.0, 3, 2), "seed"), (("3", 3, 2), "seed"),
     ((None, 3, 2), "seed"), ((0, 2.5, 2), "p_max"), ((0, 3, 2.0), "d")],
)
def test_bad_arguments_fail_when_the_map_is_built(args, name):
    # rows are drawn later, maybe in a pool worker: a bad seed must not get that far
    with pytest.raises(ValidationError, match=name):
        sample_frequencies(*args)


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(min_value=0, max_value=2**63),
    full_blocks=st.integers(min_value=0, max_value=2),
    rest=st.integers(min_value=0, max_value=BLOCK - 1),
    d=st.integers(min_value=1, max_value=4),
)
@example(seed=3, full_blocks=1, rest=5, d=2)  # a partial last block
def test_blocks_are_drawn_by_row_on_first_read(seed, full_blocks, rest, d):
    p_max = full_blocks * BLOCK + rest
    if p_max == 0:
        return
    starts = range(0, p_max, BLOCK)
    reference = np.stack([rff._frequency_row(seed, p, d, 0.5) for p in range(p_max)])
    with mock.patch.object(rff, "_frequency_row", wraps=rff._frequency_row) as draws:
        fmap = sample_frequencies(seed, p_max, d, scale=0.5)
        fresh = sample_frequencies(seed, p_max, d, scale=0.5)
        assert draws.call_count == 0
        assert fmap == fresh and hash(fmap) == hash(fresh)
        for start in reversed(starts):
            rows = fmap.block(start)
            assert rows.tobytes() == reference[start : start + BLOCK].tobytes()
            assert not rows.flags.writeable
        joined = fmap.frequencies
        assert draws.call_count == p_max  # each row drawn once, then memoized
        # maps that differ only in the blocks they have drawn are equal
        assert fmap == fresh and hash(fmap) == hash(fresh)
        for start in starts:
            rows = sample_frequencies(seed, p_max, d, scale=0.5).block(start)
            assert rows.tobytes() == reference[start : start + BLOCK].tobytes()
    assert joined.tobytes() == reference.tobytes()
    with pytest.raises(ValueError):
        joined[0, 0] = 1.0


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    p_small=st.integers(min_value=1, max_value=6),
    p_large=st.integers(min_value=6, max_value=20),
)
def test_nested_maps_share_prefix(seed, p_small, p_large):
    small = sample_frequencies(seed, p_small, 3)
    large = sample_frequencies(seed, p_large, 3)
    assert np.array_equal(large.frequencies[:p_small], small.frequencies)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_features_bounded(seed):
    fmap = sample_frequencies(seed, 6, 2)
    X = np.random.default_rng(seed).normal(size=(5, 2)) * 10.0
    Phi = transform(fmap, X, 6)
    assert np.all(np.abs(Phi) <= 1.0)
