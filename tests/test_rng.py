import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nibble_colour import rng


def test_uniforms_deterministic_and_in_range():
    a = rng.uniforms(123, rng.KIND_ACTIVATION, 0, 0, np.arange(1000), 7)
    b = rng.uniforms(123, rng.KIND_ACTIVATION, 0, 0, np.arange(1000), 7)
    assert np.array_equal(a, b)
    assert (a >= 0).all() and (a < 1).all()


def test_scalar_matches_vector_element():
    vec = rng.uniforms(9, rng.KIND_FLIP, 1, 2, np.arange(10), 5, 3)
    assert vec[4] == rng.uniform(9, rng.KIND_FLIP, 1, 2, 4, 5, 3)


def test_streams_separate_by_kind_seed_and_key():
    base = rng.uniform(1, rng.KIND_ACTIVATION, 0, 0, 5, 5)
    assert base != rng.uniform(1, rng.KIND_FLIP, 0, 0, 5, 5)
    assert base != rng.uniform(2, rng.KIND_ACTIVATION, 0, 0, 5, 5)
    assert base != rng.uniform(1, rng.KIND_ACTIVATION, 1, 0, 5, 5)
    assert base != rng.uniform(1, rng.KIND_ACTIVATION, 0, 0, 5, 6)


def test_uniforms_look_uniform():
    u = rng.uniforms(42, rng.KIND_TRIAL, np.arange(200_000))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.quantile(u, 0.25) - 0.25) < 0.01


def test_permutation_and_subset():
    perm = rng.permutation(3, rng.KIND_GENERATE, 50, 0)
    assert sorted(perm) == list(range(50))
    sub = rng.subset(3, rng.KIND_LISTS, 50, 10, 4)
    assert len(set(sub.tolist())) == 10
    assert np.array_equal(sub, rng.subset(3, rng.KIND_LISTS, 50, 10, 4))
    assert set(sub.tolist()) <= set(range(50))


def test_negative_seed_allowed():
    assert 0 <= rng.uniform(-17, rng.KIND_SAMPLE, 0, 0) < 1


# The scalar `uniform` hashes on Python ints; it must give the bits of the
# array evaluation for every key `uniforms` accepts.
_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]
_KEY = st.one_of(
    st.integers(-(2**63), 2**64 - 1),
    st.sampled_from(_EDGES),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.booleans().map(np.bool_),
)


@given(seed=_KEY, kind=_KEY, words=st.lists(_KEY, max_size=6))
@settings(max_examples=500, deadline=None)
def test_uniform_is_bitwise_the_array_element(seed, kind, words):
    scalar = rng.uniform(seed, kind, *words)
    array = rng.uniforms(seed, kind, *words)
    assert type(scalar) is float and array.shape == ()
    assert struct.pack("<d", scalar) == array.astype("<f8").tobytes()
    # and the same element of a broadcast evaluation
    vec = rng.uniforms(seed, kind, *words, np.arange(3))
    assert struct.pack("<d", rng.uniform(seed, kind, *words, 2)) == vec[2:3].astype("<f8").tobytes()


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [1.0, np.float64(2.0), np.float32(0.5)])
def test_float_key_raises_type_error(position, bad):
    key = [5, rng.KIND_SAMPLE, 7]
    key[position] = bad
    for fn in (rng.uniform, rng.uniforms):
        with pytest.raises(TypeError, match="^stream keys must be integers$"):
            fn(*key)


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [2**64, -(2**63) - 1])
def test_out_of_range_key_raises_overflow_error(position, bad):
    key = [5, rng.KIND_SAMPLE, 7]
    key[position] = bad
    for fn in (rng.uniform, rng.uniforms):
        with pytest.raises(OverflowError):
            fn(*key)


# `uniform_after` finishes the draw of `uniform` from a hashed prefix.
@given(seed=_KEY, kind=_KEY, words=st.lists(_KEY, max_size=4), word=st.sampled_from(_EDGES) | st.integers(-(2**63), 2**64 - 1))
@settings(max_examples=500, deadline=None)
def test_uniform_after_is_bitwise_uniform(seed, kind, words, word):
    after = rng.uniform_after(int(rng.hash_words(seed, kind, *words)), word)
    assert type(after) is float
    assert struct.pack("<d", after) == struct.pack("<d", rng.uniform(seed, kind, *words, word))
    assert struct.pack("<d", after) == rng.uniforms(seed, kind, *words, word).astype("<f8").tobytes()


@pytest.mark.parametrize("bad", [2**64, -(2**63) - 1])
def test_uniform_after_rejects_a_word_outside_64_bits(bad):
    with pytest.raises(OverflowError):
        rng.uniform_after(0, bad)
