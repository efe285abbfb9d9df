"""Deterministic counter-based random streams.

Every random decision in this package is a pure function of a 64-bit seed
and a fixed-arity integer key (kind, round, attempt, edge, colour, vertex).
Draws therefore do not depend on iteration order, worker count, or any
hidden generator state, which is what makes runs reproducible and safely
parallelisable.

The construction is a keyed splitmix-style hash: the seed and key words are
absorbed one at a time through a 64-bit finaliser, and the top 53 bits of
the result become a uniform in [0, 1).  `uniforms` evaluates it on NumPy
arrays; `uniform` evaluates the same hash on Python ints for one scalar
key, which gives the same bits at a fraction of the cost of a 0-d array;
`uniform_after` finishes a scalar draw from a prefix already hashed by
`hash_words`, for a stream that varies only its last word.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0**-53)
# The same constants as Python ints, for the scalar evaluation in `uniform`.
_M64 = (1 << 64) - 1
_GAMMA_INT, _MUL1_INT, _MUL2_INT = int(_GAMMA), int(_MUL1), int(_MUL2)
_INT_RANGE = range(-(1 << 63), 1 << 64)  # keys `_as_u64` accepts: int64 or uint64

# Trial kinds.  Each consumer of randomness owns one constant so streams
# for different purposes never collide.
KIND_ACTIVATION = 1
KIND_FLIP = 2
KIND_SAMPLE = 3
KIND_RESAMPLE = 4
KIND_GENERATE = 5
KIND_LISTS = 6
KIND_TRIAL = 8


def _mix(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * _MUL1
    x = x ^ (x >> np.uint64(27))
    x = x * _MUL2
    return x ^ (x >> np.uint64(31))


def _as_u64(value) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.kind == "f":
        raise TypeError("stream keys must be integers")
    return arr.astype(np.int64).view(np.uint64) if arr.dtype.kind == "i" else arr.astype(np.uint64)


def hash_words(seed: int, *words) -> np.ndarray:
    """Absorb `words` (ints or integer arrays, broadcast together) into a
    64-bit state derived from `seed`; returns uint64 hashes."""
    with np.errstate(over="ignore"):
        state = _mix(_as_u64(seed) + _GAMMA)
        for w in words:
            state = _mix((state + _GAMMA) ^ (_as_u64(w) * _MUL1))
    return np.broadcast_arrays(state)[0] if np.ndim(state) else state


def uniforms(seed: int, kind: int, *words) -> np.ndarray:
    """Uniform [0,1) floats keyed by (kind, *words); shape follows broadcasting."""
    h = hash_words(seed, kind, *words)
    return np.asarray((h >> np.uint64(11)).astype(np.float64) * _INV53)


def _mix_int(x: int) -> int:
    x ^= x >> 30
    x = x * _MUL1_INT & _M64
    x ^= x >> 27
    x = x * _MUL2_INT & _M64
    return x ^ (x >> 31)


def _int_key(value) -> int | None:
    """`value` as the uint64 `_as_u64` makes of it, for Python and NumPy
    integer (and bool) scalars; None for any other key."""
    if type(value) is not int:
        if isinstance(value, (float, np.floating)):
            raise TypeError("stream keys must be integers")
        if not isinstance(value, (int, np.integer, np.bool_)):
            return None
        value = int(value)
    if value not in _INT_RANGE:
        raise OverflowError(f"stream key {value} does not fit in 64 bits")
    return value & _M64


def uniform(seed: int, kind: int, *words) -> float:
    """The element of `uniforms(seed, kind, *words)` for scalar keys.

    Integer keys are hashed on Python ints with the same wrap-around
    arithmetic, so the result is bitwise equal to the array evaluation;
    any other key goes through `uniforms`."""
    state = _int_key(seed)
    if state is None:
        return float(uniforms(seed, kind, *words))
    state = _mix_int((state + _GAMMA_INT) & _M64)
    for word in (kind, *words):
        w = _int_key(word)
        if w is None:
            return float(uniforms(seed, kind, *words))
        state = _mix_int(((state + _GAMMA_INT) & _M64) ^ (w * _MUL1_INT & _M64))
    return (state >> 11) * _INV53


def uniform_after(prefix: int, word: int) -> float:
    """`uniform(seed, kind, *words, word)` given the prefix hash
    `int(hash_words(seed, kind, *words))`: one scalar mix of `word`, so a
    stream that draws many last words for one prefix hashes the prefix
    once.  Bitwise equal to `uniform` and to the element of `uniforms`."""
    word = operator.index(word)
    if word not in _INT_RANGE:
        raise OverflowError(f"stream key {word} does not fit in 64 bits")
    x = ((prefix + _GAMMA_INT) & _M64) ^ (word * _MUL1_INT & _M64)
    x ^= x >> 30  # `_mix_int`, inlined: this runs once per draw
    x = x * _MUL1_INT & _M64
    x ^= x >> 27
    x = x * _MUL2_INT & _M64
    return ((x ^ (x >> 31)) >> 11) * _INV53


def derive_seed(seed: int, kind: int, *words) -> int:
    """A further 63-bit seed, for handing to third-party generators."""
    return int(np.atleast_1d(hash_words(seed, kind, *words))[0] >> np.uint64(1))


def permutation(seed: int, kind: int, n: int, *words) -> np.ndarray:
    """Deterministic permutation of range(n) keyed by (kind, *words)."""
    return np.argsort(uniforms(seed, kind, *words, np.arange(n)), kind="stable")


def subset(seed: int, kind: int, n: int, size: int, *words) -> np.ndarray:
    """Uniform random `size`-subset of range(n), returned sorted."""
    if size > n:
        raise ValueError(f"cannot draw {size} items from {n}")
    return np.sort(permutation(seed, kind, n, *words)[:size])
