"""Deterministic pseudo-randomness built on the SplitMix64 mixer.

Every stochastic step in the library (weight init, offspring sampling,
epoch shuffles, synthetic data) draws from these streams. The generator
is pure 64-bit integer arithmetic with no dependence on hardware float
behaviour, so the streams, and the masks sampled from them, are the same
bits on every platform and BLAS kernel. Training's float64 matmuls are
not: the loss curves can differ by a few ulp between OpenBLAS kernels
(2 ulp between SkylakeX and Haswell), while the binary16 output bytes
were the same under all five ``OPENBLAS_CORETYPE`` kernels tried.

Stream definition: output k (0-based) of the stream with seed ``s`` is
``mix64((s + (k + 1) * GOLDEN_GAMMA) mod 2**64)``, which is exactly the
classic SplitMix64 sequence (Steele, Lea & Flood; the same generator Java
ships as SplittableRandom). ``mix64`` is its finalizer. The first output
for seed 0 is the published test vector 0xE220A8397B1DCDAF.

The stream is random access: output k depends on ``s`` and ``k`` alone,
with no state carried from output k - 1. ``_outputs`` states the
arithmetic once, for any vector of 0-based positions k, as
``(s + GOLDEN_GAMMA) + k * GOLDEN_GAMMA`` in wrapping uint64, and every
array of draws is read through it: ``uniform_block`` (the first doubles),
``uniform_layers`` (those cut into one row-major array per shape, for
weight init and offspring sampling), ``uniform_at`` (the doubles at any
positions; ``dataio.synth_gaussian_rows`` builds single dataset rows this
way) and the swap targets of ``permutation``, drawn one by one only when
a draw in the block would be rejected.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MIX_K1 = 0xBF58476D1CE4E5B9
_MIX_K2 = 0x94D049BB133111EB

# a 53-bit mantissa draw maps to [0, 1) without rounding bias
_INV_2_53 = 2.0 ** -53


def mix64(x: int) -> int:
    """SplitMix64 finalizer: an avalanche-quality bijection on 64-bit ints."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_K1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_K2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def substream(seed: int, index: int) -> int:
    """Derive the seed of substream ``index`` from ``seed``.

    Equals output ``index`` of the SplitMix64 stream seeded with ``seed``,
    so distinct indices give statistically independent streams. Injective
    in ``index`` over any window of 2**64 values (GOLDEN_GAMMA is odd, and
    mix64 is a bijection).
    """
    return mix64((seed + (index + 1) * GOLDEN_GAMMA) & _MASK64)


def _outputs(seed: int, positions: np.ndarray) -> np.ndarray:
    """Raw outputs of the stream at the 0-based uint64 ``positions``.

    The whole stream arithmetic, elementwise: ``mix64((seed + GOLDEN_GAMMA)
    + k * GOLDEN_GAMMA)`` at position k. numpy's uint64 arithmetic wraps
    modulo 2**64 like the scalar masks.
    """
    with np.errstate(over="ignore"):
        z = np.uint64((seed + GOLDEN_GAMMA) & _MASK64) + positions * np.uint64(GOLDEN_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_K1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_K2)
    return z ^ (z >> np.uint64(31))


def uniform_block(seed: int, count: int) -> np.ndarray:
    """First ``count`` doubles in [0, 1) of the stream, as one vector.

    Bit-identical to ``count`` successive ``SplitMix64.next_float()`` calls.
    """
    return (_outputs(seed, np.arange(count, dtype=np.uint64)) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniform_layers(seed: int, shapes) -> list[np.ndarray]:
    """``uniform_block`` of the total size, cut into one row-major array per
    shape: the first array holds the first draws, the next the ones after."""
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(uniform_block(seed, sum(sizes)), np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def uniform_at(seed: int, positions) -> np.ndarray:
    """Doubles in [0, 1) at 0-based stream ``positions`` (non-negative integers).

    Equals ``uniform_block(seed, n)[positions]`` for any ``n`` past the
    largest position, at the cost of the positions asked for only.
    """
    ks = np.asarray(positions, dtype=np.uint64)
    return (_outputs(seed, ks) >> np.uint64(11)).astype(np.float64) * _INV_2_53


class SplitMix64:
    """Sequential view of the stream; matches ``uniform_block`` draw for draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2_53

    def next_below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


def _rejected(u: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Where ``next_below(bounds)`` would reject draw ``u``, elementwise.

    The scalar rule accepts ``u < 2**64 - r`` with ``r = 2**64 mod bound``.
    In wrapping uint64, ``r = (0 - bound) % bound`` and ``2**64 - r`` is
    ``0 - r``; when ``r`` is 0 every draw is accepted.
    """
    rem = (np.uint64(0) - bounds) % bounds
    return (rem != 0) & (u >= np.uint64(0) - rem)


def _swap_targets(n: int, seed: int) -> list[int]:
    """The Fisher-Yates swap targets of positions n-1 down to 1, for n >= 2.

    All ``n - 1`` first draws are computed as one uint64 block and reduced
    modulo their bounds. If any draw in the block would be rejected
    (probability about n**2 / 2**64), the targets are redrawn one
    ``next_below`` call per position, which consumes the extra draws.
    """
    bounds = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for i = n-1 .. 1
    u = _outputs(seed, np.arange(n - 1, dtype=np.uint64))
    if _rejected(u, bounds).any():
        gen = SplitMix64(seed)
        return [gen.next_below(b) for b in range(n, 1, -1)]
    return (u % bounds).tolist()


def permutation(n: int, seed: int) -> np.ndarray:
    """Deterministic Fisher-Yates permutation of range(n).

    Swap targets come from one SplitMix64 stream (``_swap_targets``):
    positions n-1 down to 1 each consume draws until ``next_below`` accepts.
    """
    if n < 2:
        return np.arange(n, dtype=np.int64)
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), _swap_targets(n, seed)):
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)
