"""Deterministic stream tests: published vectors, substreams, shuffles."""

import numpy as np
import pytest

from evosynth import rng
from evosynth.rng import (
    GOLDEN_GAMMA,
    SplitMix64,
    mix64,
    permutation,
    substream,
    uniform_at,
    uniform_block,
    uniform_layers,
)

# Published splitmix64 output stream for seed 0 (first three values).
SEED0_STREAM = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_mix64_published_vectors():
    for i, expected in enumerate(SEED0_STREAM):
        assert mix64((i + 1) * GOLDEN_GAMMA % 2**64) == expected


def test_substream_matches_published_stream():
    for i, expected in enumerate(SEED0_STREAM):
        assert substream(0, i) == expected


def test_substream_range_and_types():
    for seed in (0, 1, 2**64 - 1, 0xDEADBEEF):
        for idx in (0, 1, 7, 2**32):
            v = substream(seed, idx)
            assert 0 <= v < 2**64


def test_substream_wraps_modulo_64_bits():
    # the state space is Z/2^64: seeds and indices reduce mod 2^64
    assert substream(2**64 + 5, 3) == substream(5, 3)
    assert substream(7, 2**64 + 1) == substream(7, 1)


def test_substream_collision_free_sample():
    seen = {substream(12345, i) for i in range(10_000)}
    assert len(seen) == 10_000


def test_class_stream_matches_block():
    gen = SplitMix64(987654321)
    scalar = [gen.next_float() for _ in range(257)]
    block = uniform_block(987654321, 257)
    assert scalar == list(block)


def test_uniform_block_deterministic_and_in_range():
    a = uniform_block(42, 5000)
    b = uniform_block(42, 5000)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64
    assert np.all(a >= 0.0) and np.all(a < 1.0)


def test_uniform_block_distinct_seeds_differ():
    assert not np.array_equal(uniform_block(1, 100), uniform_block(2, 100))


def test_uniform_block_roughly_uniform():
    u = uniform_block(7, 200_000)
    # mean of U(0,1) is 0.5 with sd 1/sqrt(12n); 5 sigma band
    assert abs(u.mean() - 0.5) < 5 * (1 / np.sqrt(12 * len(u)))
    counts, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    assert counts.min() > 0.9 * len(u) / 10


def test_next_below_rejection_bounds():
    gen = SplitMix64(3)
    values = [gen.next_below(7) for _ in range(1000)]
    assert set(values) <= set(range(7))
    assert len(set(values)) == 7  # all residues show up over 1000 draws
    with pytest.raises(ValueError):
        gen.next_below(0)


def test_permutation_is_a_permutation():
    for n in (1, 2, 17, 256):
        p = permutation(n, seed=n)
        assert sorted(p.tolist()) == list(range(n))


def test_permutation_deterministic():
    assert np.array_equal(permutation(100, 5), permutation(100, 5))
    assert not np.array_equal(permutation(100, 5), permutation(100, 6))


def test_permutation_zero_length():
    assert permutation(0, 1).tolist() == []


def test_permutation_unbiased_first_slot():
    # Fisher-Yates: position 0 should be uniform over n choices.
    n, trials = 8, 4000
    counts = np.zeros(n)
    for t in range(trials):
        counts[permutation(n, seed=t)[0]] += 1
    expected = trials / n
    # 5-sigma binomial band
    sigma = np.sqrt(trials * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def _reference_permutation(n, seed):
    """The scalar Fisher-Yates loop: one ``next_below`` call per position."""
    order = np.arange(n, dtype=np.int64)
    gen = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = gen.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _assert_matches_reference(n, seed):
    got, want = permutation(n, seed), _reference_permutation(n, seed)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want), (n, seed)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_permutation_matches_scalar_loop_small_n(seed):
    for n in range(513):
        _assert_matches_reference(n, seed)


@pytest.mark.parametrize("n", [800, 1000, 60000])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_permutation_matches_scalar_loop_large_n(n, seed):
    _assert_matches_reference(n, seed)


@pytest.mark.parametrize("bound", [1, 2, 3, 2**16, 2**16 + 1, 2**31, 2**31 + 1,
                                   2**63, 2**63 + 1, 60000])
def test_rejection_predicate_matches_next_below_rule(bound):
    limit = 2**64 - 2**64 % bound
    # limit is 2**64, outside the draw range, when bound divides 2**64
    draws = sorted(d for d in {limit - 1, limit, 2**64 - 1} if d < 2**64)
    u = np.array(draws, dtype=np.uint64)
    got = rng._rejected(u, np.full(len(draws), bound, dtype=np.uint64)).tolist()
    assert got == [not d < limit for d in draws]


def test_permutation_fallback_matches_scalar_loop(monkeypatch):
    monkeypatch.setattr(rng, "_rejected", lambda u, bounds: np.ones(len(u), dtype=bool))
    calls = []
    real = SplitMix64.next_below
    monkeypatch.setattr(SplitMix64, "next_below", lambda self, b: calls.append(b) or real(self, b))
    _assert_matches_reference(800, 3)
    assert len(calls) == 2 * 799  # the fallback and the reference each draw per position


def test_permutation_common_path_makes_no_scalar_draws(monkeypatch):
    calls = []
    real = SplitMix64.next_below
    monkeypatch.setattr(SplitMix64, "next_below", lambda self, b: calls.append(b) or real(self, b))
    for seed in range(5):
        permutation(800, seed)
    assert calls == []


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_uniform_at_reads_the_block_at_any_positions(seed):
    block = uniform_block(seed, 1000)
    for positions in ([999], [0, 1, 2], [500, 3, 3, 999, 0], np.arange(1000), []):
        got = uniform_at(seed, np.array(positions, dtype=np.int64))
        assert got.tobytes() == block[np.array(positions, dtype=np.int64)].tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("k", [0, 2**63, 2**64 - 1])
def test_uniform_at_wraps_at_the_top_of_the_positions(seed, k):
    assert uniform_at(seed, [k])[0] == (substream(seed, k) >> 11) * 2**-53


def test_uniform_layers_cut_the_block_row_major():
    shapes = [(3, 4), (5, 1), (1, 7), (2, 2)]
    parts = uniform_layers(99, shapes)
    assert [p.shape for p in parts] == shapes
    assert np.concatenate([p.ravel() for p in parts]).tobytes() == uniform_block(99, 28).tobytes()
