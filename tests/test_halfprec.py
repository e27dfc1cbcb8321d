"""Bit-exact binary16 codec tests.

The codec is built on numpy's float16 cast, so the tests that compare it
with numpy only pin the to_infinity policy to plain numpy; they are not
an independent check. The independent oracle is at the end of this file:
every finite code decodes to its IEEE field formula, and every rounding
midpoint, with its binary32 neighbours, encodes as round-to-nearest-even
demands, all without numpy's float16.
"""

import numpy as np
import pytest

from evosynth.errors import NumericFailure
from evosynth.halfprec import (
    MAX_FINITE_F16,
    NAN_F16,
    PrecisionPolicy,
    SATURATE,
    TO_INFINITY,
    decode_array,
    decode_f16,
    encode_array,
    encode_f16,
    quantize_network,
)
from evosynth.netcore import DenseLayer, LayerSpec, Network, init_network

SAT = PrecisionPolicy(overflow=SATURATE)
INF = PrecisionPolicy(overflow=TO_INFINITY)

ALL_CODES = np.arange(0x10000, dtype=np.uint16)
EXP_MASK = 0x7C00
SIG_MASK = 0x03FF


def _is_nan_code(h):
    return ((h & EXP_MASK) == EXP_MASK) & ((h & SIG_MASK) != 0)


def test_exhaustive_round_trip_all_codes():
    values = decode_array(ALL_CODES)
    again = encode_array(values, SAT)
    nan_codes = _is_nan_code(ALL_CODES)
    assert np.array_equal(again[~nan_codes], ALL_CODES[~nan_codes])
    assert np.all(again[nan_codes] == NAN_F16)
    # identical through the to_infinity policy: round-trips never overflow
    assert np.array_equal(encode_array(values, INF)[~nan_codes], ALL_CODES[~nan_codes])


def test_round_trip_matches_numpy_reference():
    values = ALL_CODES.view(np.float16).astype(np.float32)
    ours = decode_array(ALL_CODES)
    both_nan = np.isnan(values) & np.isnan(ours)
    assert np.array_equal(values[~both_nan], ours[~both_nan])
    assert np.array_equal(ours.astype(np.float16).view(np.uint16)[~both_nan],
                          encode_array(ours, INF)[~both_nan])


def test_specific_codes():
    assert encode_f16(1.0) == 0x3C00
    assert encode_f16(0.0) == 0x0000
    assert encode_f16(-0.0) == 0x8000
    assert encode_f16(-2.0) == 0xC000
    assert encode_f16(65504.0) == 0x7BFF
    assert encode_f16(2.0**-14) == 0x0400  # smallest normal
    assert encode_f16(2.0**-24) == 0x0001  # smallest subnormal
    assert encode_f16(float("inf")) == 0x7C00
    assert encode_f16(float("-inf")) == 0xFC00
    assert encode_f16(float("nan")) == NAN_F16


def test_decode_specific_codes():
    assert decode_f16(0x3C00) == 1.0
    assert decode_f16(0x7BFF) == 65504.0
    assert decode_f16(0x0001) == 2.0**-24
    assert decode_f16(0x0400) == 2.0**-14
    assert decode_f16(0x7C00) == float("inf")
    assert decode_f16(0xFC00) == float("-inf")
    assert np.isnan(decode_f16(0x7C01))
    assert np.isnan(decode_f16(NAN_F16))


def test_decode_preserves_signed_zero():
    plus, minus = decode_f16(0x0000), decode_f16(0x8000)
    assert plus == 0.0 and minus == 0.0
    assert np.signbit(minus) and not np.signbit(plus)


def test_rounding_ties_to_even():
    # 2049 sits exactly between representable 2048 and 2050: even wins
    assert decode_f16(encode_f16(2049.0)) == 2048.0
    # 2051 between 2050 and 2052
    assert decode_f16(encode_f16(2051.0)) == 2052.0
    # value 0.1 rounds to code 0x2E66
    assert encode_f16(0.1) == 0x2E66
    assert decode_f16(encode_f16(0.1)) == 0.0999755859375


def test_tiny_values_round_to_zero():
    assert encode_f16(2.0**-26) == 0x0000
    assert encode_f16(-(2.0**-26)) == 0x8000
    # exactly half the smallest subnormal: tie, rounds to even (zero)
    assert encode_f16(2.0**-25) == 0x0000
    # just above the tie rounds up to the smallest subnormal
    assert encode_f16(np.nextafter(np.float32(2.0**-25), np.float32(1.0))) == 0x0001


def test_finite_overflow_policies():
    # 65520 is the smallest value that rounds beyond 65504
    assert encode_f16(65520.0, SAT) == 0x7BFF
    assert decode_f16(encode_f16(65520.0, SAT)) == MAX_FINITE_F16
    assert encode_f16(65520.0, INF) == 0x7C00
    assert encode_f16(-65520.0, SAT) == 0xFBFF
    assert encode_f16(-65520.0, INF) == 0xFC00
    assert encode_f16(1e30, SAT) == 0x7BFF
    assert encode_f16(1e30, INF) == 0x7C00
    # 65519.99... (largest f32 below the midpoint) still rounds down to 65504
    below = np.nextafter(np.float32(65520.0), np.float32(0.0))
    assert encode_f16(float(below), SAT) == 0x7BFF
    assert encode_f16(float(below), INF) == 0x7BFF


def test_true_infinities_unaffected_by_policy():
    assert encode_f16(float("inf"), SAT) == 0x7C00
    assert encode_f16(float("-inf"), SAT) == 0xFC00


def test_nan_canonicalized_dropping_sign():
    assert encode_f16(float("-nan")) == NAN_F16
    payloads = np.array([0x7C01, 0x7DAB, 0x7FFF, 0xFC01, 0xFFFF], dtype=np.uint16)
    assert np.all(encode_array(decode_array(payloads), SAT) == NAN_F16)


def test_relative_error_bound_normal_range():
    block = np.random.default_rng(20240817).uniform(-1.0, 1.0, 100_000)
    values = (np.sign(block) * (2.0**-14 + np.abs(block) * (65504.0 - 2.0**-14))).astype(np.float32)
    round_tripped = decode_array(encode_array(values, SAT)).astype(np.float64)
    rel = np.abs(round_tripped - values.astype(np.float64)) / np.abs(values.astype(np.float64))
    assert rel.max() <= 2.0**-11


def test_monotonicity_saturating():
    rng = np.random.default_rng(99)
    xs = np.sort(rng.normal(scale=1000.0, size=20_000).astype(np.float32))
    ys = decode_array(encode_array(xs, SAT))
    assert np.all(np.diff(ys) >= 0)


def test_sign_symmetry():
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        rng.normal(scale=100.0, size=10_000),
        rng.uniform(-1e-6, 1e-6, 1000),
        np.array([0.0, -0.0, 65504.0, 65520.0, 1e30, np.inf]),
    ]).astype(np.float32)
    for policy in (SAT, INF):
        pos = encode_array(xs, policy)
        neg = encode_array(-xs, policy)
        assert np.array_equal(neg, pos ^ np.uint16(0x8000))


def test_subnormal_round_trip_against_numpy():
    # every subnormal neighborhood: scan f32 values around each half subnormal
    rng = np.random.default_rng(5)
    xs = (rng.uniform(-1.0, 1.0, 50_000) * 2.0**-14).astype(np.float32)
    assert np.array_equal(encode_array(xs, INF), xs.astype(np.float16).view(np.uint16))


def test_encode_scalar_validates_and_masks():
    with pytest.raises(ValueError):
        decode_f16(-1)
    with pytest.raises(ValueError):
        decode_f16(0x10000)


def test_quantize_network_values_and_tag():
    net = init_network([LayerSpec(4, 3), LayerSpec(3, 2)], seed=11)
    net.layers[0].weights[0, 0] = np.float32(0.1)
    net.layers[0].mask[1, :] = 0
    net.layers[0].weights[1, :] = 0.0
    q = quantize_network(net, SAT)
    assert q.precision_tag == "half"
    assert net.precision_tag == "full"  # input untouched
    assert q.layers[0].weights[0, 0] == np.float32(0.0999755859375)
    assert np.all(q.layers[0].weights[1, :] == 0.0)
    assert np.array_equal(q.layers[0].mask, net.layers[0].mask)
    for layer, orig in zip(q.layers, net.layers):
        codes = encode_array(layer.weights, SAT)
        assert np.array_equal(decode_array(codes), layer.weights)
        assert np.array_equal(decode_array(encode_array(layer.bias, SAT)), layer.bias)
        assert orig.weights.shape == layer.weights.shape


def test_quantize_idempotent():
    net = init_network([LayerSpec(6, 5), LayerSpec(5, 3)], seed=3)
    once = quantize_network(net, SAT)
    twice = quantize_network(once, SAT)
    for a, b in zip(once.layers, twice.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_quantize_all_zero_network_unchanged():
    layer = DenseLayer(weights=np.zeros((2, 2), dtype=np.float32),
                       mask=np.ones((2, 2), dtype=np.uint8),
                       bias=np.zeros(2, dtype=np.float32))
    q = quantize_network(Network([layer]), SAT)
    assert np.all(q.layers[0].weights == 0.0)
    assert q.precision_tag == "half"


def test_quantize_rejects_non_finite():
    net = init_network([LayerSpec(2, 2)], seed=0)
    net.layers[0].weights[0, 0] = np.float32("inf")
    with pytest.raises(NumericFailure):
        quantize_network(net, SAT)
    net.layers[0].weights[0, 0] = np.float32("nan")
    with pytest.raises(NumericFailure):
        quantize_network(net, SAT)


# independent oracle: IEEE binary16 field formulas, no numpy float16


def _field_values(codes):
    """Exact float64 value of finite binary16 codes from their sign, exponent
    and significand fields."""
    c = codes.astype(np.int64)
    e, m = (c >> 10) & 0x1F, c & SIG_MASK
    magnitude = np.where(e == 0, np.ldexp(m.astype(np.float64), -24),
                         np.ldexp((1024 + m).astype(np.float64), np.maximum(e, 1) - 25))
    return np.where(c & 0x8000, -magnitude, magnitude)


FINITE_CODES = ALL_CODES[(ALL_CODES & EXP_MASK) != EXP_MASK]


def test_decode_matches_field_formula_all_finite_codes():
    decoded = decode_array(FINITE_CODES)
    assert decoded.dtype == np.float32
    assert np.array_equal(decoded.astype(np.float64), _field_values(FINITE_CODES))
    assert np.array_equal(np.signbit(decoded), (FINITE_CODES & 0x8000) != 0)  # covers +-0


def test_encode_rounds_every_midpoint_to_even():
    low = np.arange(0x7BFF, dtype=np.uint16)  # every finite pair (h, h + 1) below 0x7BFF
    high = low + np.uint16(1)
    mid64 = (_field_values(low) + _field_values(high)) / 2
    mid = mid64.astype(np.float32)
    assert np.array_equal(mid.astype(np.float64), mid64)  # 12 significant bits: exact
    even = np.where(low & 1, high, low)
    up = np.nextafter(mid, np.float32(np.inf))
    down = np.nextafter(mid, np.float32(0.0))
    for policy in (SAT, INF):
        for sign in (np.uint16(0), np.uint16(0x8000)):
            flip = np.float32(-1.0) if sign else np.float32(1.0)
            assert np.array_equal(encode_array(flip * mid, policy), even | sign)
            assert np.array_equal(encode_array(flip * up, policy), high | sign)
            assert np.array_equal(encode_array(flip * down, policy), low | sign)
