"""Bit-exact IEEE 754 binary16 codec and network-wide precision imposition.

The codec is numpy's float16 cast, which rounds to nearest, ties to even,
and widens every binary16 code exactly, plus two rules of its own: under
the saturate policy a finite value whose rounded magnitude exceeds the
largest finite binary16 (65504) becomes +-65504 instead of +-inf, and NaN
of any sign or payload encodes to the canonical quiet pattern 0x7E00.
True infinities are exact and keep their codes. The tests are the oracle:
they check all 65536 codes and every rounding midpoint against the IEEE
field formulas, without numpy's float16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

NAN_F16 = 0x7E00
MAX_FINITE_F16 = 65504.0

SATURATE = "saturate"
TO_INFINITY = "to_infinity"
HALF_OVERFLOW_MODES = (SATURATE, TO_INFINITY)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Conversion policy. Rounding is fixed to nearest-even; only the
    treatment of finite overflow is selectable."""

    overflow: str = SATURATE

    def __post_init__(self):
        if self.overflow not in HALF_OVERFLOW_MODES:
            raise ValueError(f"unknown overflow mode {self.overflow!r}")


def encode_array(values: np.ndarray, policy: PrecisionPolicy = PrecisionPolicy()) -> np.ndarray:
    """Encode an array of binary32 values to binary16 codes (uint16)."""
    arr = np.ascontiguousarray(values, dtype=np.float32)
    with np.errstate(over="ignore"):
        codes = arr.astype(np.float16).view(np.uint16)
    if policy.overflow == SATURATE:
        over = ((codes & 0x7FFF) == 0x7C00) & np.isfinite(arr)
        codes[over] = (codes[over] & 0x8000) | 0x7BFF
    codes[np.isnan(arr)] = NAN_F16
    return codes


def decode_array(codes: np.ndarray) -> np.ndarray:
    """Decode binary16 codes (uint16) to their exact binary32 values."""
    return np.ascontiguousarray(codes, dtype=np.uint16).view(np.float16).astype(np.float32)


def encode_f16(x: float, policy: PrecisionPolicy = PrecisionPolicy()) -> int:
    """Encode one binary32 value; Python floats are first rounded to binary32."""
    with np.errstate(over="ignore"):
        v = np.float32(x)
    return int(encode_array(np.array([v], dtype=np.float32), policy)[0])


def decode_f16(h: int) -> float:
    """Decode one binary16 code to its exact value (binary32 is a superset)."""
    if not 0 <= h <= 0xFFFF:
        raise ValueError(f"half code out of range: {h}")
    return float(decode_array(np.array([h], dtype=np.uint16))[0])


def quantize_network(net, policy: PrecisionPolicy = PrecisionPolicy()):
    """Round every weight and bias of a network through binary16.

    Masked positions are exactly 0.0 before and after (0.0 encodes to code
    0x0000 which decodes back to +0.0). Idempotent: a second application
    leaves all values unchanged. The returned copy carries
    ``precision_tag = "half"``.
    """
    from .netcore import DenseLayer, Network  # deferred to avoid an import cycle

    for i, layer in enumerate(net.layers):
        if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
            raise NumericFailure(f"non-finite parameter in layer {i}")
    layers = [
        DenseLayer(
            weights=decode_array(encode_array(layer.weights, policy)),
            mask=layer.mask.copy(),
            bias=decode_array(encode_array(layer.bias, policy)),
            activation=layer.activation,
        )
        for layer in net.layers
    ]
    return Network(layers=layers, generation=net.generation, precision_tag="half")
