"""Genetic encoding of trained networks and stochastic offspring synthesis.

The DNA of a network is a per-synapse survival probability derived from
weight magnitudes: within each layer, p = |w| / max|w| over the active
synapses. An environmental factor alpha in (0, 1] scales those
probabilities down (never up), and an offspring topology is drawn one
Bernoulli trial per synapse. Synapses absent in the parent have
probability 0, so topology can only sparsify across generations.

Expected density is linear in alpha, e(alpha) = alpha * e(1), so the
alpha that meets a retention target is the closed form
alpha = min(1, target / e(1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeadLayer
from .netcore import Network, check_seed
from .rng import uniform_layers


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of inverting expected density for a target retention.

    ``saturated`` means the target sits above what alpha = 1 can reach, so
    the returned alpha is 1 and the realized expectation is ``expected``
    rather than the target. ``iterations`` is always 0: the inversion is
    one division, not a search.
    """

    alpha: float
    expected: float
    saturated: bool
    iterations: int


def encode_dna(net: Network) -> list[np.ndarray]:
    """Layer-normalized magnitude probabilities: p = |w| / max_active |w|.

    One float64 array per layer, congruent with its weights. Entries are
    in [0, 1]; each layer's maximum-magnitude active synapse has
    probability exactly 1, and masked or zero synapses have exactly 0.
    Raises DeadLayer when a layer has no active synapse with nonzero
    weight, since its probabilities would be undefined (0/0).
    """
    layers = []
    for i, layer in enumerate(net.layers):
        mag = np.abs(layer.weights.astype(np.float64)) * layer.mask
        peak = mag.max()
        if peak == 0.0:
            raise DeadLayer(f"layer {i} has no active nonzero synapse")
        layers.append(mag / peak)
    return layers


def synthesis_probability(dna: list[np.ndarray], alpha: float) -> list[np.ndarray]:
    """Per-synapse sampling probabilities q = alpha * p.

    Raises ValueError unless alpha is in (0, 1]. p lies in [0, 1] by
    construction in ``encode_dna``, so q does too and needs no clamp.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return [alpha * p for p in dna]


def synthesize_offspring(dna: list[np.ndarray], alpha: float, seed: int) -> list[np.ndarray]:
    """Per-layer uint8 masks: one independent Bernoulli(q) draw per synapse,
    then neuron repair.

    Draws come from a single deterministic stream consumed layer-major and
    row-major within each layer. Repair: an output neuron whose sampled
    row is all zeros gets its highest-q incoming synapse forced on (ties
    resolve to the lowest column index). Rows with no positive q at all
    are left dead so the parent's zero structure is never violated.
    """
    check_seed(seed)
    qs = synthesis_probability(dna, alpha)
    masks = []
    for q, u in zip(qs, uniform_layers(seed, [q.shape for q in qs])):
        s = (u < q).astype(np.uint8)
        dead = (s.sum(axis=1) == 0) & (q.max(axis=1) > 0.0)
        s[dead, q[dead].argmax(axis=1)] = 1
        masks.append(s)
    return masks


def expected_density(dna: list[np.ndarray], alpha: float) -> float:
    """Expected surviving fraction: sum of q over the count of p > 0.

    The repair rule is ignored, biasing the estimate low by at most
    (output neurons / active synapses); negligible at working densities.
    """
    qs = synthesis_probability(dna, alpha)
    active = 0
    q_sum = 0.0
    for i, (p, q) in enumerate(zip(dna, qs)):
        n = int(np.count_nonzero(p))
        if n == 0:
            raise DeadLayer(f"layer {i} has no synapse with positive probability")
        active += n
        q_sum += float(q.sum())
    return q_sum / active


def calibrate_alpha(dna: list[np.ndarray], target_retention: float) -> CalibrationResult:
    """The global alpha whose expected density matches the target.

    Expected density is alpha * e(1), so alpha = min(1, target / e(1)).
    When even alpha = 1 cannot reach the target, alpha = 1 is returned
    with the saturated flag set.
    """
    if not 0.0 < target_retention <= 1.0:
        raise ValueError(f"target retention must be in (0, 1], got {target_retention}")
    e_one = expected_density(dna, 1.0)
    if e_one <= target_retention:
        return CalibrationResult(alpha=1.0, expected=e_one,
                                 saturated=e_one < target_retention, iterations=0)
    alpha = target_retention / e_one
    return CalibrationResult(alpha=alpha, expected=expected_density(dna, alpha),
                             saturated=False, iterations=0)
