"""DNA encoding, offspring sampling, repair and alpha calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evosynth.errors import DeadLayer
from evosynth.genetics import (
    calibrate_alpha,
    encode_dna,
    expected_density,
    synthesis_probability,
    synthesize_offspring,
)
from evosynth.netcore import DenseLayer, LayerSpec, Network, init_network


def _net_from_weights(rows, mask=None):
    w = np.asarray(rows, dtype=np.float32)
    m = np.ones_like(w, dtype=np.uint8) if mask is None else np.asarray(mask, dtype=np.uint8)
    layer = DenseLayer(weights=w * m, mask=m, bias=np.zeros(w.shape[0], dtype=np.float32))
    return Network([layer], generation=3)


def _spm(arrays):
    return [np.asarray(a, dtype=np.float64) for a in arrays]


# encoding


def test_encode_dna_magnitude_normalized():
    net = _net_from_weights([[2.0, 1.0, 0.0]])
    dna = encode_dna(net)
    assert dna[0].tolist() == [[1.0, 0.5, 0.0]]


def test_encode_dna_equal_weights_all_one():
    net = _net_from_weights([[0.3, -0.3], [0.3, 0.3]])
    dna = encode_dna(net)
    assert np.all(dna[0] == 1.0)


def test_encode_dna_zero_where_masked():
    net = _net_from_weights([[2.0, 5.0]], mask=[[1, 0]])
    dna = encode_dna(net)
    # the masked 5.0 is zeroed by construction, so 2.0 is the layer peak
    assert dna[0].tolist() == [[1.0, 0.0]]


def test_encode_dna_dead_layer():
    with pytest.raises(DeadLayer):
        encode_dna(_net_from_weights([[0.0, 0.0]]))
    with pytest.raises(DeadLayer):
        encode_dna(_net_from_weights([[1.0, 2.0]], mask=[[0, 0]]))


def test_encode_dna_every_layer_peaks_at_one():
    net = init_network([LayerSpec(6, 5), LayerSpec(5, 4), LayerSpec(4, 2)], seed=77)
    dna = encode_dna(net)
    for p in dna:
        assert p.max() == 1.0
        assert p.min() >= 0.0


def test_encode_dna_scale_invariant_power_of_two():
    base = _net_from_weights([[0.7, -0.3, 0.1], [0.05, 0.2, -0.9]])
    scaled = _net_from_weights([[0.7 * 8, -0.3 * 8, 0.1 * 8], [0.05 * 8, 0.2 * 8, -0.9 * 8]])
    a, b = encode_dna(base), encode_dna(scaled)
    # power-of-two scaling is exact in binary floating point
    assert np.array_equal(a[0], b[0])


def test_encode_dna_scale_invariant_general_within_ulps():
    rng = np.random.default_rng(15)
    w = rng.normal(size=(4, 6)).astype(np.float32)
    for c in (3.0, 0.1234, 7.77):
        a = encode_dna(_net_from_weights(w))
        b = encode_dna(_net_from_weights(w * np.float32(c)))
        assert np.allclose(a[0], b[0], rtol=1e-6, atol=0.0)


# synthesis probabilities


def test_synthesis_probability_identity_factor():
    qs = synthesis_probability(_spm([[1.0, 0.5, 0.0]]), 1.0)
    assert qs[0].tolist() == [1.0, 0.5, 0.0]


def test_synthesis_probability_scales():
    qs = synthesis_probability(_spm([[1.0, 0.5, 0.0]]), 0.8)
    assert np.allclose(qs[0], [0.8, 0.4, 0.0])


def test_synthesis_probability_clamped_at_one():
    qs = synthesis_probability(_spm([[1.0, 1.0]]), 1.0)
    assert np.all(qs[0] <= 1.0)


def test_environment_validation():
    # alpha reaches q only through synthesis_probability, which checks it
    dna = _spm([[1.0, 0.5]])
    for use in (synthesis_probability, expected_density,
                lambda dna, alpha: synthesize_offspring(dna, alpha, seed=0)):
        for alpha in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
                use(dna, alpha)


# offspring sampling


def test_synthesize_deterministic():
    dna = _spm([np.full((5, 8), 0.5)])
    a = synthesize_offspring(dna, 1.0, seed=123)
    b = synthesize_offspring(dna, 1.0, seed=123)
    c = synthesize_offspring(dna, 1.0, seed=124)
    assert np.array_equal(a[0], b[0])
    assert not np.array_equal(a[0], c[0])


# the stream reduces a seed modulo 2**64: 2**64 + 3 drew seed 3's masks
@pytest.mark.parametrize("seed", [-1, 2**64 + 3], ids=["-1", "2^64+3"])
def test_synthesize_refuses_seed_outside_uint64(seed):
    with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer$"):
        synthesize_offspring(_spm([np.full((5, 8), 0.5)]), 0.5, seed)


def test_synthesize_degenerate_probabilities():
    dna = _spm([[[1.0, 0.0]]])
    for seed in range(20):
        mask = synthesize_offspring(dna, 1.0, seed=seed)
        assert mask[0].tolist() == [[1, 0]]


def test_synthesize_all_ones_preserves_topology():
    dna = _spm([np.ones((4, 4)), np.ones((2, 4))])
    for seed in (0, 7, 99):
        mask = synthesize_offspring(dna, 1.0, seed=seed)
        assert all(np.all(m == 1) for m in mask)


def test_repair_forces_highest_q_with_lowest_column_tie_break():
    # alpha so small every draw fails, leaving repair to pick per row
    dna = _spm([[[0.5, 1.0, 1.0, 0.25], [0.2, 0.1, 0.9, 0.3]]])
    alpha = 1e-9
    for seed in range(10):
        mask = synthesize_offspring(dna, alpha, seed=seed)
        assert mask[0].tolist() == [[0, 1, 0, 0], [0, 0, 1, 0]]


def test_repair_leaves_parent_dead_rows_dead():
    dna = _spm([[[1.0, 0.5], [0.0, 0.0]]])
    for seed in range(10):
        mask = synthesize_offspring(dna, 1.0, seed=seed)
        assert mask[0][1].tolist() == [0, 0]
        assert mask[0][0, 0] == 1  # q = 1 always survives


def test_offspring_subset_of_parent_active_set():
    rng = np.random.default_rng(31)
    w = rng.normal(size=(8, 10)).astype(np.float32)
    keep = (rng.random((8, 10)) < 0.7).astype(np.uint8)
    keep[:, 0] = 1
    net = _net_from_weights(w, mask=keep)
    dna = encode_dna(net)
    parent_active = dna[0] > 0
    for seed in range(50):
        child = synthesize_offspring(dna, 0.6, seed=seed)
        assert not np.any(child[0] & ~parent_active)
        # repair keeps every live row connected
        live_rows = parent_active.any(axis=1)
        assert np.all(child[0][live_rows].sum(axis=1) >= 1)


def test_sampling_statistics_half_probability():
    dna = _spm([np.full((10, 20), 0.5)])
    alpha = 1.0
    trials = 2000
    counts = np.zeros((10, 20))
    for seed in range(trials):
        counts += synthesize_offspring(dna, alpha, seed=seed)[0]
    freq = counts / trials
    # 3 sigma band for Bernoulli(0.5): 3 * sqrt(0.25 / trials)
    band = 3 * np.sqrt(0.25 / trials)
    assert np.all(np.abs(freq - 0.5) <= band + 1e-12)


# expected density and calibration


def test_expected_density_examples():
    assert expected_density(_spm([[1.0, 1.0, 1.0, 1.0]]), 1.0) == 1.0
    assert abs(expected_density(_spm([[0.2, 0.8]]), 1.0) - 0.5) < 1e-12
    assert abs(expected_density(_spm([[0.2, 0.8]]), 0.5) - 0.25) < 1e-12


def test_expected_density_counts_only_active_parent_synapses():
    # zeros (absent synapses) do not enter the denominator
    assert abs(expected_density(_spm([[0.2, 0.8, 0.0, 0.0]]), 1.0) - 0.5) < 1e-12


def test_expected_density_dead_layer():
    with pytest.raises(DeadLayer):
        expected_density(_spm([[0.0, 0.0]]), 1.0)


def test_expected_density_monotone_in_alpha():
    rng = np.random.default_rng(8)
    dna = _spm([rng.random((6, 6)), rng.random((3, 6))])
    alphas = np.linspace(0.01, 1.0, 50)
    values = [expected_density(dna, float(a)) for a in alphas]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_calibrate_linear_case():
    res = calibrate_alpha(_spm([np.ones(10)]), 0.5)
    assert abs(res.alpha - 0.5) <= 1e-4
    assert not res.saturated
    assert abs(res.expected - 0.5) <= 1e-4


def test_calibrate_hand_inversion():
    res = calibrate_alpha(_spm([[0.2, 0.8]]), 0.25)
    assert abs(res.alpha - 0.5) <= 1e-4


def test_calibrate_saturated():
    res = calibrate_alpha(_spm([[0.1, 0.1]]), 0.9)
    assert res.alpha == 1.0
    assert res.saturated
    assert abs(res.expected - 0.1) < 1e-12
    assert res.iterations == 0


def test_calibrate_exact_boundary_not_saturated():
    res = calibrate_alpha(_spm([[0.1, 0.1]]), 0.1)
    assert res.alpha == 1.0
    assert not res.saturated


def test_calibrate_validates_target():
    with pytest.raises(ValueError):
        calibrate_alpha(_spm([[1.0]]), 0.0)
    with pytest.raises(ValueError):
        calibrate_alpha(_spm([[1.0]]), 1.5)


def test_calibrate_inverts_expected_density():
    rng = np.random.default_rng(44)
    for trial in range(20):
        shape = (rng.integers(2, 8), rng.integers(2, 8))
        p = rng.random(shape)
        p.flat[rng.integers(0, p.size)] = 1.0  # a peak, as encode_dna guarantees
        dna = _spm([p])
        alpha_star = float(rng.uniform(0.05, 0.95))
        target = expected_density(dna, alpha_star)
        res = calibrate_alpha(dna, target)
        assert abs(res.alpha - alpha_star) <= 1e-3
        assert abs(res.expected - target) <= 1e-4


DNA_LAYER = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                       elements=st.floats(0.0, 1.0))
TARGET = st.floats(0.0, 1.0, exclude_min=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(layers=st.lists(DNA_LAYER, min_size=1, max_size=3), t1=TARGET, t2=TARGET)
def test_calibrate_monotone_in_target(layers, t1, t2):
    t1, t2 = sorted((t1, t2))
    for p in layers:
        p.flat[p.argmax()] = 1.0  # each layer's peak, as encode_dna guarantees
    dna = _spm(layers)
    low, high = calibrate_alpha(dna, t1), calibrate_alpha(dna, t2)
    assert low.alpha <= high.alpha
    assert high.saturated or not low.saturated


def test_calibrate_is_the_closed_form_quotient():
    # e(alpha) = alpha * e(1), so below saturation alpha is target / e(1) exactly
    rng = np.random.default_rng(45)
    for trial in range(200):
        layers = []
        for _ in range(int(rng.integers(1, 4))):
            p = rng.random((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            p[p < 0.3] = 0.0
            p.flat[rng.integers(0, p.size)] = 1.0
            layers.append(p)
        dna = _spm(layers)
        e_one = expected_density(dna, 1.0)
        target = float(rng.uniform(0.01, 1.0)) * e_one
        res = calibrate_alpha(dna, target)
        assert not res.saturated
        assert res.iterations == 0
        assert res.alpha == target / e_one
        assert abs(res.expected - target) <= 1e-12
