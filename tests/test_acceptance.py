"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
"criterion N PASS/FAIL" line with the measured numbers.
"""

import statistics
import time

import numpy as np
import pytest

from evosynth.dataio import load_lineage_report, load_model, load_model_meta, save_model
from evosynth.genetics import (
    calibrate_alpha,
    expected_density,
    synthesize_offspring,
)
from evosynth.halfprec import (
    SATURATE,
    TO_INFINITY,
    decode_array,
    decode_f16,
    encode_array,
    encode_f16,
)
from evosynth.netcore import DenseLayer, LayerSpec, gradients, init_network
from evosynth.rng import substream, uniform_block

from helpers import fd_grad
from pinned_lineages import evolve_pinned

MASTER_SEEDS = (1, 2, 3, 4, 5)


def _criterion(num: int, name: str, ok: bool, details: str) -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {name} ({details})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def five_runs(pinned_run):
    """Five 13-generation runs of the 16-64-32-2 network, one per master seed."""
    runs = [pinned_run("lineage-small", seed) for seed in MASTER_SEEDS]
    return [r.lineage for r in runs], [r.out for r in runs], sum(r.seconds for r in runs)


def test_criterion_1_sparsification(five_runs):
    lineages, _, elapsed = five_runs
    ratios = [lin.records[0].active_synapses / lin.records[-1].active_synapses
              for lin in lineages]
    completed = [len(lin.records) for lin in lineages]
    ok = (statistics.median(ratios) >= 10.0
          and min(ratios) >= 6.7
          and all(n == 13 for n in completed)
          and elapsed <= 180.0)
    _criterion(1, "ten-fold sparsification over 13 generations", ok,
               f"median ratio {statistics.median(ratios):.3g}, min {min(ratios):.3g}, "
               f"generations {completed}, runtime {elapsed:.1f}s <= 180s")


def test_criterion_2_metric_retention(five_runs):
    lineages, _, _ = five_runs
    dp = [abs(lin.records[-1].precision - lin.records[0].precision)
          for lin in lineages]
    dr = [abs(lin.records[-1].recall - lin.records[0].recall)
          for lin in lineages]
    med_p, med_r = statistics.median(dp), statistics.median(dr)
    ok = med_p <= 0.05 and med_r <= 0.05
    _criterion(2, "precision and recall retained at the final generation", ok,
               f"median |d precision| {med_p:.4f}, median |d recall| {med_r:.4f}, bound 0.05")


def test_criterion_3_macs_speedup_proxy(five_runs):
    # a proxy for inference speedup: arithmetic work, not measured frame rates
    lineages, _, _ = five_runs
    proxies = [lin.records[0].macs / lin.records[-1].macs for lin in lineages]
    ok = min(proxies) >= 5.0
    _criterion(3, "MAC-count speedup proxy of at least 5x", ok,
               f"per-seed proxies {[f'{p:.3g}' for p in proxies]}, min {min(proxies):.3g}")


def test_criterion_4_codec_exactness():
    start = time.monotonic()
    ok = True
    notes = []

    codes = np.arange(65536, dtype=np.uint16)
    values = decode_array(codes)
    nan_codes = np.isnan(values)
    expected = np.where(nan_codes, np.uint16(0x7E00), codes)
    for overflow in (SATURATE, TO_INFINITY):
        back = encode_array(values, overflow)
        if not np.array_equal(back, expected):
            ok = False
            notes.append(f"round-trip mismatch under {overflow}")

    n = 1_000_000
    u = uniform_block(411, 3 * n).reshape(3, n)
    exponent = np.floor(u[0] * 29.0).astype(np.int64) - 14  # [-14, 14]: normal range
    mantissa = 1.0 + u[1]
    sign = np.where(u[2] < 0.5, -1.0, 1.0)
    x = (sign * np.ldexp(mantissa, exponent)).astype(np.float32)
    xd = x.astype(np.float64)
    q = decode_array(encode_array(x)).astype(np.float64)
    max_rel = float((np.abs(q - xd) / np.abs(xd)).max())
    if not max_rel <= 2.0**-11:
        ok = False
        notes.append(f"random relative error {max_rel:.3e}")

    with np.errstate(over="ignore"):
        reference = (
            encode_f16(1.0) == 0x3C00 == int(np.float16(1.0).view(np.uint16)),
            decode_f16(encode_f16(2049.0)) == 2048.0 == float(np.float16(2049.0)),
            decode_f16(encode_f16(0.1)) == 0.0999755859375 == float(np.float16(0.1)),
            decode_f16(encode_f16(65520.0)) == 65504.0,
            decode_f16(encode_f16(65520.0, TO_INFINITY))
            == float(np.float16(65520.0)) == float("inf"),
        )
    if not all(reference):
        ok = False
        notes.append(f"reference values {reference}")

    elapsed = time.monotonic() - start
    if elapsed > 5.0:
        ok = False
        notes.append("too slow")
    _criterion(4, "binary16 codec exact against the reference converter", ok,
               f"65536-code round-trip, 1e6 random max rel {max_rel:.3e} <= 2^-11, "
               f"runtime {elapsed:.1f}s <= 5s" + ("; " + "; ".join(notes) if notes else ""))


def test_criterion_5_sampling_statistics():
    dna = [np.ones((1, 200), dtype=np.float64)]
    alpha = 0.5
    trials = 100_000
    counts = np.zeros((1, 200), dtype=np.int64)
    for t in range(trials):
        counts += synthesize_offspring(dna, alpha, substream(2024, t))[0]
    rates = counts / trials
    lo, hi = float(rates.min()), float(rates.max())
    bounds_ok = 0.4953 <= lo and hi <= 0.5047

    shapes = ((4, 6), (3, 10), (8, 5), (2, 12))
    worst = 0.0
    for k in range(100):
        n_layers = 1 + k % 2
        layers = []
        for li in range(n_layers):
            rows, cols = shapes[(k + li) % len(shapes)]
            p = uniform_block(substream(777, 2 * k + li), rows * cols).reshape(rows, cols)
            kill = uniform_block(substream(778, 2 * k + li), rows * cols).reshape(rows, cols)
            p[kill < 0.25] = 0.0
            if not np.count_nonzero(p):
                p[0, 0] = 0.5
            layers.append(p)
        reachable = expected_density(layers, 1.0)
        target = reachable * (0.05 + 0.9 * uniform_block(substream(779, k), 1)[0])
        result = calibrate_alpha(layers, target)
        achieved = expected_density(layers, result.alpha)
        worst = max(worst, abs(achieved - target))
    inversion_ok = worst <= 1e-3

    _criterion(5, "synthesis sampling statistics and density inversion",
               bounds_ok and inversion_ok,
               f"per-synapse retention in [{lo:.4f}, {hi:.4f}] vs [0.4953, 0.5047], "
               f"worst density inversion error {worst:.2e} <= 1e-3")


def _masked_random_net(spec, i):
    net = init_network(spec, seed=100 + i)
    for li, layer in enumerate(net.layers):
        shape = layer.weights.shape
        u = uniform_block(substream(200 + i, li), layer.weights.size).reshape(shape)
        mask = (u > 0.3).astype(np.uint8)
        bias = ((uniform_block(substream(300 + i, li), shape[0]) - 0.5) * 0.5)
        net.layers[li] = DenseLayer(
            weights=np.where(mask != 0, layer.weights, np.float32(0.0)),
            mask=mask,
            bias=bias.astype(np.float32),
            activation=layer.activation,
        )
    return net


def test_criterion_6_gradient_correctness():
    cases = [
        [LayerSpec(6, 8, "relu"), LayerSpec(8, 3, "relu")],
        [LayerSpec(5, 5, "sigmoid"), LayerSpec(5, 2, "sigmoid")],
        [LayerSpec(4, 7, "relu"), LayerSpec(7, 4, "relu")],
        [LayerSpec(10, 4, "sigmoid"), LayerSpec(4, 2, "sigmoid")],
        [LayerSpec(3, 3, "relu"), LayerSpec(3, 3, "relu")],
    ]
    worst = 0.0
    masked_exact = True
    for i in range(10):
        spec = cases[i % len(cases)]
        net = _masked_random_net(spec, i)
        n_params = sum(l.weights.size + l.bias.size for l in net.layers)
        assert n_params <= 100
        in_dim, n_classes = spec[0].in_dim, spec[-1].out_dim
        x = ((uniform_block(substream(400 + i, 0), 8 * in_dim) - 0.5) * 4.0).reshape(8, in_dim)
        y = (uniform_block(substream(400 + i, 1), 8) * n_classes).astype(np.int64)
        g = gradients(net, x, y)
        for li, layer in enumerate(net.layers):
            for idx in np.ndindex(layer.weights.shape):
                analytic = float(g.weights[li][idx])
                if layer.mask[idx] == 0:
                    masked_exact = masked_exact and analytic == 0.0
                    continue
                fd = fd_grad(net, x, y, li, "weights", idx)
                worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
            for bi in range(layer.bias.shape[0]):
                fd = fd_grad(net, x, y, li, "bias", bi)
                analytic = float(g.biases[li][bi])
                worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
    ok = worst < 1e-4 and masked_exact
    _criterion(6, "analytic gradients match central finite differences", ok,
               f"10 networks, worst relative error {worst:.2e} < 1e-4, "
               f"masked gradients exactly zero: {masked_exact}")


def test_criterion_7_determinism_and_persistence(five_runs, tmp_path):
    lineages, dirs, _ = five_runs
    rerun_dir = evolve_pinned(tmp_path, "lineage-small", MASTER_SEEDS[0])
    first_dir = dirs[0]
    names = sorted(p.name for p in first_dir.iterdir())
    identical = names == sorted(p.name for p in rerun_dir.iterdir()) and all(
        (first_dir / n).read_bytes() == (rerun_dir / n).read_bytes() for n in names)

    round_trip = True
    for name in ("gen_1.json", "gen_13.json"):
        src = first_dir / name
        net = load_model(str(src))
        meta = load_model_meta(str(src))
        copy = tmp_path / f"copy_{name}"
        save_model(net, str(copy), seed=meta.seed, alpha_history=meta.alpha_history)
        round_trip = round_trip and src.read_bytes() == copy.read_bytes()
        again = load_model(str(copy))
        for a, b in zip(net.layers, again.layers):
            round_trip = round_trip and a.weights.tobytes() == b.weights.tobytes()

    monotone = True
    for lin, d in zip(lineages, dirs):
        actives = [r.active_synapses for r in lin.records]
        monotone = monotone and all(a >= b for a, b in zip(actives, actives[1:]))
        column = [row.active_synapses for row in load_lineage_report(str(d / "lineage.csv"))]
        monotone = monotone and column == actives

    ok = identical and round_trip and monotone
    _criterion(7, "byte-identical reruns, exact persistence, monotone sparsity", ok,
               f"{len(names)} files compared, round-trip bit-identical: {round_trip}, "
               f"active synapses non-increasing in all {len(lineages)} runs: {monotone}")
