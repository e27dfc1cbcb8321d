"""Network construction, forward/backward math and the training loop."""

import hashlib
import json
import math

import numpy as np
import pytest

from evosynth import netcore
from evosynth.dataio import Dataset, synth_gaussians
from evosynth.errors import (
    DatasetTooSmall,
    InvalidLabel,
    InvalidSpec,
    NumericFailure,
    ShapeMismatch,
)
from evosynth.netcore import (
    DenseLayer,
    LayerSpec,
    Network,
    TrainConfig,
    TrainingLog,
    _backprop,
    _forward_core,
    _grad_masks,
    _live_rows,
    _log_softmax,
    _masked,
    _nll,
    _working_params,
    count_active_synapses,
    evaluate_classifier,
    forward,
    forward_batch,
    gradients,
    inference_cost,
    init_network,
    live_counts,
    mean_loss,
    train,
    validation_split,
)
from evosynth.rng import permutation, substream

from helpers import fd_grad


def _small_net(seed=0, activation="relu"):
    return init_network([LayerSpec(3, 4, activation), LayerSpec(4, 2, activation)], seed=seed)


# construction


def test_init_deterministic_and_glorot_bounded():
    a = init_network([LayerSpec(8, 6), LayerSpec(6, 3)], seed=123)
    b = init_network([LayerSpec(8, 6), LayerSpec(6, 3)], seed=123)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert la.weights.dtype == np.float32
        limit = np.sqrt(6.0 / (la.weights.shape[0] + la.weights.shape[1]))
        assert np.all(np.abs(la.weights) <= limit)
        assert np.all(la.mask == 1)
        assert np.all(la.bias == 0.0)
    assert a.generation == 1
    assert a.precision_tag == "full"
    c = init_network([LayerSpec(8, 6), LayerSpec(6, 3)], seed=124)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


def test_init_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        init_network([], seed=0)
    with pytest.raises(InvalidSpec):
        init_network([LayerSpec(0, 3)], seed=0)
    with pytest.raises(InvalidSpec):
        init_network([LayerSpec(3, 0)], seed=0)
    with pytest.raises(InvalidSpec):
        init_network([LayerSpec(3, 4), LayerSpec(5, 2)], seed=0)  # 4 != 5
    with pytest.raises(InvalidSpec):
        init_network([LayerSpec(3, 4, "tanh")], seed=0)


# forward


def test_forward_softmax_sums_to_one():
    net = _small_net(seed=1)
    rng = np.random.default_rng(0)
    for scale in (1.0, 100.0, 10000.0):
        probs = forward(net, rng.normal(scale=scale, size=3))
        assert probs.dtype == np.float32
        assert probs.shape == (2,)
        assert np.all(probs >= 0.0)
        assert abs(float(probs.sum()) - 1.0) <= 1e-6


def test_forward_batch_matches_single():
    net = _small_net(seed=4, activation="sigmoid")
    x = np.random.default_rng(1).normal(size=(10, 3))
    batch = forward_batch(net, x)
    assert batch.shape == (10, 2)
    for i in range(10):
        assert np.allclose(batch[i], forward(net, x[i]), atol=1e-7)


def test_forward_shape_mismatch():
    net = _small_net()
    with pytest.raises(ShapeMismatch):
        forward(net, [1.0, 2.0])
    with pytest.raises(ShapeMismatch):
        forward_batch(net, np.zeros((5, 7)))


def test_mean_loss_hand_value():
    # single layer, zero weights: uniform softmax over 2 classes
    net = Network([DenseLayer(
        weights=np.zeros((2, 2), dtype=np.float32),
        mask=np.ones((2, 2), dtype=np.uint8),
        bias=np.zeros(2, dtype=np.float32),
    )])
    loss = mean_loss(net, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
    assert abs(loss - np.log(2.0)) < 1e-12


def test_mean_loss_validates_labels():
    net = _small_net()
    x = np.zeros((2, 3))
    with pytest.raises(InvalidLabel):
        mean_loss(net, x, np.array([0, 2]))
    with pytest.raises(InvalidLabel):
        mean_loss(net, x, np.array([-1, 0]))
    with pytest.raises(ShapeMismatch):
        mean_loss(net, np.zeros((0, 3)), np.array([], dtype=int))


# gradients


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_gradients_match_finite_differences(activation):
    net = _small_net(seed=17, activation=activation)
    net.layers[0].mask[1, 2] = 0
    net.layers[0].weights[1, 2] = 0.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    g = gradients(net, x, y)
    for li, layer in enumerate(net.layers):
        for idx in np.ndindex(layer.weights.shape):
            if layer.mask[idx] == 0:
                assert g.weights[li][idx] == 0.0
                continue
            fd = fd_grad(net, x, y, li, "weights", idx)
            assert _rel_err(fd, float(g.weights[li][idx])) < 1e-4
        for bi in range(layer.bias.shape[0]):
            fd = fd_grad(net, x, y, li, "bias", (bi,))
            assert _rel_err(fd, float(g.biases[li][bi])) < 1e-4


def test_gradients_loss_matches_mean_loss():
    net = _small_net(seed=2)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5)
    g = gradients(net, x, y)
    assert abs(g.loss - mean_loss(net, x, y)) < 1e-12


def test_gradients_calls_share_no_memory():
    net = _dead_neuron_net("sigmoid")
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(7, 4)), rng.integers(0, 2, size=7)
    arrays = [g for grads in (gradients(net, x, y), gradients(net, x, y))
              for g in grads.weights + grads.biases]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_gradients_masked_positions_exactly_zero():
    net = init_network([LayerSpec(5, 4), LayerSpec(4, 3)], seed=9)
    rng = np.random.default_rng(11)
    for layer in net.layers:
        drop = rng.random(layer.mask.shape) < 0.5
        layer.mask[drop] = 0
        layer.weights[drop] = 0.0
    # keep at least one active synapse per row for a meaningful forward pass
    for layer in net.layers:
        layer.mask[:, 0] = 1
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, size=6)
    g = gradients(net, x, y)
    for li, layer in enumerate(net.layers):
        assert np.all(g.weights[li][layer.mask == 0] == 0.0)


# training


def _toy_dataset(n=120, seed=5):
    return synth_gaussians(n_per_class=n, n_features=4, separation=3.0, seed=seed)


def test_train_deterministic():
    ds = _toy_dataset()
    net = init_network([LayerSpec(4, 8), LayerSpec(8, 2)], seed=21)
    cfg = TrainConfig(max_epochs=12, seed=77)
    out1, log1 = train(net, ds, cfg)
    out2, log2 = train(net, ds, cfg)
    for a, b in zip(out1.layers, out2.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
    assert log1.train_losses == log2.train_losses
    assert log1.val_losses == log2.val_losses
    assert log1.best_epoch == log2.best_epoch


# sha256 over the binary32 weights and biases and the float64 loss curves
# that train returns for training seeds 1, 2 and 3 (OpenBLAS 0.3, x86-64,
# SkylakeX kernel; the same with 1 or 2 BLAS threads). The loss curves
# depend on the kernel: under Haswell, Zen, Sandybridge or Prescott they
# differ by up to 2 ulp, and this digest does not match
TRAIN_ORACLE_SHA256 = "3e9171759f99d03d469d0da2b646ab9730c67c1548546d956c92c63abf0d1ba2"


def test_train_binary32_oracle():
    """Pins train bit for bit on the acceptance shape and data.

    Model files hold binary16 weights and lineage.csv rounds to 6 digits,
    so the output-byte digests miss a change of 1e-7 relative in the SGD
    step; this digest does not.
    """
    ds = synth_gaussians(500, 16, 3.0, seed=0)
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        net = init_network([LayerSpec(16, 64), LayerSpec(64, 32), LayerSpec(32, 2)], seed=seed)
        trained, log = train(net, ds, TrainConfig(seed=seed))
        for layer in trained.layers:
            digest.update(layer.weights.tobytes())
            digest.update(layer.bias.tobytes())
        digest.update(np.asarray(log.train_losses, dtype=np.float64).tobytes())
        digest.update(np.asarray(log.val_losses, dtype=np.float64).tobytes())
    assert digest.hexdigest() == TRAIN_ORACLE_SHA256


# plain spellings of the kernels, kept as references: the dense loop below
# and the dense inference path run on them, not on the kernels under test


def _ref_forward_core(ws, bs, acts, x):
    a = x
    activations = [a]
    logits = None
    for i, (w, b) in enumerate(zip(ws, bs)):
        z = a @ w.T + b
        if i == len(ws) - 1:
            logits = z
        elif acts[i] == "relu":
            a = np.maximum(z, 0.0)
            activations.append(a)
        else:
            with np.errstate(over="ignore"):
                a = 1.0 / (1.0 + np.exp(-z))
            activations.append(a)
    return activations, logits


def _ref_log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _ref_nll(logp, y):
    return float(-logp[np.arange(len(y)), y].mean())


def _dense_backprop(ws, bs, acts, masks, x, y):
    """``(w_grads, b_grads, loss)`` in fresh arrays; every mask is float64."""
    n = len(y)
    activations, logits = _ref_forward_core(ws, bs, acts, x)
    logp = _ref_log_softmax(logits)
    loss = _ref_nll(logp, y)
    dz = np.exp(logp)
    dz[np.arange(n), y] -= 1.0
    dz /= n
    w_grads = [None] * len(ws)
    b_grads = [None] * len(ws)
    for i in range(len(ws) - 1, -1, -1):
        w_grads[i] = (dz.T @ activations[i]) * masks[i]
        b_grads[i] = dz.sum(axis=0)
        if i > 0:
            a = activations[i]
            grad = (a > 0.0).astype(np.float64) if acts[i - 1] == "relu" else a * (1.0 - a)
            dz = (dz @ ws[i]) * grad
    return w_grads, b_grads, loss


def test_log_softmax_and_nll_match_reference_spellings():
    rng = np.random.default_rng(21)
    for k in range(300):  # logits of 1-64 rows and 2-5 classes: plain, tied, or +-1e300
        n, c = int(rng.integers(1, 65)), int(rng.integers(2, 6))
        logits = rng.normal(scale=rng.choice([0.1, 3.0, 50.0]), size=(n, c))
        if k % 3 == 1:
            logits = np.round(logits)  # ties within rows
        elif k % 3 == 2:
            logits[rng.random((n, c)) < 0.3] = 1e300
            logits[rng.random((n, c)) < 0.3] = -1e300
        y = rng.integers(0, c, size=n)
        logp = _log_softmax(logits)
        assert logp.tobytes() == _ref_log_softmax(logits).tobytes(), f"case {k}"
        assert np.float64(_nll(logp, y)).tobytes() == np.float64(_ref_nll(logp, y)).tobytes(), \
            f"case {k}"


def test_backprop_matches_reference_spelling():
    rng = np.random.default_rng(22)
    partial = whole = 0
    for k in range(300):
        n, c = int(rng.integers(1, 65)), int(rng.integers(2, 6))
        widths = rng.integers(1, 9, size=rng.integers(1, 4)).tolist() + [c]
        net = _random_masked_net(rng, widths, rng.choice([0.3, 0.7, 1.0]),
                                 rng.choice(["relu", "sigmoid"]))
        ws, bs, acts = _working_params(net)
        if k % 4 == 3:  # output logits of +-1e300
            bs[-1] = rng.choice([1e300, -1e300, 0.0], size=c)
        masks = [l.mask for l in net.layers]
        partial += sum(not m.all() for m in masks)
        whole += sum(bool(m.all()) for m in masks)
        x = rng.normal(scale=2.0, size=(n, widths[0]))
        y = rng.integers(0, c, size=n)
        w_grads = [np.empty_like(w) for w in ws]
        b_grads = [np.empty_like(b) for b in bs]
        with np.errstate(all="ignore"):
            loss = _backprop(ws, bs, acts, _grad_masks(masks), x, y, np.eye(c)[y], w_grads, b_grads)
            want_w, want_b, want_loss = _dense_backprop(
                ws, bs, acts, [m.astype(np.float64) for m in masks], x, y)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes(), f"case {k}"
        for i in range(len(ws)):
            assert w_grads[i].tobytes() == want_w[i].tobytes(), f"case {k} layer {i} weights"
            assert b_grads[i].tobytes() == want_b[i].tobytes(), f"case {k} layer {i} bias"
    assert partial > 100 and whole > 100, "too few masks of one kind: the case tests little"


# the sparse train oracle: train runs on the backward-live sub-network, and
# must give the binary32 parameters of the dense loop below bit for bit


def _dense_train(net, dataset, cfg):
    """The dense training loop train used before it dropped dead neurons."""
    x = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    train_idx, val_idx = validation_split(len(y), cfg.validation_fraction, cfg.seed)
    x_val, y_val = x[val_idx], y[val_idx]

    ws, bs, acts = _working_params(net)
    masks = [l.mask.astype(np.float64) for l in net.layers]
    vel_w = [np.zeros_like(w) for w in ws]
    vel_b = [np.zeros_like(b) for b in bs]

    def val_loss_of(cur_ws, cur_bs) -> float:
        _, logits = _ref_forward_core(cur_ws, cur_bs, acts, x_val)
        return _ref_nll(_ref_log_softmax(logits), y_val)

    log = TrainingLog()
    best_val = val_loss_of(ws, bs)
    best_ws = [w.copy() for w in ws]
    best_bs = [b.copy() for b in bs]
    epochs_since_best = 0

    momentum, lr = cfg.momentum, cfg.learning_rate
    for epoch in range(1, cfg.max_epochs + 1):
        order = permutation(len(train_idx), substream(cfg.seed, epoch))
        shuffled = train_idx[order]
        loss_sum = 0.0
        for start in range(0, len(shuffled), cfg.batch_size):
            idx = shuffled[start:start + cfg.batch_size]
            w_grads, b_grads, loss = _dense_backprop(ws, bs, acts, masks, x[idx], y[idx])
            assert math.isfinite(loss)
            loss_sum += loss * len(idx)
            for params, vels, grads in ((ws, vel_w, w_grads), (bs, vel_b, b_grads)):
                for param, vel, grad in zip(params, vels, grads):
                    vel *= momentum
                    vel -= np.multiply(grad, lr, out=grad)
                    param += vel
        epoch_val = val_loss_of(ws, bs)
        log.train_losses.append(loss_sum / len(shuffled))
        log.val_losses.append(epoch_val)
        if epoch_val < best_val:
            best_val = epoch_val
            best_ws = [w.copy() for w in ws]
            best_bs = [b.copy() for b in bs]
            log.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                log.stopped_early = True
                break

    layers = [
        DenseLayer(
            weights=_masked(best_ws[i], masks[i]).astype(np.float32),
            mask=net.layers[i].mask.copy(),
            bias=best_bs[i].astype(np.float32),
            activation=net.layers[i].activation,
        )
        for i in range(len(net.layers))
    ]
    return Network(layers=layers, generation=net.generation), log


# BLAS sums the dense path's extra zero terms in its own order, so the
# float64 loss curves may differ in the last bits; the binary32 parameters,
# best_epoch and epoch count may not
LOSS_ULP_BOUND = 64


def _ulps(a, b) -> int:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    return int(np.abs(a.view(np.int64) - b.view(np.int64)).max(initial=0))


def _assert_matches_dense(net, dataset, cfg, label):
    got, log = train(net, dataset, cfg)
    want, ref = _dense_train(net, dataset, cfg)
    for i, (a, b) in enumerate(zip(got.layers, want.layers)):
        assert a.weights.tobytes() == b.weights.tobytes(), f"{label}: layer {i} weights"
        assert a.bias.tobytes() == b.bias.tobytes(), f"{label}: layer {i} bias"
    assert (log.best_epoch, log.stopped_early) == (ref.best_epoch, ref.stopped_early), label
    assert len(log.train_losses) == len(ref.train_losses) == len(log.val_losses), label
    worst = max(_ulps(log.train_losses, ref.train_losses), _ulps(log.val_losses, ref.val_losses))
    print(f"{label}: best_epoch {log.best_epoch}, {len(log.val_losses)} epochs, "
          f"loss curves within {worst} ulp of the dense loop")
    assert worst <= LOSS_ULP_BOUND, label
    return got, log


def _dead_neuron_net(activation):
    """4-6-5-2 with dead hidden neurons, each dead bias -0.0.

    Hidden layer 0: neuron 2 is dead but keeps all its inputs, neuron 5 is
    dead because its one outgoing synapse ends at a dead neuron, and
    neuron 4 has no inputs but is live. Hidden layer 1: neuron 3 is dead.
    """
    net = init_network([LayerSpec(4, 6, activation), LayerSpec(6, 5, activation),
                        LayerSpec(5, 2, activation)], seed=3)
    m0, m1, m2 = (l.mask for l in net.layers)
    m0[4, :] = 0
    m1[:, 2] = 0
    m1[:, 5] = 0
    m1[3, 5] = 1
    m2[:, 3] = 0
    for layer in net.layers:
        layer.weights[layer.mask == 0] = 0.0
    net.layers[0].bias[4] = 0.3
    net.layers[0].bias[[2, 5]] = -0.0
    net.layers[1].bias[3] = -0.0
    net.layers[0].weights[2, 0] = -0.0
    return net


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("learning_rate, improves", [(0.05, True), (10.0, False)],
                         ids=["best_epoch>0", "best_epoch=0"])
def test_train_matches_dense_loop_with_dead_neurons(activation, learning_rate, improves):
    net = _dead_neuron_net(activation)
    live = _live_rows([l.mask for l in net.layers])
    assert [np.flatnonzero(~r).tolist() for r in live] == [[2, 5], [3], []]
    cfg = TrainConfig(learning_rate=learning_rate, max_epochs=6, patience=3, seed=7)
    with np.errstate(over="ignore"):
        got, log = _assert_matches_dense(net, _toy_dataset(), cfg, f"{activation} lr {learning_rate}")
    assert (log.best_epoch > 0) == improves
    # the dense SGD step turns a dead -0.0 into +0.0; the starting state keeps it
    dead = [got.layers[0].bias[2], got.layers[0].bias[5], got.layers[1].bias[3],
            got.layers[0].weights[2, 0]]
    assert all(v == 0.0 for v in dead)
    assert [bool(np.signbit(v)) for v in dead] == [not improves] * 4


def _live_input_count(net) -> int:
    """How many input columns feed a backward-live first-layer neuron."""
    live = _live_rows([l.mask for l in net.layers])
    return int(np.count_nonzero(net.layers[0].mask[live[0]].any(axis=0)))


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("live_inputs", [[1, 3], []], ids=["k=2", "k=0"])
def test_train_matches_dense_loop_with_dead_input_columns(activation, live_inputs):
    """Live first-layer neurons 0, 1 and 3 read only ``live_inputs`` (4 reads
    none); dead neuron 2 keeps every input and its -0.0 in column 0, and live
    neuron 0 holds -0.0 in its masked slot of column 0. With no live input
    column, the first-layer matmuls have an empty inner dimension."""
    net = _dead_neuron_net(activation)
    m0, w0 = net.layers[0].mask, net.layers[0].weights
    dead_inputs = np.ix_([0, 1, 3], [c for c in range(4) if c not in live_inputs])
    m0[dead_inputs] = 0
    w0[dead_inputs] = 0.0
    w0[0, 0] = -0.0
    assert _live_input_count(net) == len(live_inputs) < net.in_dim
    cfg = TrainConfig(max_epochs=6, patience=3, seed=7)
    got, _ = _assert_matches_dense(net, _toy_dataset(), cfg, f"{activation} k={len(live_inputs)}")
    assert got.layers[0].weights[0, 0] == 0.0 and not np.signbit(got.layers[0].weights[0, 0])


@pytest.fixture(scope="module")
def lineage_children(pinned_run):
    """The dataset and, by generation, what train started from: acceptance lineage, seed 1."""
    run = pinned_run("lineage-small", 1)
    return run.dataset, run.train_calls


@pytest.fixture(scope="module")
def wide_lineage_children(pinned_run):
    """The same for the 256-128-64-2 shape of the lineage-wide benchmark."""
    run = pinned_run("lineage-wide", 1)
    return run.dataset, run.train_calls


# sha256 over the binary32 weights and biases, best_epoch and epoch count
# that train returns on every child (generation >= 2) of the
# lineage_children fixture (OpenBLAS 0.3, x86-64; the same with 1 or 2 BLAS
# threads); the float64 loss curves are left out, since BLAS may sum a live
# block's terms in another order than the dense path's
SPARSE_TRAIN_ORACLE_SHA256 = "3bead8961a8d6c7bde4a64cbb46abeb66b1fb3eaad09b6a5bd94fe6e4950b847"


def test_train_binary32_oracle_on_sparse_children(lineage_children):
    ds, calls = lineage_children
    children = sorted(g for g in calls if g >= 2)
    assert len(children) >= 3, "too few children: the case tests little"
    digest = hashlib.sha256()
    for g in children:
        net, cfg = calls[g]
        trained, log = train(net, ds, cfg)
        for layer in trained.layers:
            digest.update(layer.weights.tobytes())
            digest.update(layer.bias.tobytes())
        digest.update(np.array([log.best_epoch, len(log.val_losses)], dtype=np.int64).tobytes())
    assert digest.hexdigest() == SPARSE_TRAIN_ORACLE_SHA256


@pytest.mark.parametrize("generation", [4, 7, 13])
def test_train_matches_dense_loop_on_lineage(lineage_children, generation):
    ds, calls = lineage_children
    net, cfg = calls[generation]
    live = _live_rows([l.mask for l in net.layers])
    assert not all(r.all() for r in live), "no dead neuron: the case tests nothing"
    _assert_matches_dense(net, ds, cfg, f"small seed 1 generation {generation}")


@pytest.mark.parametrize("generation", [4, 13])
def test_train_matches_dense_loop_on_wide_lineage(wide_lineage_children, generation):
    ds, calls = wide_lineage_children
    net, cfg = calls[generation]
    k = _live_input_count(net)
    assert k < net.in_dim, "every input column is live: the case tests nothing"
    _assert_matches_dense(net, ds, cfg, f"wide seed 1 generation {generation}, {k} live inputs")


def _reachable_rows(masks):
    """Brute force: a neuron is live if some chain of synapses joins it to an output."""
    live = []
    for i, mask in enumerate(masks):
        rows = []
        for j in range(mask.shape[0]):
            frontier = {j}
            for later in masks[i + 1:]:
                frontier = {r for r in range(later.shape[0]) if any(later[r, c] for c in frontier)}
            rows.append(bool(frontier))
        live.append(rows)
    return live


def test_live_rows_match_brute_force_reachability():
    rng = np.random.default_rng(11)
    for _ in range(300):
        widths = rng.integers(1, 7, size=rng.integers(2, 6)).tolist()
        density = rng.choice([0.1, 0.3, 0.6])
        masks = [(rng.random((b, a)) < density).astype(np.uint8) for a, b in zip(widths, widths[1:])]
        assert [r.tolist() for r in _live_rows(masks)] == _reachable_rows(masks)


def _random_masked_net(rng, widths, density, activation="relu"):
    layers = []
    for a, b in zip(widths, widths[1:]):
        mask = (rng.random((b, a)) < density).astype(np.uint8)
        weights = np.where(mask != 0, rng.normal(size=(b, a)), 0.0).astype(np.float32)
        layers.append(DenseLayer(weights, mask, rng.normal(size=b).astype(np.float32), activation))
    return Network(layers)


def test_live_counts_match_brute_force_reachability():
    rng = np.random.default_rng(12)
    for _ in range(300):
        widths = rng.integers(1, 7, size=rng.integers(2, 6)).tolist()
        net = _random_masked_net(rng, widths, rng.choice([0.1, 0.3, 0.6]))
        masks = [l.mask for l in net.layers]
        reach = _reachable_rows(masks)
        synapses = sum(int(m[r, c]) for m, rows in zip(masks, reach)
                       for r in range(m.shape[0]) if rows[r] for c in range(m.shape[1]))
        assert live_counts(net) == (synapses, synapses + sum(map(sum, reach)))


# the inference plan: forward, forward_batch and mean_loss run the live
# sub-network, and must give the dense path's float32 probabilities bit for bit


def _assert_c_ordered_blocks(net):
    """Every float64 weight block of the live sub-network has the dense layout."""
    for ws in (netcore._live_params(net.layers)[0], netcore._plan(net)[0]):
        for i, w in enumerate(ws):
            assert w.dtype == np.float64 and w.flags.c_contiguous, f"layer {i}"


def _dense_probabilities(net, x):
    """The dense inference path forward_batch used before it had a plan."""
    ws, bs, acts = _working_params(net)
    _, logits = _ref_forward_core(ws, bs, acts, np.asarray(x, dtype=np.float64))
    return np.exp(_ref_log_softmax(logits)).astype(np.float32)


def _assert_plan_matches_dense(net, x, label, single_rows=40):
    """forward_batch and forward give the dense probabilities bit for bit,
    and raise NumericFailure where they are not finite."""
    want = _dense_probabilities(net, x)
    cases = [(forward_batch, x, want, "forward_batch")]
    cases += [(forward, x[i], want[i], f"forward row {i}")
              for i in range(min(single_rows, len(x)))]
    for call, rows, probs, name in cases:
        if np.isfinite(probs).all():
            assert call(net, rows).tobytes() == probs.tobytes(), f"{label}: {name}"
        else:
            with pytest.raises(NumericFailure, match="non-finite class probability"):
                call(net, rows)


@pytest.fixture(scope="module")
def stored_lineages(pinned_run):
    """Generations 1, 4, 7 and 13 of master seed 1 as evolve stores them,
    on the acceptance shape and on the wide one, with held-out rows."""
    cases = {}
    for shape in ("small", "wide"):
        run = pinned_run(f"lineage-{shape}", 1)
        heldout = synth_gaussians(500, run.dataset.features.shape[1], 3.0, seed=2**32).features
        cases[shape] = ({g: run.stored[g] for g in (1, 4, 7, 13)}, heldout)
    return cases


@pytest.mark.parametrize("generation", [1, 4, 7, 13])
@pytest.mark.parametrize("shape", ["small", "wide"])
def test_plan_matches_dense_path_on_lineage(stored_lineages, shape, generation):
    nets, heldout = stored_lineages[shape]
    net = nets[generation]
    live = _live_rows([l.mask for l in net.layers])
    assert all(r.all() for r in live) == (generation == 1), "only generation 1 is all live"
    _assert_plan_matches_dense(net, heldout, f"{shape} seed 1 generation {generation}")
    planned = [w.shape for w in netcore._plan(net)[0]]
    assert planned == [(int(r.sum()), _live_input_count(net) if i == 0 else int(live[i - 1].sum()))
                       for i, r in enumerate(live)]
    if (shape, generation) == ("wide", 13):
        assert planned[0][1] <= 4, "wide generation 13 reads more input columns than it did"
    _assert_c_ordered_blocks(net)


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_plan_matches_dense_path_with_dead_neurons(activation):
    net = _dead_neuron_net(activation)
    x = np.random.default_rng(5).normal(scale=2.0, size=(64, 4))
    _assert_plan_matches_dense(net, x, activation)
    _assert_c_ordered_blocks(net)
    ws, bs, acts = _working_params(net)
    _, logits = _forward_core(ws, bs, acts, x)
    y = np.arange(64) % 2
    assert mean_loss(net, x, y) == _nll(_log_softmax(logits), y)


def test_plan_matches_dense_path_on_random_masks():
    # float64, float16, float32, int64 and nested-list inputs, each
    # activation on every other net; the narrowed first layer converts only
    # its columns, and a NaN or inf in a read or dropped column is rejected
    rng = np.random.default_rng(13)
    narrowed = 0
    for k in range(200):
        widths = rng.integers(1, 9, size=rng.integers(2, 5)).tolist()
        widths[-1] = max(widths[-1], 2)
        net = _random_masked_net(rng, widths, rng.choice([0.2, 0.5, 0.9]),
                                 ("relu", "sigmoid")[k % 2])
        x = rng.normal(scale=2.0, size=(16, widths[0]))
        for kind, inputs in (("float64", x), ("float16", x.astype(np.float16)),
                             ("float32", x.astype(np.float32)),
                             ("int64", np.round(x).astype(np.int64)), ("list", x.tolist())):
            _assert_plan_matches_dense(net, inputs, f"net {k} {kind}", 4)
        bad = x.copy()
        bad[3, k % widths[0]] = (np.nan, np.inf, -np.inf)[k % 3]
        for call, rows in ((forward_batch, bad), (forward, bad[3])):
            with pytest.raises(NumericFailure, match="non-finite feature value"):
                call(net, rows)
        narrowed += _live_input_count(net) < widths[0]
    assert narrowed > 50, "too few nets drop an input column: the case tests little"


def test_plan_freezes_the_arrays_it_was_built_from():
    net = _dead_neuron_net("relu")
    x = np.random.default_rng(6).normal(size=(8, 4))
    before = forward(net, x[0])
    for layer in net.layers:
        for array in (layer.weights, layer.mask, layer.bias):
            assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        net.layers[2].bias[0] = 4.0
    fresh = net.copy()
    assert all(a.flags.writeable for l in fresh.layers for a in (l.weights, l.mask, l.bias))
    fresh.layers[2].bias[0] = 4.0
    assert forward(fresh, x[0]).tobytes() == _dense_probabilities(fresh, x[:1])[0].tobytes()
    assert forward(fresh, x[0])[0] > before[0]
    # a layer array replaced by a new one gets a new plan
    net.layers[2].bias = fresh.layers[2].bias
    assert forward_batch(net, x).tobytes() == forward_batch(fresh, x).tobytes()


def test_forward_does_not_go_through_forward_batch(monkeypatch):
    # a tracer that rebinds netcore.forward_batch must not count single rows
    net = _dead_neuron_net("sigmoid")
    x = np.random.default_rng(7).normal(size=(6, 4))
    want = [forward(net, row) for row in x]

    def fail(*args, **kwargs):
        raise AssertionError("forward called forward_batch")

    monkeypatch.setattr(netcore, "forward_batch", fail)
    assert all(netcore.forward(net, row).tobytes() == w.tobytes() for row, w in zip(x, want))


def test_forward_batch_rejects_non_finite_probabilities():
    net = _dead_neuron_net("relu").copy()
    x = np.ones((3, 4))
    net.layers[2].bias[0] = np.inf  # +inf logit: inf - inf in the softmax
    with pytest.raises(NumericFailure, match="non-finite class probability"):
        forward_batch(net, x)
    with pytest.raises(NumericFailure):
        forward(net, x[0])
    net = net.copy()
    net.layers[2].bias[0] = -np.inf  # a class that is never predicted is finite
    assert forward_batch(net, x)[:, 0].tolist() == [0.0, 0.0, 0.0]


# forward_batch and evaluate_classifier run a batch in row blocks; no block
# boundary may change a byte


def _block_length(net) -> int:
    """Rows per block of ``_blocked_probabilities`` on ``net``."""
    return max(1, netcore.BLOCK_VALUES // max(1, netcore._plan(net)[0][0].shape[1]))


def _held_out_rows(net, n):
    """``n`` held-out rows from ``synth_gaussians(5000, ...)``, repeated past 5000."""
    x = synth_gaussians(5000, net.in_dim, 3.0, seed=2**32).features
    return np.resize(x, (n, net.in_dim))


def _assert_blocks_match_dense(net):
    rows = _block_length(net)
    x = _held_out_rows(net, 2 * rows + 17)
    want = _dense_probabilities(net, x)
    for n in (rows - 1, rows, rows + 1, 2 * rows + 17):
        assert forward_batch(net, x[:n]).tobytes() == want[:n].tobytes(), f"{n} rows"
    y = np.arange(len(x)) % 2
    confusion = np.bincount(2 * y + want.argmax(axis=1), minlength=4).reshape(2, 2)
    assert evaluate_classifier(net, x, y)["confusion"] == confusion.tolist()


@pytest.mark.parametrize("generation", [1, 4, 7, 13])
@pytest.mark.parametrize("shape", ["small", "wide"])
def test_blocks_match_dense_path_on_lineage(stored_lineages, monkeypatch, shape, generation):
    # 2**11 values per block keeps every batch within the 5000 held-out rows;
    # wide generations 7 and 13 read one column, 2**18 rows a block at full size
    monkeypatch.setattr(netcore, "BLOCK_VALUES", 2**11)
    net = stored_lineages[shape][0][generation]
    assert _block_length(net) == 2**11 // _live_input_count(net)
    _assert_blocks_match_dense(net)


@pytest.mark.parametrize("shape, rows", [("small", 16384), ("wide", 1024)])
def test_block_length_follows_the_read_columns(stored_lineages, shape, rows):
    # 2**18 float64 values; generation 1 reads every column, 16 small or 256 wide
    net = stored_lineages[shape][0][1]
    assert _block_length(net) == rows
    _assert_blocks_match_dense(net)


def test_forward_batch_on_zero_rows(stored_lineages):
    net = stored_lineages["wide"][0][1]
    probs = forward_batch(net, np.empty((0, net.in_dim), dtype=np.float32))
    assert probs.shape == (0, net.n_classes) and probs.dtype == np.float32


def test_blocks_run_a_net_whose_first_layer_reads_no_column():
    net = init_network([LayerSpec(3, 4), LayerSpec(4, 2)], seed=5)
    net.layers[0].mask[:] = 0
    net.layers[0].weights[:] = 0.0
    net.layers[0].bias[:] = [0.5, -1.0, 2.0, 0.25]
    rows = _block_length(net)
    assert netcore._plan(net)[0][0].shape == (4, 0) and rows == netcore.BLOCK_VALUES
    x = np.random.default_rng(9).normal(size=(rows + 1, 3))
    assert forward_batch(net, x).tobytes() == _dense_probabilities(net, x).tobytes()
    assert forward(net, x[0]).tobytes() == _dense_probabilities(net, x[:1])[0].tobytes()


def test_a_block_holds_a_row_wider_than_the_block():
    net = init_network([LayerSpec(netcore.BLOCK_VALUES + 1, 2), LayerSpec(2, 2)], seed=3)
    assert _block_length(net) == 1
    x = np.random.default_rng(10).normal(size=(3, net.in_dim))
    assert forward_batch(net, x).tobytes() == _dense_probabilities(net, x).tobytes()


def test_blocks_reject_non_finite_values(stored_lineages):
    net = stored_lineages["wide"][0][1]
    x = _held_out_rows(net, 2 * _block_length(net) + 17)
    y = np.arange(len(x)) % 2
    bad = x.copy()
    bad[-1, 5] = np.nan  # in the last block, after two whole ones
    inf_bias = net.copy()
    inf_bias.layers[-1].bias[0] = np.inf
    for call in (forward_batch, lambda net, x: evaluate_classifier(net, x, y)):
        with pytest.raises(NumericFailure, match="non-finite feature value"):
            call(net, bad)
        with pytest.raises(NumericFailure, match="non-finite class probability"):
            call(inf_bias, x)


def test_blocks_check_finiteness_block_by_block(stored_lineages, monkeypatch):
    # no isfinite pass over the whole batch: each sees one block, every column
    net = stored_lineages["wide"][0][1]
    rows = _block_length(net)
    x = _held_out_rows(net, 2 * rows + 17)
    y = np.arange(len(x)) % 2
    check, seen = netcore._finite, []
    monkeypatch.setattr(netcore, "_finite", lambda block: seen.append(block.shape) or check(block))
    for call in (forward_batch, lambda net, x: evaluate_classifier(net, x, y)):
        seen.clear()
        call(net, x)
        assert seen == [(rows, net.in_dim), (rows, net.in_dim), (17, net.in_dim)]


@pytest.mark.parametrize("shape", ["small", "wide"])
def test_mean_loss_is_not_blocked(stored_lineages, shape):
    # its sum runs over every row, so a block would change its order
    net = stored_lineages[shape][0][1]
    x = _held_out_rows(net, _block_length(net) + 1)
    y = np.arange(len(x)) % 2
    ws, bs, acts = _working_params(net)
    _, logits = _ref_forward_core(ws, bs, acts, np.asarray(x, dtype=np.float64))
    assert mean_loss(net, x, y) == _ref_nll(_ref_log_softmax(logits), y)


# every netcore entry point that takes features, called on (net, x, y)
FEATURE_ENTRY_POINTS = {
    "forward": lambda net, x, y: forward(net, x[4]),
    "forward_batch": lambda net, x, y: forward_batch(net, x),
    "mean_loss": mean_loss,
    "gradients": gradients,
    "evaluate_classifier": evaluate_classifier,
    "train": lambda net, x, y: train(net, Dataset(x, y), TrainConfig(max_epochs=0, seed=1)),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("column", ["dropped", "read"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", FEATURE_ENTRY_POINTS)
def test_entry_points_reject_non_finite_features(entry, value, column, dtype):
    """One rule for features: a NaN or inf anywhere is a numeric failure.
    Input column 2 feeds no neuron, so the live sub-network never reads it;
    column 0 feeds every hidden neuron through negative weights, where relu
    would turn +inf into 0.0 and leave the probabilities finite."""
    net = init_network([LayerSpec(3, 4), LayerSpec(4, 2)], seed=5)
    net.layers[0].mask[:, 2] = 0
    net.layers[0].weights[:, 2] = 0.0
    net.layers[0].weights[:, 0] = [-1.0, -0.5, -0.25, -2.0]
    x = np.random.default_rng(8).normal(size=(80, 3)).astype(dtype)
    y = np.arange(80) % 2
    FEATURE_ENTRY_POINTS[entry](net, x, y)  # finite features pass
    x[4, 2 if column == "dropped" else 0] = value
    with pytest.raises(NumericFailure, match="non-finite feature value"):
        FEATURE_ENTRY_POINTS[entry](net, x, y)


def test_train_returns_its_validation_split():
    ds = _toy_dataset()
    cfg = TrainConfig(max_epochs=2, seed=77)
    _, log = train(init_network([LayerSpec(4, 8), LayerSpec(8, 2)], seed=21), ds, cfg)
    tr, va = validation_split(len(ds), cfg.validation_fraction, cfg.seed)
    assert np.array_equal(log.train_indices, tr) and np.array_equal(log.val_indices, va)


def test_train_learns_separable_data():
    ds = _toy_dataset(n=200, seed=8)
    net = init_network([LayerSpec(4, 8), LayerSpec(8, 2)], seed=2)
    before = mean_loss(net, ds.features, ds.labels)
    trained, log = train(net, ds, TrainConfig(seed=3))
    after = mean_loss(trained, ds.features, ds.labels)
    assert after < before
    report = evaluate_classifier(trained, ds.features, ds.labels)
    assert report["accuracy"] >= 0.9
    assert log.best_epoch >= 1


def test_train_returns_arrays_of_its_own_and_leaves_its_input_alone():
    def arrays(network):
        return [a for l in network.layers for a in (l.weights, l.mask, l.bias)]

    net = _dead_neuron_net("relu")
    before = [a.tobytes() for a in arrays(net)]
    got, log = train(net, _toy_dataset(), TrainConfig(max_epochs=4, seed=7))
    assert log.best_epoch > 0
    assert [a.tobytes() for a in arrays(net)] == before
    returned = arrays(got)
    assert all(a.flags.owndata and a.flags.writeable for a in returned)
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(returned) for b in returned[i + 1:] + arrays(net))


def test_train_zero_epochs_returns_input_bits():
    ds = _toy_dataset()
    net = init_network([LayerSpec(4, 6), LayerSpec(6, 2)], seed=31)
    out, log = train(net, ds, TrainConfig(max_epochs=0, seed=1))
    for a, b in zip(out.layers, net.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
    assert log.best_epoch == 0
    assert log.train_losses == [] and log.val_losses == []
    assert not log.stopped_early


def test_train_preserves_masked_zeros():
    ds = _toy_dataset()
    net = init_network([LayerSpec(4, 6), LayerSpec(6, 2)], seed=13)
    net.layers[0].mask[:, 1] = 0
    net.layers[0].weights[:, 1] = 0.0
    trained, _ = train(net, ds, TrainConfig(max_epochs=8, seed=5))
    assert np.all(trained.layers[0].weights[:, 1] == 0.0)
    assert np.array_equal(trained.layers[0].mask, net.layers[0].mask)


def test_train_masked_zeros_carry_positive_sign():
    # a negative weight times a zero mask would leave -0.0; the stored
    # zero must be the +0.0 bit pattern even when no epoch ever runs
    ds = _toy_dataset()
    net = init_network([LayerSpec(4, 6), LayerSpec(6, 2)], seed=13)
    net.layers[0].weights[:] = -np.abs(net.layers[0].weights)
    net.layers[0].mask[:, 1] = 0
    for epochs in (0, 3):
        trained, _ = train(net, ds, TrainConfig(max_epochs=epochs, seed=5))
        dropped = trained.layers[0].weights[:, 1]
        assert np.all(dropped == 0.0)
        assert not np.signbit(dropped).any()


def test_train_early_stops_and_restores_best():
    ds = _toy_dataset(n=150, seed=12)
    net = init_network([LayerSpec(4, 16), LayerSpec(16, 2)], seed=6)
    trained, log = train(net, ds, TrainConfig(max_epochs=200, patience=5, seed=9))
    if log.stopped_early:
        assert len(log.val_losses) < 200
        # the best epoch is the argmin of the validation curve
        assert log.best_epoch >= 1
        assert log.val_losses[log.best_epoch - 1] == min(log.val_losses)
    # returned parameters reproduce the best validation loss up to the
    # float32 rounding applied when the working copies are stored
    tr_idx, va_idx = validation_split(len(ds), 0.2, 9)
    got = mean_loss(trained, ds.features[va_idx], ds.labels[va_idx])
    best = min(log.val_losses) if log.val_losses else got
    assert abs(got - best) < 1e-6


def test_train_dataset_too_small():
    ds = _toy_dataset(n=10)
    net = init_network([LayerSpec(4, 4), LayerSpec(4, 2)], seed=1)
    with pytest.raises(DatasetTooSmall):
        train(net, ds, TrainConfig(batch_size=32, seed=0))


def test_train_rejects_bad_labels():
    ds = _toy_dataset()
    net = init_network([LayerSpec(4, 4), LayerSpec(4, 2)], seed=1)
    bad = type(ds)(features=ds.features, labels=ds.labels + 1)
    with pytest.raises(InvalidLabel):
        train(net, bad, TrainConfig(seed=0))


def test_train_numeric_failure_on_divergence():
    ds = _toy_dataset()
    net = init_network([LayerSpec(4, 8), LayerSpec(8, 2)], seed=2)
    with pytest.raises(NumericFailure):
        train(net, ds, TrainConfig(learning_rate=1e12, max_epochs=50, patience=50, seed=4))


@pytest.mark.parametrize("n_per_class, learning_rate, batch_size, match", [
    (100, 1e20, 32, "non-finite training loss at epoch 2"),
    (50, 1e40, 80, "non-finite validation loss at epoch 4"),
], ids=["lr-1e20", "lr-1e40-batch-80"])
def test_train_divergence_raises_without_numpy_warnings(n_per_class, learning_rate, batch_size,
                                                        match):
    # float64 overflow and then inf - inf would warn; the suite turns a
    # RuntimeWarning into an error, so only train's own checks may speak
    net = init_network([LayerSpec(4, 8), LayerSpec(8, 2)], 3)
    cfg = TrainConfig(learning_rate=learning_rate, max_epochs=5, batch_size=batch_size, seed=2)
    with pytest.raises(NumericFailure, match=match):
        train(net, synth_gaussians(n_per_class, 4, 3.0, seed=1), cfg)


def test_overflow_from_finite_values_gives_no_numpy_warning():
    # finite float32 weights and features that overflow float64 after a few relu layers
    net = init_network([LayerSpec(4, 8)] + [LayerSpec(8, 8)] * 7 + [LayerSpec(8, 2)], 1)
    for layer in net.layers:
        layer.weights[:] = 3e38
    x, y = np.full((4, 4), 3e38, np.float32), np.array([0, 1, 0, 1])
    assert math.isnan(mean_loss(net, x, y))
    assert math.isnan(gradients(net, x, y).loss)
    with pytest.raises(NumericFailure, match="non-finite class probability"):
        forward_batch(net, x)


@pytest.mark.parametrize("parameter, max_epochs", [("dead-bias", 5), ("live-weight", 0)])
def test_train_rejects_non_finite_parameters(parameter, max_epochs):
    # hidden neuron 5 reaches no output, so sparse training never touches it;
    # with no epoch to run, no parameter is looked at unless train checks
    net = init_network([LayerSpec(4, 6), LayerSpec(6, 2)], seed=3)
    net.layers[1].mask[:, 5] = 0
    net.layers[1].weights[:, 5] = 0.0
    if parameter == "dead-bias":
        net.layers[0].bias[5] = np.inf
    else:
        net.layers[0].weights[0, 0] = np.nan
    with pytest.raises(NumericFailure, match="non-finite parameter in layer 0"):
        train(net, _toy_dataset(), TrainConfig(max_epochs=max_epochs, seed=1))


@pytest.mark.parametrize("max_epochs", [5, 0])
@pytest.mark.parametrize("column", ["dead", "live"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_train_rejects_non_finite_features(value, column, max_epochs):
    # input column 1 feeds no neuron, so training leaves it out; the rule for
    # features still holds there, with or without an epoch to run
    net = init_network([LayerSpec(4, 6), LayerSpec(6, 2)], seed=3)
    net.layers[0].mask[:, 1] = 0
    net.layers[0].weights[:, 1] = 0.0
    ds = _toy_dataset()
    features = ds.features.copy()
    features[7, 1 if column == "dead" else 0] = value
    with pytest.raises(NumericFailure, match="non-finite feature value"):
        train(net, Dataset(features, ds.labels),
              TrainConfig(max_epochs=max_epochs, seed=1))


def test_train_config_validation():
    for kwargs in (
        {"learning_rate": 0.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"batch_size": 0},
        {"max_epochs": -1},
        {"patience": 0},
        {"validation_fraction": 0.0},
        {"validation_fraction": 1.0},
        {"seed": -1},
        {"seed": 2**64},
    ):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


# costs and splits


def test_cost_additivity():
    net = init_network([LayerSpec(5, 7), LayerSpec(7, 3)], seed=1)
    assert count_active_synapses(net) == 5 * 7 + 7 * 3
    assert inference_cost(net) == count_active_synapses(net) + 7 + 3
    net.layers[0].mask[:, 0] = 0
    net.layers[0].weights[:, 0] = 0.0
    assert count_active_synapses(net) == 5 * 7 + 7 * 3 - 7
    assert inference_cost(net) == count_active_synapses(net) + 10


def test_count_active_all_masked_is_zero():
    net = init_network([LayerSpec(2, 2)], seed=0)
    net.layers[0].mask[:] = 0
    net.layers[0].weights[:] = 0.0
    assert count_active_synapses(net) == 0


def test_validation_split_properties():
    tr, va = validation_split(100, 0.2, seed=42)
    assert len(va) == 20 and len(tr) == 80
    assert sorted(np.concatenate([tr, va]).tolist()) == list(range(100))
    tr2, va2 = validation_split(100, 0.2, seed=42)
    assert np.array_equal(tr, tr2) and np.array_equal(va, va2)
    # at least one validation sample even for tiny fractions
    _, va3 = validation_split(10, 0.01, seed=1)
    assert len(va3) == 1


# the stream reduces a seed modulo 2**64: init_network(spec, 2**64) drew seed
# 0's weights, and validation_split(50, 0.2, -2**64) seed 0's split
@pytest.mark.parametrize("seed", [-1, 2**64, -2**64], ids=["-1", "2^64", "-2^64"])
@pytest.mark.parametrize("draw", [lambda seed: init_network([LayerSpec(3, 2)], seed),
                                  lambda seed: validation_split(50, 0.2, seed)],
                         ids=["init_network", "validation_split"])
def test_seed_outside_uint64_is_refused(draw, seed):
    with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer$"):
        draw(seed)


# evaluation


def _argmax_net():
    return Network([DenseLayer(weights=np.eye(2, dtype=np.float32) * 10.0,
                               mask=np.ones((2, 2), dtype=np.uint8),
                               bias=np.zeros(2, dtype=np.float32))])


def test_evaluate_hand_confusion():
    net = _argmax_net()
    x = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=np.float64)
    y = np.array([0, 0, 1, 0])
    report = evaluate_classifier(net, x, y)
    assert report["confusion"] == [[2, 1], [1, 0]]
    assert abs(report["precision"][0] - 2 / 3) < 1e-12
    assert abs(report["recall"][0] - 2 / 3) < 1e-12
    assert report["precision"][1] == 0.0 and report["recall"][1] == 0.0
    assert abs(report["accuracy"] - 0.5) < 1e-12


def test_evaluate_perfect_classifier():
    net = _argmax_net()
    x = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.float64)
    y = np.array([0, 1, 0, 1])
    report = evaluate_classifier(net, x, y)
    assert report["precision"] == [1.0, 1.0]
    assert report["recall"] == [1.0, 1.0]
    assert report["f1"] == [1.0, 1.0]
    assert report["macro_f1"] == 1.0
    assert report["accuracy"] == 1.0


def test_evaluate_single_class_predictor():
    net = _argmax_net()
    # every sample lands on class 0; balanced truth
    x = np.array([[1, 0], [1, 0], [1, 0], [1, 0]], dtype=np.float64)
    y = np.array([0, 0, 1, 1])
    report = evaluate_classifier(net, x, y)
    assert report["recall"][0] == 1.0
    assert report["recall"][1] == 0.0
    assert report["precision"][1] == 0.0  # 0/0 counts as 0
    assert abs(report["precision"][0] - 0.5) < 1e-12


def _evaluate_reference(net, x, y):
    """evaluate_classifier as a per-class Python loop over np.add.at counts."""
    preds = forward_batch(net, x).argmax(axis=1)
    c = net.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    precision, recall, f1 = [], [], []
    for k in range(c):
        tp = confusion[k, k]
        predicted = confusion[:, k].sum()
        actual = confusion[k, :].sum()
        p = float(tp / predicted) if predicted > 0 else 0.0
        r = float(tp / actual) if actual > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2.0 * p * r / (p + r) if p + r > 0 else 0.0)
    macro_p = float(np.mean(precision))
    macro_r = float(np.mean(recall))
    return {
        "accuracy": float((preds == y).mean()),
        "confusion": confusion.tolist(),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "macro_precision": macro_p,
        "macro_recall": macro_r,
        "macro_f1": 2.0 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r > 0 else 0.0,
    }


def test_evaluate_matches_per_class_loop():
    rng = np.random.default_rng(14)
    never_predicted = never_present = 0
    for k in range(300):
        c = int(rng.integers(2, 7))
        net = _random_masked_net(rng, [int(rng.integers(1, 6)), int(rng.integers(1, 6)), c],
                                 rng.choice([0.3, 0.7, 1.0]))
        n = int(rng.integers(1, 40))
        x = rng.normal(scale=3.0, size=(n, net.in_dim))
        y = rng.integers(0, int(rng.integers(1, c + 1)), size=n)
        want = _evaluate_reference(net, x, y)
        assert json.dumps(evaluate_classifier(net, x, y)) == json.dumps(want), f"case {k}"
        confusion = np.array(want["confusion"])
        never_predicted += int((confusion.sum(axis=0) == 0).any())
        never_present += int((confusion.sum(axis=1) == 0).any())
    assert never_predicted > 50 and never_present > 50


@pytest.mark.parametrize("call, n_rows, n_labels", [
    (lambda x, y: evaluate_classifier(_argmax_net(), x, y), 5, 3),
    (lambda x, y: evaluate_classifier(_argmax_net(), x, y), 0, 0),
    (lambda x, y: train(_argmax_net(), Dataset(x, y), TrainConfig(max_epochs=1)), 200, 150),
    (lambda x, y: train(_argmax_net(), Dataset(x, y), TrainConfig(max_epochs=1)), 150, 200),
], ids=["5-rows-3-labels", "empty", "train-200-rows-150-labels", "train-150-rows-200-labels"])
def test_evaluate_rejects_mismatched_or_empty_batch(call, n_rows, n_labels):
    with pytest.raises(ShapeMismatch):
        call(np.ones((n_rows, 2)), np.arange(n_labels) % 2)
