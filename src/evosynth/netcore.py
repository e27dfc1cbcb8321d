"""Dense feedforward networks with per-synapse masks.

A network is a stack of dense layers, each carrying a binary mask of the
same shape as its weight matrix. Masked-off weights are exactly 0.0 and
stay exactly 0.0 through any amount of training: gradients are zeroed at
masked positions, so SGD never moves them.

Parameters are stored as binary32. Forward passes, losses and gradients
are computed in binary64 over those stored values, which keeps analytic
gradients within finite-difference checking tolerance; updates are written
back to binary32 at the end of training.

Training runs on the backward-live sub-network: a hidden neuron with no
path to an output gets exactly +-0 gradients in the dense computation, so
its parameters never move, and ``train`` leaves it out of every batch.
The one bit such a neuron loses to SGD is a negative zero: the dense step
adds a +0.0 velocity, and -0.0 + +0.0 is +0.0. So when the best epoch is
not the starting state, dead parameters come back as ``x + 0.0``.
``train`` also leaves out the input columns that no live first-layer
neuron reads, whose weights are all masked +0.0. Every live weight block
is stored C-contiguous, the layout of a whole layer, so the float64 loss
curves differ from the dense loop's only where BLAS sums fewer zero terms.

The SGD loop is shaped to make few numpy calls per batch, each one the
same IEEE operation, in the same order, as the plain spelling kept in
tests/test_netcore.py. The live parameters, their velocities and their
gradients each live in one flat float64 buffer with a C-contiguous view
per layer, so the momentum step is three calls over all of them.
``_backprop`` writes gradients into those views and subtracts one-hot label
rows (the other entries subtract 0.0, which is exact); a layer whose live
mask is all ones skips the multiply by its mask (x * 1.0 = x). Each epoch
gathers its shuffled rows, labels and one-hot rows once, and each batch
takes slices of them.

Inference runs the same sub-network, with the same first-layer input
columns: ``_live_params`` names them once (``keep``) for both. Features
that are already floating point are taken as given, and only the read
columns are gathered and converted to float64. Each layer
adds its bias and applies its activation in place on the matmul output,
the same IEEE operations as the plain spelling; training shares that
kernel. The first ``forward``,
``forward_batch`` or ``mean_loss`` call on a network prepares its plan
once (``_plan``): the float64 live blocks and the input columns they read,
kept on the network while ``net.layers`` holds the same array objects.
``forward_batch`` and ``evaluate_classifier`` run a batch in blocks of
rows whose float64 input copy holds at most
``BLOCK_VALUES`` values, so each block's input and hidden activations stay
in cache between the matmul, the bias add and the activation; every row's
operations are the same, so the probabilities are the same bytes.
Single-row ``forward`` and ``mean_loss`` run unblocked (``mean_loss``
sums over rows, and that order sets its bytes).
Preparing the plan clears the ``writeable`` flag of every layer array, so a
network that has run inference is immutable in fact: an in-place write
raises instead of leaving the plan stale, and new values go in new arrays
(``copy()`` returns writable ones).

Features must be finite. Every entry point that takes them (``forward``,
``forward_batch``, ``mean_loss``, ``gradients``, ``evaluate_classifier``
and ``train``) raises ``NumericFailure("non-finite feature value")`` for
a NaN or inf anywhere in its input, read column or not, before that
block's arithmetic: one ``isfinite`` pass (``_finite``) over each row
block that inference runs (``_probabilities``), and one over the whole
input in ``mean_loss``, ``gradients`` and ``train``. Labels are checked
first. A column that the live sub-network leaves out therefore never
decides an outcome that the dense arithmetic (where NaN * 0.0 and
inf * 0.0 are NaN) would decide otherwise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    DatasetTooSmall,
    InvalidLabel,
    InvalidSpec,
    NumericFailure,
    ShapeMismatch,
)
from .rng import permutation, substream, uniform_layers

if TYPE_CHECKING:
    from .dataio import Dataset

ACTIVATIONS = ("relu", "sigmoid")

# float64 input values one inference block converts: 2 MB, half the 4 MB
# L2 cache of the 2-core host it was measured on (see ``_blocked_probabilities``)
BLOCK_VALUES = 2**18

FULL = "full"
HALF = "half"


@dataclass(frozen=True)
class LayerSpec:
    """Shape and hidden activation of one dense layer.

    The activation applies to hidden layers only; the final layer always
    ends in softmax regardless of what its spec says.
    """

    in_dim: int
    out_dim: int
    activation: str = "relu"


@dataclass
class DenseLayer:
    weights: np.ndarray  # float32, [out_dim, in_dim]
    mask: np.ndarray     # uint8 in {0, 1}, same shape as weights
    bias: np.ndarray     # float32, [out_dim]
    activation: str = "relu"

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.mask.copy(), self.bias.copy(), self.activation)


@dataclass
class Network:
    """Immutable by convention: operations return new networks.

    Inference freezes the layer arrays (see ``_plan``).
    """

    layers: list[DenseLayer]
    generation: int = 1
    precision_tag: str = FULL
    # (the layer objects it was built from, (ws, bs, acts, keep)); see _plan
    _plan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def in_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def n_classes(self) -> int:
        return self.layers[-1].weights.shape[0]

    def copy(self) -> "Network":
        return Network([l.copy() for l in self.layers], self.generation, self.precision_tag)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        check_seed(self.seed)


@dataclass
class TrainingLog:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 0 means the pre-training state
    stopped_early: bool = False
    # the dataset rows train fitted and validated on (``validation_split``)
    train_indices: np.ndarray | None = None
    val_indices: np.ndarray | None = None


@dataclass
class Gradients:
    """Mean cross-entropy gradients, congruent with a network's layers."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss: float


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is in [0, 2**64): the stream would
    reduce any other seed modulo 2**64, to another seed's draws."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")


def check_spec(spec: Sequence[LayerSpec]) -> None:
    """Raise InvalidSpec unless the layers are non-empty, sized, known and chained."""
    if not spec:
        raise InvalidSpec("layer spec is empty")
    for i, s in enumerate(spec):
        if s.in_dim < 1 or s.out_dim < 1:
            raise InvalidSpec(f"layer {i}: dimensions must be >= 1, got {s.in_dim}x{s.out_dim}")
        if s.activation not in ACTIVATIONS:
            raise InvalidSpec(f"layer {i}: unknown activation {s.activation!r}")
    for i in range(len(spec) - 1):
        if spec[i].out_dim != spec[i + 1].in_dim:
            raise InvalidSpec(
                f"layer {i} out_dim {spec[i].out_dim} != layer {i + 1} in_dim {spec[i + 1].in_dim}"
            )


def init_network(spec: Sequence[LayerSpec], seed: int) -> Network:
    """Generation-1 ancestor: Glorot-uniform weights, zero biases, all-ones mask.

    Weights are drawn uniformly in +-sqrt(6 / (in_dim + out_dim)) from one
    deterministic stream, consumed layer by layer in row-major order.
    """
    check_spec(spec)
    check_seed(seed)
    layers = []
    for s, u in zip(spec, uniform_layers(seed, [(s.out_dim, s.in_dim) for s in spec])):
        limit = np.sqrt(6.0 / (s.in_dim + s.out_dim))
        layers.append(
            DenseLayer(
                weights=((2.0 * u - 1.0) * limit).astype(np.float32),
                mask=np.ones((s.out_dim, s.in_dim), dtype=np.uint8),
                bias=np.zeros(s.out_dim, dtype=np.float32),
                activation=s.activation,
            )
        )
    return Network(layers=layers, generation=1, precision_tag=FULL)


# float64 compute kernels over parameter lists


def _apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    """relu or sigmoid of ``z``, written over ``z``: the same IEEE operations
    as ``np.maximum(z, 0.0)`` and ``1.0 / (1.0 + np.exp(-z))``."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    with np.errstate(over="ignore"):  # exp(-z) is inf below z = -709; 1 / (1 + inf) is 0.0
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)


def _forward_core(ws, bs, acts, x):
    """Returns (per-layer post-activations incl. input, logits).

    Each layer's bias and activation are applied in place on its matmul
    output; ``x`` is not written.
    """
    a = x
    activations = [a]
    logits = None
    for i, (w, b) in enumerate(zip(ws, bs)):
        z = a @ w.T
        z += b
        if i == len(ws) - 1:
            logits = z
        else:
            a = _apply_activation(z, acts[i])
            activations.append(a)
    return activations, logits


# the ufunc reductions behind ndarray.max, .sum and .mean, called directly:
# the same reductions and the same true_divide, without numpy's Python wrappers


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))


def _nll(logp: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood of the labels under log-probabilities."""
    return float(-(np.add.reduce(logp[np.arange(len(y)), y]) / len(y)))


def _masked(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # np.where, not multiplication: -w * 0 would leave a negative zero,
    # which is not the canonical bit pattern masked slots must hold
    return np.where(mask != 0, weights, weights.dtype.type(0.0))


def _working_params(net: Network):
    ws = [_masked(l.weights, l.mask).astype(np.float64) for l in net.layers]
    bs = [l.bias.astype(np.float64) for l in net.layers]
    acts = [l.activation for l in net.layers]
    return ws, bs, acts


def _live_rows(masks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per layer, which output neurons have a path to a network output.

    Backward liveness only: every output of the last layer is live, and a
    neuron is live when a synapse joins it to a live neuron of the next
    layer. A neuron without inputs still emits act(bias), so it stays.
    """
    live = [np.ones(masks[-1].shape[0], dtype=bool)]
    for mask in reversed(masks[1:]):
        live.insert(0, mask[live[0]].any(axis=0))
    return live


def _live_params(layers: Sequence[DenseLayer]):
    """The backward-live sub-network (``_live_rows``) as float64 blocks.

    Returns ``(ws, bs, acts, masks, blocks, keep)``: per layer the masked
    weights and the mask restricted to the live rows and to the live
    columns, the live biases, the activation and the ``(rows, cols)``
    boolean selectors, then the first layer's live columns as indices
    (``keep``), or None when it reads every column. Every output row is
    kept. A hidden layer's live columns are the previous layer's live
    rows; the first layer's are the input columns that some live row reads
    (``masks[0].any(axis=0)``), since the live rows hold masked +0.0 in
    every other column. Weight blocks are C-contiguous (see the module
    docstring); ``w[:, cols]`` alone would be F-ordered.
    """
    live = _live_rows([l.mask for l in layers])
    inputs = layers[0].mask[live[0]].any(axis=0)
    blocks = list(zip(live, [inputs] + live[:-1]))
    ws, bs, masks = [], [], []
    for layer, (rows, cols) in zip(layers, blocks):
        m = layer.mask[rows][:, cols]
        ws.append(np.ascontiguousarray(_masked(layer.weights[rows][:, cols], m), dtype=np.float64))
        bs.append(layer.bias[rows].astype(np.float64))
        masks.append(m)
    keep = None if inputs.all() else np.flatnonzero(inputs)
    return ws, bs, [l.activation for l in layers], masks, blocks, keep


def _plan(net: Network):
    """``(ws, bs, acts, keep)`` of ``net``'s live sub-network, prepared once.

    ``ws``, ``bs`` and ``acts`` are ``_live_params``' blocks, so the first
    layer reads only the input columns ``keep`` (indices, or None when it
    reads every column). Skipping the others is exact because features are
    finite (``_finite``): their masked +0.0 weights add nothing.

    The plan is kept while every layer holds the same weights, mask, bias
    and activation objects (compared with ``is``). Preparing it clears the
    ``writeable`` flag of those arrays, so it can never go stale.
    """
    source = [v for l in net.layers for v in (l.weights, l.mask, l.bias, l.activation)]
    cached = net._plan
    if cached is not None and len(cached[0]) == len(source) \
            and all(map(operator.is_, cached[0], source)):
        return cached[1]
    for layer in net.layers:
        for array in (layer.weights, layer.mask, layer.bias):
            array.flags.writeable = False
    ws, bs, acts, _, _, keep = _live_params(net.layers)
    net._plan = (source, (ws, bs, acts, keep))
    return net._plan[1]


def _columns(x: np.ndarray, keep) -> np.ndarray:
    """The columns ``keep`` (indices, or None for all) of the 2-D floating
    ``x`` as float64; a gathered copy is C-contiguous."""
    if keep is None:
        return np.asarray(x, dtype=np.float64)
    return x.take(keep, axis=1).astype(np.float64)


def _probabilities(plan, x: np.ndarray) -> np.ndarray:
    """float32 class probabilities of the 2-D floating batch ``x`` under a plan.

    Every column of ``x``, read or not, must be finite (``_finite``).
    """
    ws, bs, acts, keep = plan
    _finite(x)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow, then inf - inf: caught below
        _, logits = _forward_core(ws, bs, acts, _columns(x, keep))
        probs = np.exp(_log_softmax(logits)).astype(np.float32)
    if not np.isfinite(probs).all():
        raise NumericFailure("non-finite class probability")
    return probs


def _blocked_probabilities(plan, x: np.ndarray) -> np.ndarray:
    """``_probabilities`` of ``x`` in blocks of rows that convert at most
    ``BLOCK_VALUES`` read values, and at least one row. The length follows
    the read columns, not the widest layer: a narrow input keeps a batch in
    few blocks, since each threaded matmul call pays the BLAS threads'
    synchronisation."""
    rows = max(1, BLOCK_VALUES // max(1, plan[0][0].shape[1]))
    if len(x) <= rows:
        return _probabilities(plan, x)
    return np.concatenate([_probabilities(plan, x[i:i + rows]) for i in range(0, len(x), rows)])


def _check_finite(net: Network):
    for i, layer in enumerate(net.layers):
        if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
            raise NumericFailure(f"non-finite parameter in layer {i}")


def _floating(values) -> np.ndarray:
    """``values`` as an array: a floating-point one as given, anything else as float64."""
    x = np.asarray(values)
    return x if x.dtype.kind == "f" else np.asarray(values, dtype=np.float64)


def _finite(x: np.ndarray) -> None:
    """Raise unless ``x`` holds no NaN or inf: the one finiteness check for features."""
    if not np.isfinite(x).all():
        raise NumericFailure("non-finite feature value")


def _batch(net: Network, inputs, labels=None):
    """``(x, y)``: 2-D floating features for ``net`` (``_floating``) and,
    unless ``labels`` is None, their int64 labels, which must make a
    non-empty batch. Finiteness is left to the caller (``_finite``)."""
    x = _floating(inputs)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ShapeMismatch(f"batch features must be [n, {net.in_dim}], got {x.shape}")
    if labels is None:
        return x, None
    y = np.asarray(labels, dtype=np.int64)
    if len(y) != len(x) or len(x) == 0:
        raise ShapeMismatch("batch is empty or labels do not match inputs")
    if np.any(y < 0) or np.any(y >= net.n_classes):
        raise InvalidLabel(f"labels must be in [0, {net.n_classes})")
    return x, y


def _loss(ws, bs, acts, x, y) -> float:
    """Mean cross-entropy of the labels ``y`` of ``x`` under float64 parameters."""
    _, logits = _forward_core(ws, bs, acts, x)
    return _nll(_log_softmax(logits), y)


def forward(net: Network, input: Sequence[float]) -> np.ndarray:
    """Class probabilities for one input vector (softmax over the last layer)."""
    x = _floating(input)
    if x.ndim != 1 or x.shape[0] != net.in_dim:
        raise ShapeMismatch(f"input must have length {net.in_dim}, got shape {x.shape}")
    return _probabilities(_plan(net), x[None])[0]


def forward_batch(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch, [n, n_classes] float32.

    A NaN or infinite feature or probability raises ``NumericFailure``.
    """
    x, _ = _batch(net, inputs)
    return _blocked_probabilities(_plan(net), x)


def mean_loss(net: Network, batch_inputs: np.ndarray, batch_labels: np.ndarray) -> float:
    """Mean cross-entropy of the batch under the network's predictions."""
    x, y = _batch(net, batch_inputs, batch_labels)
    _finite(x)
    ws, bs, acts, keep = _plan(net)
    with np.errstate(over="ignore", invalid="ignore"):  # float64 overflow: a non-finite loss
        return _loss(ws, bs, acts, _columns(x, keep), y)


def _grad_masks(masks: Sequence[np.ndarray]) -> list:
    """``_backprop``'s masks: float64, or None where a mask is all ones (x * 1.0 = x)."""
    return [None if m.all() else m.astype(np.float64) for m in masks]


def _backprop(ws, bs, acts, masks, x, y, onehot, w_grads, b_grads) -> float:
    """Mean cross-entropy of the labels ``y`` of ``x``, returned, and its
    gradients, written into the C-contiguous ``w_grads`` and ``b_grads``.

    ``onehot`` holds ``y`` as float64 one-hot rows; ``masks`` come from
    ``_grad_masks``.
    """
    activations, logits = _forward_core(ws, bs, acts, x)
    logp = _log_softmax(logits)
    loss = _nll(logp, y)
    dz = np.exp(logp, out=logp)
    dz -= onehot  # exact: every other entry subtracts 0.0
    dz /= len(y)
    for i in range(len(ws) - 1, -1, -1):
        np.matmul(dz.T, activations[i], out=w_grads[i])
        if masks[i] is not None:
            w_grads[i] *= masks[i]
        np.add.reduce(dz, axis=0, out=b_grads[i])
        if i > 0:
            a = activations[i]
            dz = dz @ ws[i]
            dz *= a > 0.0 if acts[i - 1] == "relu" else a * (1.0 - a)
    return loss


def gradients(net: Network, batch_inputs: np.ndarray, batch_labels: np.ndarray) -> Gradients:
    """Mean cross-entropy gradients for every weight and bias.

    Entries at masked-off positions are exactly 0.0.
    """
    x, y = _batch(net, batch_inputs, batch_labels)
    _finite(x)
    ws, bs, acts = _working_params(net)
    w_grads = [np.empty_like(w) for w in ws]
    b_grads = [np.empty_like(b) for b in bs]
    with np.errstate(over="ignore", invalid="ignore"):  # float64 overflow: non-finite values
        loss = _backprop(ws, bs, acts, _grad_masks([l.mask for l in net.layers]),
                         np.asarray(x, dtype=np.float64), y, np.eye(net.n_classes)[y],
                         w_grads, b_grads)
    return Gradients(weights=w_grads, biases=b_grads, loss=loss)


def _layer_views(flat: np.ndarray, ws, bs):
    """``(ws, bs)`` shaped views of consecutive runs of ``flat``, C-contiguous:
    every weight block in turn, then every bias."""
    views, offset = [], 0
    for a in (*ws, *bs):
        views.append(flat[offset:offset + a.size].reshape(a.shape))
        offset += a.size
    return views[:len(ws)], views[len(ws):]


def validation_split(n_samples: int, fraction: float, seed: int):
    """Deterministic (train_indices, val_indices) split used by ``train``.

    One permutation is drawn from substream 0 of ``seed``; the first
    ``max(1, floor(fraction * n))`` entries are the validation set.
    """
    check_seed(seed)
    perm = permutation(n_samples, substream(seed, 0))
    n_val = max(1, int(fraction * n_samples))
    return perm[n_val:], perm[:n_val]


def train(net: Network, dataset: "Dataset", cfg: TrainConfig) -> tuple[Network, TrainingLog]:
    """Mini-batch SGD with momentum on the masked weights.

    Stops early when validation loss has not improved for ``cfg.patience``
    epochs and returns the parameters of the best validation epoch (the
    pre-training state counts as epoch 0). Fully deterministic given
    ``cfg.seed``: the validation split comes from substream 0 and epoch
    ``e``'s shuffle from substream ``e``; the log carries the split.

    SGD runs on the backward-live sub-network (``_live_rows``): the live
    rows and columns of each weight matrix, with every output row kept,
    and of the first layer only the input columns its live rows read (only
    those columns are converted to float64, once, before the first epoch).
    Dead neurons get exactly +-0 gradients in the dense computation, and a
    dropped column's weights are masked +0.0, so dead parameters come
    back as the dense loop leaves them: unchanged, or as ``x + 0.0``
    (which turns -0.0 into +0.0, as the dense SGD step does) when
    ``best_epoch > 0``. Live values see the same operations minus zero
    terms: the float64 loss curves can differ from the dense ones by a
    few ulps, and tests/test_netcore.py checks the binary32 result
    against the dense loop bit for bit. A NaN or infinite parameter
    anywhere in ``net``, or feature anywhere in ``dataset`` (the one rule
    for features, see the module docstring), raises ``NumericFailure``
    before any work is done; a diverging run raises it, with no numpy warning.

    The live parameters, velocities and gradients are one flat buffer each,
    with a C-contiguous view per layer: the momentum step is three calls
    over all of them and the best epoch is kept with one copy. Epoch ``e``
    gathers its shuffled rows and one-hot labels once, and each batch is a
    slice of them; a layer whose live mask is all ones skips the mask
    multiply. A non-finite weight is looked for once per epoch. ``net`` is
    left as it is, and every returned array is a new one.
    """
    _check_finite(net)
    x, y = _batch(net, dataset.features, dataset.labels)
    _finite(x)
    if len(np.unique(y)) < 2:
        raise InvalidLabel("dataset must contain at least 2 represented classes")

    train_idx, val_idx = validation_split(len(y), cfg.validation_fraction, cfg.seed)
    if len(train_idx) < cfg.batch_size:
        raise DatasetTooSmall(
            f"{len(train_idx)} training samples after the validation split, "
            f"need at least one batch of {cfg.batch_size}"
        )

    ws, bs, acts, masks, blocks, keep = _live_params(net.layers)
    x = _columns(x, keep)
    x_val, y_val = x[val_idx], y[val_idx]

    # weights, then biases, in one buffer each; ws and bs become views of params
    n_weights = sum(w.size for w in ws)
    params = np.concatenate([w.ravel() for w in ws] + bs)
    grads, vel = np.empty_like(params), np.zeros_like(params)
    ws, bs = _layer_views(params, ws, bs)
    w_grads, b_grads = _layer_views(grads, ws, bs)
    grad_masks = _grad_masks(masks)
    onehot = np.eye(net.n_classes)

    log = TrainingLog(train_indices=train_idx, val_indices=val_idx)
    best = params.copy()
    epochs_since_best = 0
    momentum, lr, size = cfg.momentum, cfg.learning_rate, cfg.batch_size
    # float64 overflow, then inf - inf, is a divergence that the checks below report
    with np.errstate(over="ignore", invalid="ignore"):
        best_val = _loss(ws, bs, acts, x_val, y_val)
        for epoch in range(1, cfg.max_epochs + 1):
            shuffled = train_idx[permutation(len(train_idx), substream(cfg.seed, epoch))]
            x_ep, y_ep = x[shuffled], y[shuffled]
            hot_ep = onehot[y_ep]
            loss_sum = 0.0
            for start in range(0, len(shuffled), size):
                y_b = y_ep[start:start + size]
                loss = _backprop(ws, bs, acts, grad_masks, x_ep[start:start + size], y_b,
                                 hot_ep[start:start + size], w_grads, b_grads)
                if not math.isfinite(loss):
                    raise NumericFailure(f"non-finite training loss at epoch {epoch}")
                loss_sum += loss * len(y_b)
                # v <- momentum * v - lr * g over every parameter at once; lr * g
                # overwrites the gradients, which the next batch rewrites
                vel *= momentum
                vel -= np.multiply(grads, lr, out=grads)
                params += vel
            if not np.isfinite(params[:n_weights]).all():
                raise NumericFailure(f"non-finite weight at epoch {epoch}")
            epoch_val = _loss(ws, bs, acts, x_val, y_val)
            if not np.isfinite(epoch_val):
                raise NumericFailure(f"non-finite validation loss at epoch {epoch}")
            log.train_losses.append(loss_sum / len(shuffled))
            log.val_losses.append(epoch_val)
            if epoch_val < best_val:
                best_val = epoch_val
                np.copyto(best, params)
                log.best_epoch = epoch
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= cfg.patience:
                    log.stopped_early = True
                    break

    layers = []
    best_ws, best_bs = _layer_views(best, ws, bs)
    for layer, (rows, cols), w, m, b in zip(net.layers, blocks, best_ws, masks, best_bs):
        weights = _masked(layer.weights, layer.mask)
        bias = layer.bias.copy()
        if log.best_epoch > 0:  # the dense step's +0.0 velocity: -0.0 -> +0.0
            weights += np.float32(0.0)
            bias += np.float32(0.0)
        weights[np.ix_(rows, cols)] = _masked(w, m).astype(np.float32)
        bias[rows] = b.astype(np.float32)
        layers.append(DenseLayer(weights=weights, mask=layer.mask.copy(), bias=bias,
                                 activation=layer.activation))
    return Network(layers=layers, generation=net.generation, precision_tag=FULL), log


def count_active_synapses(net: Network) -> int:
    """Sum of mask entries over all layers. Biases are not synapses."""
    return int(sum(int(l.mask.sum()) for l in net.layers))


def inference_cost(net: Network) -> int:
    """Multiply-accumulate count: one MAC per active synapse plus one add per bias."""
    return count_active_synapses(net) + sum(l.bias.shape[0] for l in net.layers)


def live_counts(net: Network) -> tuple[int, int]:
    """(live synapses, live MACs): the counts above over backward-live neurons only.

    Live synapses are the active synapses into neurons with a path to an
    output (``_live_rows``); live MACs add one per live bias. Inference
    (``_plan``) drops every other neuron.
    """
    live = _live_rows([l.mask for l in net.layers])
    synapses = sum(int(np.count_nonzero(l.mask[rows])) for l, rows in zip(net.layers, live))
    return synapses, synapses + sum(int(np.count_nonzero(rows)) for rows in live)


def evaluate_classifier(net: Network, features: np.ndarray, labels: np.ndarray) -> dict:
    """Accuracy, confusion matrix and per-class plus macro precision/recall/f1.

    Confusion rows are true classes, columns predicted classes. Undefined
    ratios (0/0) are reported as 0. The macro f1 is the harmonic mean of
    macro precision and macro recall.
    """
    x, y = _batch(net, features, labels)
    preds = _blocked_probabilities(_plan(net), x).argmax(axis=1)
    c = net.n_classes
    confusion = np.bincount(y * c + preds, minlength=c * c).reshape(c, c)

    def ratio(num, den):  # 0/0 is 0
        return np.divide(num, den, out=np.zeros(c), where=den > 0)

    tp = confusion.diagonal()
    precision, recall = ratio(tp, confusion.sum(axis=0)), ratio(tp, confusion.sum(axis=1))
    f1 = ratio(2.0 * precision * recall, precision + recall)
    macro_p = float(np.mean(precision))
    macro_r = float(np.mean(recall))
    return {
        "accuracy": float((preds == y).mean()),
        "confusion": confusion.tolist(),
        "precision": precision.tolist(),
        "recall": recall.tolist(),
        "f1": f1.tolist(),
        "macro_precision": macro_p,
        "macro_recall": macro_r,
        "macro_f1": 2.0 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r > 0 else 0.0,
    }
