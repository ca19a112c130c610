"""Network assembly, loss, optimizers, training loop, evaluation.

A network is a chain of nonlinear convolution layers followed by a dense
softmax classifier over the flattened last feature map. Layers between
the input and the last convolution must emit a single channel so their
output is again a (time, channel) matrix.

Passes run the network on chunks of a few windows (``EVAL_CHUNK``) with
one workspace (``new_workspace``): one ``LayerCache`` per layer, the one
object every kernel call on that layer takes, holding its arrays, one per
role, and the record of its last forward call. The chunks of a pass so
reuse one set of memory rather than allocating and freeing it chunk
after chunk, and layer i's feature map is its cache's ``output``.
``train`` holds one workspace for the steps of an epoch and drops it
before the end-of-epoch evaluation; ``forward_network`` gives the calling
thread and its helper one each for the length of the call. No array a
pass returns lies in a workspace.
Evaluation reads the windows from their series (``WindowedDataset``) and
how many rows apart they were cut (``WindowedDataset.stride``): a run of
consecutive windows whose starts are that many rows apart is a dense
group with one last feature map, the network's output on the union of
the group's rows, a slice of the series, and each window's features are
its slice of that map, as in the dense sliding-window evaluation of
OverFeat (Sermanet et al. 2014, arXiv:1312.6229). The map is computed
once, in fixed blocks of output rows whose input is at most EVAL_CHUNK
windows' rows. The classifier head is linear, so each block adds the head
product of the map rows it holds to every window that reads them, and no
block waits for or keeps another's rows. Training steps see shuffled,
augmented batches, whose windows share no rows.

Exponent payloads are stored in the representation their constraint
policy dictates (see ``constraints``), one payload per layer stacked over
its output channels (``LayerParams.payload``). Training never tests the
policy's mode itself: each step evaluates ``effective_layer``, maps each
layer's payload gradient back with ``stored_grad`` and, after the
optimizer step, applies ``enforce_bounds`` to each layer's payload. A
step sums, pairs and updates each payload as its stacked arrays
(``_tensors``); only the model file walks the payloads channel by channel
(``network_param_arrays``).
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np

from .augment import AugmentSpec, apply_pipeline, private_streams
from .constraints import (
    ConstraintPolicy,
    effective_layer,
    enforce_bounds,
    in_bounds,
    init_exponents,
    payload_arrays,
    stored_grad,
)
from .dataset import WindowedDataset, window_rows
from .gradients import layer_backward
from .layers import (
    VARIANT_TYPES,
    LayerCache,
    LayerParams,
    layer_forward,
    layer_operator,
    output_grid,
)
from .numerics import as_tensor, make_rng

FORMAT_MAGIC = b"EXPC"
FORMAT_VERSION = 1

OPTIMIZERS = ("sgd", "adam")


@dataclass
class Network:
    layers: list
    head_w: np.ndarray  # (n_features, n_classes)
    head_b: np.ndarray  # (n_classes,)
    policies: list
    input_shape: tuple
    n_classes: int

    def __post_init__(self):
        self.head_w = as_tensor(self.head_w, "head_w")
        self.head_b = as_tensor(self.head_b, "head_b")
        if len(self.policies) != len(self.layers):
            raise ValueError("one constraint policy per layer required")
        n_features = _n_features(self.layers, self.input_shape)
        if self.head_w.shape != (n_features, self.n_classes):
            raise ValueError(
                f"classifier expects ({n_features}, {self.n_classes}) "
                f"weights, got {self.head_w.shape}")
        if self.head_b.shape != (self.n_classes,):
            raise ValueError("classifier bias shape mismatch")

    @property
    def n_features(self) -> int:
        return self.head_w.shape[0]


def _n_features(layers: list, input_shape: tuple) -> int:
    """The length of the flattened last feature map of ``layers`` on
    windows of ``input_shape``. No layers, or a layer before the last that
    emits more than one channel, is a ValueError."""
    if not layers:
        raise ValueError("need at least one convolution layer")
    rows, cols = input_shape
    for i, layer in enumerate(layers):
        if i < len(layers) - 1 and layer.out_channels != 1:
            raise ValueError("layers before the last must emit one channel "
                             f"(layer {i} emits {layer.out_channels})")
        rows, cols = output_grid(layer, rows, cols)
    return rows * cols * layers[-1].out_channels


def glorot_uniform(rng: np.random.Generator, shape: tuple,
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# The keys of a layer spec: variant, k_h and k_w are required
LAYER_KEYS = ("variant", "k_h", "k_w", "out_channels", "stride_t",
              "stride_c", "activation")


def _reject_unknown_keys(entry: dict, known, where: str) -> None:
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")


def build_network(input_shape: tuple, n_classes: int, layer_specs,
                  policy: ConstraintPolicy | None = None,
                  seed: int = 0) -> Network:
    """Assemble a network with fresh weights and neutral exponents.

    Each layer spec is a dict with keys variant, k_h, k_w and optional
    out_channels, stride_t, stride_c, activation (``LAYER_KEYS``); any
    other key is a ValueError. Exponent payloads are initialized without
    consuming random draws, so networks differing only in variant share
    their filter and classifier initialization.
    """
    if policy is None:
        policy = ConstraintPolicy()
    rng = make_rng(seed)
    layers = []
    for i, spec in enumerate(layer_specs):
        _reject_unknown_keys(spec, LAYER_KEYS, f"layer {i}")
        k_h, k_w = int(spec["k_h"]), int(spec["k_w"])
        out_ch = int(spec.get("out_channels", 1))
        fan = k_h * k_w
        weights = glorot_uniform(rng, (out_ch, k_h, k_w), fan, out_ch)
        biases = np.zeros(out_ch)
        ewms = [init_exponents(spec["variant"], k_h, k_w, policy)] * out_ch
        layers.append(LayerParams(weights, biases, ewms,
                                  stride_t=int(spec.get("stride_t", 1)),
                                  stride_c=int(spec.get("stride_c", 1)),
                                  activation=spec.get("activation", "tanh")))
    n_features = _n_features(layers, input_shape)
    head_w = glorot_uniform(rng, (n_features, n_classes),
                            n_features, n_classes)
    head_b = np.zeros(n_classes)
    return Network(layers, head_w, head_b,
                   policies=[policy] * len(layers),
                   input_shape=tuple(input_shape), n_classes=n_classes)


# --------------------------------------------------------------------------
# Forward pass

def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=-1, keepdims=True)


# Every pass runs the network on chunks of this many windows: the layer
# kernels keep every channel's powered values for the windows they are
# given, so the chunk, not the batch, bounds a pass's memory. A block of
# a dense group's feature map reads at most this many windows' worth of
# input rows (``forward_network``).
EVAL_CHUNK = 4

# Threads that share ``forward_network``'s tasks: the caller and, where the
# process may run on a second CPU, one helper. Training steps stay on the
# calling thread: a second chunk's layer caches in flight would raise their
# peak memory by about a quarter.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
EVAL_WORKERS = 2 if _CPUS >= 2 else 1


@functools.cache
def _eval_helper() -> ThreadPoolExecutor:
    """The helper thread of ``forward_network``, started on first use."""
    return ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="expconv-eval")


def _check_batch_shape(net: Network, shape: tuple) -> None:
    """Raise unless ``shape`` is that of a batch (n, T, C) of the
    network's input windows."""
    if len(shape) != 3 or tuple(shape[1:]) != tuple(net.input_shape):
        raise ValueError(
            f"window shape {tuple(shape[1:])} does not match declared "
            f"input {tuple(net.input_shape)} (batch shape {tuple(shape)})")


def _effective_layers(net: Network) -> tuple[list, list]:
    """The effective layers of a pass and their operators
    (``layer_operator``), built once per pass and shared by its chunks."""
    layers = [effective_layer(layer, policy)
              for layer, policy in zip(net.layers, net.policies)]
    return layers, [layer_operator(layer) for layer in layers]


def new_workspace(net: Network) -> list:
    """A pass's workspace: one ``LayerCache`` per layer, which every kernel
    call on that layer takes, for its arrays, one per role
    (``LayerCache.buffer``), and its forward record; the last also holds
    the classifier head's arrays. Chunks run with one workspace reuse one
    set of memory."""
    return [LayerCache() for _ in net.layers]


def _run_stack(x: np.ndarray, layers: list, ops: list, workspace: list,
               keep: bool = False) -> np.ndarray:
    """Run the conv stack on ``x`` and return the last feature map.
    ``ops`` are the layers' operators and ``workspace`` holds one
    LayerCache per layer for their arrays (``new_workspace``): layer i's
    map is ``workspace[i].output``, and each layer after the first reads
    the map of the one before it. With ``keep``, each layer's cache also
    keeps what the backward pass reads (``layer_forward``)."""
    for i, (layer, op, cache) in enumerate(zip(layers, ops, workspace)):
        try:
            out = layer_forward(x, layer, cache, op, keep)
        except FloatingPointError as exc:
            raise FloatingPointError(f"layer {i}: {exc}") from exc
        x = out[..., 0]  # single channel between layers
    return out


def _features(maps: np.ndarray, space: LayerCache) -> np.ndarray:
    """The last feature maps (n, rows, cols, channels) flattened per window,
    the head's input: a copy in ``space``'s ``feats`` array."""
    feats = space.buffer("feats", (len(maps), maps[0].size))
    feats.reshape(maps.shape)[...] = maps
    return feats


def _head_shares(net: Network, maps: np.ndarray, starts: slice,
                 r_w: int, space: LayerCache) -> np.ndarray:
    """Each window's share of the head product (its logits less
    ``head_b``) over the rows of ``maps`` (rows, cols, channels), a block
    of a dense group's last feature map. The windows' ``r_w``-row maps
    begin at the rows ``starts`` of ``maps`` padded with r_w - 1 zero rows
    on each side, so a window may begin before the block or end after it;
    its rows outside the block add nothing. The padded map is ``space``'s
    ``maps`` array."""
    pad = r_w - 1
    padded = space.buffer("maps", (len(maps) + 2 * pad, maps[0].size))
    padded[:pad] = 0.0
    padded[pad + len(maps):] = 0.0
    padded[pad:pad + len(maps)].reshape(maps.shape)[...] = maps
    rows = np.lib.stride_tricks.sliding_window_view(padded, r_w,
                                                    axis=0)[starts]
    # row r of every window times the head's rows for row r, summed over
    # r: strided views, so no map row is copied once per window reading it
    return np.matmul(rows.transpose(2, 0, 1), net.head_w.reshape(
        r_w, rows.shape[1], -1)).sum(axis=0)


def _eval_chunks(continued: np.ndarray, stride: int) -> list:
    """``forward_network``'s chunks and dense groups of n windows, as
    (first, stop, stride) window ranges; ``continued[j]`` (n of them) is
    whether window j continues window j - 1, ``stride`` rows after it.

    A window and the windows after it that each continue the one before
    form a dense group. The other windows form chunks of up to
    EVAL_CHUNK consecutive windows, with stride 0; a step, whose windows
    continue nothing, passes n zeros.
    """
    n = len(continued)
    # continues[j]: window j + 1 continues window j
    continues = np.asarray(continued[1:], dtype=bool).tolist() + [False]
    chunks = []
    first = 0
    while first < n:
        stop = first + 1
        if continues[first]:
            while continues[stop - 1]:
                stop += 1
            chunks.append((first, stop, stride))
        else:
            while (stop < n and stop - first < EVAL_CHUNK
                   and not continues[stop]):
                stop += 1
            chunks.append((first, stop, 0))
        first = stop
    return chunks


def _dense_blocks(n: int, shift: int, r_w: int, size: int) -> list:
    """The blocks of a dense group of n windows whose last feature maps
    hold ``r_w`` <= ``size`` rows each, ``shift`` rows apart: (first, stop,
    lo, hi) for the group map's rows [lo, hi), ``size`` rows a block but
    the last, and the windows [first, stop) of the group whose maps touch
    them. A window's map touches one block or two adjacent ones."""
    rows = (n - 1) * shift + r_w
    los = np.arange(0, rows, size)
    firsts, stops = np.searchsorted(np.arange(n) * shift,
                                    [los - r_w + 1, los + size]).tolist()
    return [(first, stop, lo, min(lo + size, rows))
            for first, stop, lo in zip(firsts, stops, los.tolist())]


def forward_network(net: Network, windows) -> np.ndarray:
    """Class probabilities for a ``WindowedDataset``, a batch of windows
    (n, T, C) or one window (T, C).

    In a dataset, a window continues the one before it when its start in
    the series is ``stride`` rows later (``WindowedDataset.stride``), with
    0 < stride < T a multiple of the product ``unit`` of the layers'
    ``stride_t``; such a run of windows is a dense group
    (``_eval_chunks``). A window array, or one window, is held as a series
    of back-to-back windows and continues nothing. A group has one last
    feature map, the network's output on the union of its rows, and each
    window's features are its slice of that map. The map is computed once,
    in fixed blocks of ``size`` output rows counted from the group's first
    row, each from at most EVAL_CHUNK * T input rows (``_dense_blocks``);
    adjacent blocks share input rows, never an output row. The blocks are
    fixed because a row's last bit can depend on the extent it is computed
    in, so they must not depend on how the tasks are split. The head is
    linear, so each block adds the head product of the map rows it holds
    to every window that reads any of them (``_head_shares``), and nothing
    passes from one block to the next. Other windows run in chunks of up
    to EVAL_CHUNK windows, through the whole head. A dense block's input
    rows are a slice of the series, and a chunk of windows that lie back
    to back in it is a view (``window_rows``). Either way each window's
    probabilities are those of the network run on it alone, up to
    summation order.

    Each block or chunk is a task that writes its windows' shares of the
    head product into ``shares``, in the slot of its block's parity: a
    window's map spans at most two adjacent blocks, so no two tasks write
    the same cell, and a window reading one block gets zero from the other
    slot. The softmax of ``shares[0] + shares[1] + head_b`` runs once all
    tasks are done, in a fixed order, so the probabilities do not depend
    on which thread ran which task. With EVAL_WORKERS = 2 the tasks are
    shared with one helper thread (``_share_with_helper``).
    """
    win_len = net.input_shape[0]
    layers, ops = _effective_layers(net)
    field, unit = 1, 1  # input rows one output row reads, and between two
    for layer in layers:
        field += (layer.k_h - 1) * unit
        unit *= layer.stride_t
    r_w = (win_len - field) // unit + 1  # rows of a window's last map
    size = (EVAL_CHUNK * win_len - field) // unit + 1  # rows of a block
    single = False
    if isinstance(windows, WindowedDataset):
        _check_batch_shape(net, (len(windows), windows.win_len,
                                 windows.channels))
        series, starts, stride = windows.series, windows.starts, windows.stride
    else:
        windows = np.asarray(windows, dtype=np.float64)
        single = windows.ndim == 2
        windows = windows[None] if single else windows
        _check_batch_shape(net, windows.shape)
        series = windows.reshape(-1, windows.shape[2])
        starts, stride = np.arange(len(windows)) * win_len, 0
    dense = 0 < stride < win_len and stride % unit == 0
    # window 0's difference is 0: it continues nothing
    continued = dense & (np.diff(starts, prepend=starts[:1]) == stride)

    def group_rows(origin, first_row, stop_row):
        return series[starts[origin] + first_row:starts[origin] + stop_row]

    def stacked(first, stop):
        return window_rows(series, starts[first:stop], win_len)

    tasks = []  # (origin, step, first, stop, lo, hi); see _dense_blocks
    for origin, stop, step in _eval_chunks(continued, stride):
        blocks = (_dense_blocks(stop - origin, step // unit, r_w, size)
                  if step else [(0, stop - origin, 0, 0)])
        tasks += [(origin, step, *block) for block in blocks]
    shares = np.zeros((2, len(continued), net.n_classes))
    workspaces = (new_workspace(net), new_workspace(net))  # one per thread

    def run_task(k, worker):
        origin, step, first, stop, lo, hi = tasks[k]
        space = workspaces[worker]
        if step:
            # rows [lo, hi) of the group's map
            maps = _run_stack(group_rows(
                origin, lo * unit, (hi - 1) * unit + field)[None],
                layers, ops, space)
            shift = step // unit
            part = _head_shares(net, maps[0], slice(
                first * shift - lo + r_w - 1, stop * shift - lo + r_w - 1,
                shift), r_w, space[-1])
        else:
            maps = _run_stack(
                stacked(origin + first, origin + stop), layers, ops, space)
            part = _features(maps, space[-1]) @ net.head_w
        shares[lo // size % 2, origin + first:origin + stop] = part

    if EVAL_WORKERS < 2 or len(tasks) < 2:
        for k in range(len(tasks)):
            run_task(k, 0)
    else:
        _share_with_helper(run_task, len(tasks))
    probs = softmax(shares[0] + shares[1] + net.head_b)
    return probs[0] if single else probs


def _share_with_helper(run_task, n_tasks: int) -> None:
    """Run tasks [0, half) of n_tasks on this thread and [half, n_tasks)
    on the helper, in a copy of this thread's context, so its
    ``np.errstate`` holds in both, and raise what a serial loop would
    raise. ``run_task(k, worker)`` runs task k on worker 0 (this thread)
    or 1 (the helper), so each thread can write into its own workspace;
    tasks keep no state between them, so either thread may run any of
    them.

    Every task of this thread comes before every task of the helper, so
    a failure here is the earliest: it sets ``stop``, which the helper
    reads before each task, and is raised once the helper has stopped.
    Otherwise ``helper.result()`` waits for the helper and raises its first
    failure, if any.
    """
    half = (n_tasks + 1) // 2
    stop = False  # written by this thread only, read by the helper

    def run_second_half():
        for k in range(half, n_tasks):
            if not stop:
                run_task(k, 1)

    helper = _eval_helper().submit(contextvars.copy_context().run,
                                   run_second_half)
    try:
        for k in range(half):
            run_task(k, 0)
    except BaseException:  # interrupts too: the helper ends its task
        stop = True
        wait([helper])
        raise
    helper.result()


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood, computed through log-sum-exp."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(lse - picked))


def _checked_labels(labels, n: int, n_classes: int) -> np.ndarray:
    """``labels`` as an array of n > 0 integer classes in [0, n_classes);
    anything else is a ValueError."""
    labels = np.asarray(labels)
    if n == 0 or labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ValueError(f"need one integer label per window of a non-empty "
                         f"batch of {n}, got {labels.dtype} labels of shape "
                         f"{labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes}), got "
                         f"{labels.min()} to {labels.max()}")
    return labels


@dataclass
class NetGrads:
    layers: list  # GradBundle per layer, payload grads w.r.t. stored values
    d_head_w: np.ndarray
    d_head_b: np.ndarray


def _tensors(layers, head_w, head_b) -> list:
    """The arrays of (weights, biases, payload) triples, each payload as its
    stacked arrays, then the classifier head: the order in which a step
    sums chunk gradients, pairs tensors with gradients and updates them."""
    arrays = []
    for weights, biases, payload in layers:
        arrays += [weights, biases, *payload_arrays(payload)]
    return arrays + [head_w, head_b]


def _grad_tensors(grads: NetGrads) -> list:
    """Every parameter gradient of ``grads``, in ``_tensors`` order."""
    return _tensors([(b.d_weights, b.d_biases, b.d_payload)
                     for b in grads.layers], grads.d_head_w, grads.d_head_b)


def network_loss_grads(net: Network, windows: np.ndarray,
                       labels: np.ndarray, workspace: list | None = None):
    """Mean cross-entropy over the batch and gradients for every tensor.

    Each window's loss and upstream gradients depend on that window alone,
    so the network runs forward, through the head and backward on one
    chunk of windows at a time, the chunks ``_eval_chunks`` gives for
    windows that continue nothing, and holds one chunk's layer caches,
    whatever the batch size: ``workspace`` (``new_workspace``), a fresh
    one when not given, whose cache for a layer its forward fills with
    ``keep=True`` and its backward reads, so every chunk reuses one set of
    memory; ``train`` passes one to every step of an epoch. A layer's
    input in the backward pass is the windows or the ``output`` of the
    layer before it. Each layer's operator is built once for all chunks.
    The chunks' parameter gradients are summed, stacked array by stacked
    array (``_tensors``), and their input gradients copied into
    full-batch arrays, so no returned array lies in the workspace. Only a
    later layer reads an input gradient, so layer 0, whose input is the
    windows, skips it: its bundle carries an empty ``d_input``.
    """
    windows = np.asarray(windows, dtype=np.float64)
    _check_batch_shape(net, windows.shape)
    n = len(windows)
    labels = _checked_labels(labels, n, net.n_classes)
    evaluated, ops = _effective_layers(net)
    if workspace is None:
        workspace = new_workspace(net)
    head = workspace[-1]
    loss, grads, d_inputs = 0.0, None, None
    for first, stop, _ in _eval_chunks(np.zeros(n, dtype=bool), 0):
        rows = slice(first, stop)
        y = labels[rows]
        maps = _run_stack(windows[rows], evaluated, ops, workspace, keep=True)
        feats = _features(maps, head)
        logits = feats @ net.head_w + net.head_b
        loss += cross_entropy(logits, y) * len(y)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss")
        d_logits = softmax(logits)
        d_logits[np.arange(len(y)), y] -= 1.0
        d_logits /= n
        upstream = np.matmul(d_logits, net.head_w.T, out=head.buffer(
            "upstream", feats.shape)).reshape(maps.shape)
        bundles = [None] * len(evaluated)
        for i in reversed(range(len(evaluated))):
            x = workspace[i - 1].output[..., 0] if i else windows[rows]
            try:
                bundles[i] = layer_backward(x, evaluated[i], upstream,
                                            cache=workspace[i],
                                            input_grad=i > 0, op=ops[i])
            except FloatingPointError as exc:
                raise FloatingPointError(f"layer {i}: {exc}") from exc
            upstream = bundles[i].d_input[..., None]
        if d_inputs is None:  # layer 0's stays the empty array
            d_inputs = [b.d_input if i == 0 else
                        np.empty((n, *b.d_input.shape[1:]))
                        for i, b in enumerate(bundles)]
        for bundle, d_input in zip(bundles[1:], d_inputs[1:]):
            d_input[rows] = bundle.d_input
        # the first chunk's gradients become the sums: new arrays
        d_head_w = (feats.T @ d_logits if grads is None else np.matmul(
            feats.T, d_logits, out=head.buffer("d_head_w", net.head_w.shape)))
        chunk = NetGrads(bundles, d_head_w, d_logits.sum(axis=0))
        if grads is None:
            grads = chunk
        else:
            for total, part in zip(_grad_tensors(grads),
                                   _grad_tensors(chunk)):
                total += part
    for bundle, layer, policy, d_input in zip(grads.layers, net.layers,
                                              net.policies, d_inputs):
        bundle.d_input = d_input
        stored_grad(bundle.d_payload, layer.payload, policy)
    return loss / n, grads


# --------------------------------------------------------------------------
# Optimizers

@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    augments: tuple = ()
    policy: ConstraintPolicy | None = None
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs >= 0, batch_size >= 1, eval_every >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be positive")
        for spec in self.augments:
            if not isinstance(spec, AugmentSpec):
                raise TypeError("augments must be AugmentSpec instances")


def network_param_arrays(net: Network) -> list:
    """Each layer's weights, biases and, channel by channel, views of its
    stacked payload's arrays; then the classifier head: the order of the
    model file."""
    arrays = []
    for layer in net.layers:
        arrays += [layer.weights, layer.biases]
        for ewm in layer.ewms:
            arrays += payload_arrays(ewm)
    return arrays + [net.head_w, net.head_b]


def _param_grad_pairs(net: Network, grads: NetGrads):
    """Stored tensors paired with their gradients (``_tensors``)."""
    params = _tensors([(layer.weights, layer.biases, layer.payload)
                       for layer in net.layers], net.head_w, net.head_b)
    return list(zip(params, _grad_tensors(grads), strict=True))


# The optimizers hold scratch arrays shaped like the tensors, created on
# the first step, and write every temporary of a step into them.

class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr
        self.scratch = None

    def step(self, pairs):
        if self.scratch is None:
            self.scratch = [np.empty_like(p) for p, _ in pairs]
        for (param, grad), s in zip(pairs, self.scratch):
            param -= np.multiply(self.lr, grad, out=s)


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None
        self.scratch = None

    def step(self, pairs):
        if self.m is None:
            self.m = [np.zeros_like(p) for p, _ in pairs]
            self.v = [np.zeros_like(p) for p, _ in pairs]
            self.scratch = [(np.empty_like(p), np.empty_like(p))
                            for p, _ in pairs]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for (param, grad), m, v, (a, b) in zip(pairs, self.m, self.v,
                                               self.scratch):
            m *= b1
            m += np.multiply(1.0 - b1, grad, out=a)
            v *= b2
            v += np.multiply(np.multiply(1.0 - b2, grad, out=a), grad, out=a)
            # param -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(self.lr, np.divide(m, bc1, out=a), out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), self.eps, out=b)
            param -= np.divide(a, b, out=a)


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return _Sgd(config.learning_rate)
    return _Adam(config.learning_rate, config.beta1, config.beta2,
                 config.adam_eps)


def enforce_constraints(net: Network) -> None:
    """Bring every layer's stored exponents back into bounds after an
    optimizer step (``enforce_bounds``)."""
    for layer, policy in zip(net.layers, net.policies):
        enforce_bounds(layer.payload, policy)


# --------------------------------------------------------------------------
# Metrics

@dataclass
class Metrics:
    confusion: np.ndarray  # (n_classes, n_classes), rows = true labels
    accuracy: float
    detection: np.ndarray  # per-class recall; 0 for absent classes
    false_alarm: float     # normal windows predicted faulty

    @property
    def n_classes(self) -> int:
        return self.confusion.shape[0]


def predict(net: Network, windows: np.ndarray) -> np.ndarray:
    return np.argmax(forward_network(net, windows), axis=-1)


def evaluate(net: Network, dataset: WindowedDataset) -> Metrics:
    """The metrics of the network's predictions on the dataset. The
    dataset is passed to ``forward_network``, which reads its series, so
    the rows that windows whose starts lie ``stride`` apart share are run
    once. A label outside [0, n_classes) is a ValueError."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    true = _checked_labels(dataset.labels, len(dataset), net.n_classes)
    preds = np.argmax(forward_network(net, dataset), axis=-1)
    k = net.n_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (true, preds), 1)
    accuracy = float(np.trace(confusion) / len(dataset))
    row_sums = confusion.sum(axis=1)
    detection = np.where(row_sums > 0,
                         np.diag(confusion) / np.maximum(row_sums, 1), 0.0)
    normal = row_sums[0]
    false_alarm = float((normal - confusion[0, 0]) / normal) if normal else 0.0
    return Metrics(confusion, accuracy, detection, false_alarm)


# --------------------------------------------------------------------------
# Training loop

def train(net: Network, dataset: WindowedDataset, config: TrainConfig,
          eval_dataset: WindowedDataset | None = None):
    """Minibatch cross-entropy training with constraint enforcement.

    Returns the trained network and a per-epoch history list of dicts
    (epoch, loss, and evaluation fields on eval_every epochs). Shuffling
    and augmentation draw from streams spawned off config.seed, so a
    fixed config reproduces the run exactly. A numeric failure in a
    batch, including an optimizer step that leaves a parameter
    non-finite, raises FloatingPointError naming the epoch and batch; one
    in an evaluation names the epoch it follows.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    if config.policy is not None:
        for pol in net.policies:
            if pol != config.policy:
                raise ValueError(
                    "config constraint policy differs from the network's; "
                    "build the network with the policy you train under")
    history = []
    shuffle_rng, aug_rng = make_rng(config.seed).spawn(2)
    streams = private_streams(config.augments)
    optimizer = make_optimizer(config)
    eval_set = eval_dataset if eval_dataset is not None else dataset
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset))
        batch_losses = []
        workspace = new_workspace(net)  # the arrays of the epoch's steps
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = window_rows(dataset.series, dataset.starts[idx],
                             dataset.win_len)
            yb = dataset.labels[idx]
            try:
                if config.augments:
                    xb = np.stack([apply_pipeline(w, config.augments, aug_rng,
                                                  streams) for w in xb])
                loss, grads = network_loss_grads(net, xb, yb,
                                                 workspace=workspace)
                pairs = _param_grad_pairs(net, grads)
                with np.errstate(over="ignore", invalid="ignore"):
                    optimizer.step(pairs)
                    enforce_constraints(net)
                if not all(np.isfinite(param).all() for param, _ in pairs):
                    raise FloatingPointError(
                        "optimizer step left non-finite parameters")
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"{exc} at epoch {epoch}, "
                    f"batch {start // config.batch_size}") from exc
            batch_losses.append(loss)
        del workspace  # freed before an evaluation allocates its own
        record = {"epoch": epoch, "loss": float(np.mean(batch_losses))}
        last = epoch == config.epochs - 1
        if (epoch + 1) % config.eval_every == 0 or last:
            try:
                m = evaluate(net, eval_set)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"{exc} while evaluating after epoch {epoch}") from exc
            record["accuracy"] = m.accuracy
            record["false_alarm"] = m.false_alarm
            record["detection"] = m.detection.tolist()
        history.append(record)
    return net, history


def write_history_csv(history, path, n_classes: int) -> None:
    """epoch, loss, accuracy, false_alarm, det_<k>... with blanks on
    epochs that were not evaluated."""
    import csv

    det_cols = [f"det_{k}" for k in range(n_classes)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "accuracy", "false_alarm"]
                        + det_cols)
        for rec in history:
            row = [rec["epoch"], repr(rec["loss"])]
            if "accuracy" in rec:
                row += [repr(rec["accuracy"]), repr(rec["false_alarm"])]
                row += [repr(v) for v in rec["detection"]]
            else:
                row += ["", ""] + [""] * n_classes
            writer.writerow(row)


# --------------------------------------------------------------------------
# Model serialization: magic, version, JSON metadata, then the tensors of
# network_param_arrays in order as row-major float64 little-endian.

# The metadata keys ``_net_metadata`` writes; ``load_model`` rejects others
_META_KEYS = ("input_shape", "n_classes", "layers", "tensor_shapes")
_POLICY_KEYS = tuple(f.name for f in fields(ConstraintPolicy))


def _net_metadata(net: Network) -> dict:
    """Each layer's ``LAYER_KEYS`` and its policy's ``_POLICY_KEYS``, read
    off the layer and the policy, with the network's shapes."""
    layers = [{**{key: getattr(layer, key) for key in LAYER_KEYS},
               "policy": {key: getattr(policy, key) for key in _POLICY_KEYS}}
              for layer, policy in zip(net.layers, net.policies)]
    return {
        "input_shape": list(net.input_shape),
        "n_classes": net.n_classes,
        "layers": layers,
        "tensor_shapes": [list(a.shape) for a in network_param_arrays(net)],
    }


def save_model(net: Network, path) -> None:
    meta = json.dumps(_net_metadata(net), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(FORMAT_MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(meta)))
        fh.write(meta)
        for arr in network_param_arrays(net):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> Network:
    """Read a model written by save_model. A corrupt or truncated file
    raises ValueError naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = 4 + 4 + 8
    if blob[:4] != FORMAT_MAGIC:
        raise ValueError(f"{path}: not a model file (magic {blob[:4]!r})")
    if len(blob) < header:
        raise ValueError(f"{path}: truncated header")
    version, meta_len = struct.unpack_from("<IQ", blob, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if meta_len > len(blob) - header:
        raise ValueError(f"{path}: metadata length {meta_len} exceeds the "
                         f"{len(blob) - header} bytes after the header")
    try:
        meta = json.loads(blob[header:header + meta_len].decode("utf-8"))
        return _network_from(meta, blob, header + meta_len)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{path}: malformed metadata "
                         f"({type(exc).__name__}: {exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _network_from(meta: dict, blob: bytes, pos: int) -> Network:
    """The network described by parsed metadata, with its tensors read from
    ``blob`` starting at ``pos``. A key ``_net_metadata`` does not write, or
    a tensor the layers and the head do not read, is a ValueError."""
    _reject_unknown_keys(meta, _META_KEYS, "metadata")
    for i, spec in enumerate(meta["layers"]):
        _reject_unknown_keys(spec, LAYER_KEYS + ("policy",), f"layer {i}")
        _reject_unknown_keys(spec["policy"], _POLICY_KEYS, f"layer {i} policy")
    tensors = []
    for shape in meta["tensor_shapes"]:
        if any(not isinstance(d, int) or d < 0 for d in shape):
            raise TypeError(f"tensor shape {shape} is not a list of sizes")
        count = math.prod(shape)
        if count * 8 > len(blob) - pos:
            raise ValueError("truncated tensor data")
        tensors.append(np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=pos).reshape(shape)
                       .astype(np.float64))
        pos += count * 8
    if pos != len(blob):
        raise ValueError("trailing data")
    sizes = [(f"input_shape[{j}]", d)
             for j, d in enumerate(meta["input_shape"])]
    sizes.append(("n_classes", meta["n_classes"]))
    for i, spec in enumerate(meta["layers"]):
        sizes += [(f"layers[{i}].{key}", spec[key]) for key in
                  ("out_channels", "k_h", "k_w", "stride_t", "stride_c")]
    for name, value in sizes:
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")

    layers = []
    policies = []
    pos = 0
    for i, spec in enumerate(meta["layers"]):
        weights = tensors[pos]
        biases = tensors[pos + 1]
        kernel = (spec["out_channels"], spec["k_h"], spec["k_w"])
        if weights.shape != kernel:
            raise ValueError(f"layer {i}: weights shape {weights.shape} does "
                             f"not match the layer spec's {kernel}")
        pos += 2
        variant = VARIANT_TYPES[spec["variant"]]
        width = len(fields(variant))
        ewms = []
        for _ in range(spec["out_channels"]):
            ewms.append(variant(*tensors[pos:pos + width]))
            pos += width
        layers.append(LayerParams(weights, biases, ewms,
                                  stride_t=spec["stride_t"],
                                  stride_c=spec["stride_c"],
                                  activation=spec["activation"]))
        policies.append(ConstraintPolicy(
            **{key: spec["policy"][key] for key in _POLICY_KEYS}))
        if not in_bounds(layers[i].payload, policies[i]):
            raise ValueError(
                f"layer {i}: stored exponents lie outside "
                f"[{policies[i].v_min}, {policies[i].v_max}] under "
                f"{policies[i].mode}")
    head_w, head_b = tensors[pos], tensors[pos + 1]
    if len(tensors) != pos + 2:
        raise ValueError(f"tensor_shapes declares {len(tensors)} tensors, "
                         f"the layers and the head read {pos + 2}")
    return Network(layers, head_w, head_b, policies=policies,
                   input_shape=tuple(meta["input_shape"]),
                   n_classes=meta["n_classes"])
