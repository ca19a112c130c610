"""Network assembly, loss, optimizers, training loop, evaluation.

A network is a chain of nonlinear convolution layers followed by a dense
softmax classifier over the flattened last feature map. Layers between
the input and the last convolution must emit a single channel so their
output is again a (time, channel) matrix.

Exponent payloads are stored in the representation their constraint
policy dictates (see ``constraints``), one payload per layer stacked over
its output channels (``LayerParams.payload``). Training never tests the
policy's mode itself: each step evaluates ``effective_layer``, maps each
layer's payload gradient back with ``stored_grad`` and, after the
optimizer step, applies ``enforce_bounds`` to each layer's payload. Only
the model file and the optimizer state walk the payloads channel by
channel (``_file_order``).
"""

from __future__ import annotations

import json
import math
import struct
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
from .dataset import WindowedDataset
from .gradients import layer_backward
from .layers import VARIANT_TYPES, LayerCache, LayerParams, layer_forward, output_grid
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
        if not self.layers:
            raise ValueError("need at least one convolution layer")
        if len(self.policies) != len(self.layers):
            raise ValueError("one constraint policy per layer required")
        rows, cols = self.input_shape
        for i, layer in enumerate(self.layers):
            rows, cols = output_grid(layer, rows, cols)
            last = i == len(self.layers) - 1
            if not last and layer.out_channels != 1:
                raise ValueError(
                    "layers before the last must emit one channel "
                    f"(layer {i} emits {layer.out_channels})")
        n_features = rows * cols * self.layers[-1].out_channels
        if self.head_w.shape != (n_features, self.n_classes):
            raise ValueError(
                f"classifier expects ({n_features}, {self.n_classes}) "
                f"weights, got {self.head_w.shape}")
        if self.head_b.shape != (self.n_classes,):
            raise ValueError("classifier bias shape mismatch")

    @property
    def n_features(self) -> int:
        return self.head_w.shape[0]


def glorot_uniform(rng: np.random.Generator, shape: tuple,
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def build_network(input_shape: tuple, n_classes: int, layer_specs,
                  policy: ConstraintPolicy | None = None,
                  seed: int = 0) -> Network:
    """Assemble a network with fresh weights and neutral exponents.

    Each layer spec is a dict with keys variant, out_channels, k_h, k_w
    and optional stride_t, stride_c, activation. Exponent payloads are
    initialized without consuming random draws, so networks differing
    only in variant share their filter and classifier initialization.
    """
    if policy is None:
        policy = ConstraintPolicy()
    rng = make_rng(seed)
    layers = []
    rows, cols = input_shape
    for spec in layer_specs:
        k_h, k_w = int(spec["k_h"]), int(spec["k_w"])
        out_ch = int(spec.get("out_channels", 1))
        fan = k_h * k_w
        weights = glorot_uniform(rng, (out_ch, k_h, k_w), fan, out_ch)
        biases = np.zeros(out_ch)
        ewms = [init_exponents(spec["variant"], k_h, k_w, policy)] * out_ch
        layer = LayerParams(weights, biases, ewms,
                            stride_t=int(spec.get("stride_t", 1)),
                            stride_c=int(spec.get("stride_c", 1)),
                            activation=spec.get("activation", "tanh"))
        layers.append(layer)
        rows, cols = output_grid(layer, rows, cols)
    n_features = rows * cols * layers[-1].out_channels
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
# given, so the chunk, not the batch, bounds a pass's memory.
EVAL_CHUNK = 8


def _checked_windows(net: Network, windows: np.ndarray) -> np.ndarray:
    """A batch (n, T, C) of the network's input windows, as float64."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != tuple(net.input_shape):
        raise ValueError(
            f"window shape {windows.shape[1:]} does not match declared "
            f"input {tuple(net.input_shape)} (batch shape {windows.shape})")
    return windows


def _effective_layers(net: Network) -> list:
    return [effective_layer(layer, policy)
            for layer, policy in zip(net.layers, net.policies)]


def _forward_trace(net: Network, x: np.ndarray, layers: list | None = None,
                   caches: list | None = None):
    """Run the conv stack, keeping per-layer inputs and raw outputs.

    ``layers`` are the effective layers (built here when omitted); with
    ``caches``, one LayerCache per layer, each layer's forward state is
    kept for the backward pass.
    """
    if layers is None:
        layers = _effective_layers(net)
    inputs = []
    outputs = []
    cur = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(layers):
        inputs.append(cur)
        try:
            out = layer_forward(cur, layer,
                                cache=None if caches is None else caches[i])
        except FloatingPointError as exc:
            raise FloatingPointError(f"layer {i}: {exc}") from exc
        outputs.append(out)
        cur = out[..., 0]  # single channel between layers
    feats = outputs[-1].reshape(x.shape[0], -1)
    logits = feats @ net.head_w + net.head_b
    return inputs, outputs, feats, logits


def forward_network(net: Network, windows: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of windows (n, T, C) or one (T, C),
    computed EVAL_CHUNK windows at a time."""
    windows = np.asarray(windows, dtype=np.float64)
    single = windows.ndim == 2
    windows = _checked_windows(net, windows[None] if single else windows)
    layers = _effective_layers(net)
    probs = np.empty((len(windows), net.n_classes))
    for start in range(0, len(windows), EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        _, _, _, logits = _forward_trace(net, windows[rows], layers)
        probs[rows] = softmax(logits)
    return probs[0] if single else probs


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood, computed through log-sum-exp."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(lse - picked))


@dataclass
class NetGrads:
    layers: list  # GradBundle per layer, payload grads w.r.t. stored values
    d_head_w: np.ndarray
    d_head_b: np.ndarray


def network_loss_grads(net: Network, windows: np.ndarray,
                       labels: np.ndarray):
    """Mean cross-entropy over the batch and gradients for every tensor.

    Each window's loss and upstream gradients depend on that window alone,
    so the network runs forward, through the head and backward on one
    chunk of EVAL_CHUNK windows at a time and holds one chunk's layer
    caches, whatever the batch size. The chunks' parameter gradients are
    summed and their input gradients joined into full-batch arrays.
    """
    windows = _checked_windows(net, windows)
    n = len(windows)
    labels = np.asarray(labels)
    if n == 0 or labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ValueError(f"need one integer label per window of a non-empty "
                         f"batch of {n}, got {labels.dtype} labels of shape "
                         f"{labels.shape}")
    if labels.min() < 0 or labels.max() >= net.n_classes:
        raise ValueError(f"labels must lie in [0, {net.n_classes}), got "
                         f"{labels.min()} to {labels.max()}")
    evaluated = _effective_layers(net)
    loss, grads, d_inputs = 0.0, None, []
    for start in range(0, n, EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        y = labels[rows]
        caches = [LayerCache() for _ in evaluated]
        inputs, outputs, feats, logits = _forward_trace(
            net, windows[rows], evaluated, caches)
        loss += cross_entropy(logits, y) * len(y)
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss")
        d_logits = softmax(logits)
        d_logits[np.arange(len(y)), y] -= 1.0
        d_logits /= n
        upstream = (d_logits @ net.head_w.T).reshape(outputs[-1].shape)
        bundles = [None] * len(evaluated)
        for i in reversed(range(len(evaluated))):
            bundles[i] = layer_backward(inputs[i], evaluated[i], upstream,
                                        cache=caches[i])
            upstream = bundles[i].d_input[..., None]
        d_inputs.append([b.d_input for b in bundles])
        chunk = NetGrads(bundles, feats.T @ d_logits, d_logits.sum(axis=0))
        if grads is None:
            grads = chunk
        else:
            for total, part in zip(_grad_arrays(grads), _grad_arrays(chunk)):
                total += part
    for bundle, layer, policy, parts in zip(grads.layers, net.layers,
                                            net.policies, zip(*d_inputs)):
        bundle.d_input = np.concatenate(parts)
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        for spec in self.augments:
            if not isinstance(spec, AugmentSpec):
                raise TypeError("augments must be AugmentSpec instances")


def _file_order(layers, head_w, head_b) -> list:
    """Each layer's weights, biases and, channel by channel, views of its
    stacked payload's arrays; then the classifier head: the order of the
    model file and of the optimizer state."""
    arrays = []
    for weights, biases, payload in layers:
        arrays += [weights, biases]
        stacked = payload_arrays(payload)
        for m in range(len(weights)):
            arrays += [a[m] for a in stacked]
    return arrays + [head_w, head_b]


def network_param_arrays(net: Network) -> list:
    return _file_order(
        [(layer.weights, layer.biases, layer.payload) for layer in net.layers],
        net.head_w, net.head_b)


def _grad_arrays(grads: NetGrads) -> list:
    """Every parameter gradient in file order, payload gradients as views."""
    return _file_order(
        [(b.d_weights, b.d_biases, b.d_payload) for b in grads.layers],
        grads.d_head_w, grads.d_head_b)


def _param_grad_pairs(net: Network, grads: NetGrads):
    """Stored tensors paired with their gradients, in file order."""
    return list(zip(network_param_arrays(net), _grad_arrays(grads),
                    strict=True))


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, pairs):
        for param, grad in pairs:
            param -= self.lr * grad


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, pairs):
        if self.m is None:
            self.m = [np.zeros_like(p) for p, _ in pairs]
            self.v = [np.zeros_like(p) for p, _ in pairs]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for (param, grad), m, v in zip(pairs, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            param -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


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
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    preds = predict(net, dataset.windows)
    true = dataset.labels
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
    fixed config reproduces the run exactly.
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
    if config.epochs == 0:
        return net, history
    shuffle_rng, aug_rng = make_rng(config.seed).spawn(2)
    streams = private_streams(config.augments)
    optimizer = make_optimizer(config)
    eval_set = eval_dataset if eval_dataset is not None else dataset
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset))
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = dataset.windows[idx]
            yb = dataset.labels[idx]
            if config.augments:
                xb = np.stack([apply_pipeline(w, config.augments, aug_rng,
                                              streams) for w in xb])
            try:
                loss, grads = network_loss_grads(net, xb, yb)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"{exc} at epoch {epoch}, "
                    f"batch {start // config.batch_size}") from exc
            optimizer.step(_param_grad_pairs(net, grads))
            enforce_constraints(net)
            batch_losses.append(loss)
        record = {"epoch": epoch, "loss": float(np.mean(batch_losses))}
        last = epoch == config.epochs - 1
        if (epoch + 1) % config.eval_every == 0 or last:
            m = evaluate(net, eval_set)
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

def _net_metadata(net: Network) -> dict:
    layers = []
    for layer, policy in zip(net.layers, net.policies):
        layers.append({
            "variant": layer.variant,
            "out_channels": layer.out_channels,
            "k_h": layer.k_h,
            "k_w": layer.k_w,
            "stride_t": layer.stride_t,
            "stride_c": layer.stride_c,
            "activation": layer.activation,
            "policy": {"v_min": policy.v_min, "v_max": policy.v_max,
                       "mode": policy.mode, "kind": policy.kind},
        })
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
    ``blob`` starting at ``pos``."""
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
        pol = spec["policy"]
        policies.append(ConstraintPolicy(v_min=pol["v_min"],
                                         v_max=pol["v_max"],
                                         mode=pol["mode"], kind=pol["kind"]))
        if not in_bounds(layers[i].payload, policies[i]):
            raise ValueError(
                f"layer {i}: stored exponents lie outside "
                f"[{policies[i].v_min}, {policies[i].v_max}] under "
                f"{policies[i].mode}")
    head_w, head_b = tensors[pos], tensors[pos + 1]
    return Network(layers, head_w, head_b, policies=policies,
                   input_shape=tuple(meta["input_shape"]),
                   n_classes=meta["n_classes"])
