"""Forward evaluation of exponent-weighted convolutional units.

A unit reads one receptive field X (k_h rows = time steps, k_w columns =
sensor channels) and combines a standard linear filter with an exponent
stage. Six exponent configurations are supported:

* Standard      -- no exponent stage, plain linear filter.
* Elementwise   -- one exponent per receptive-field entry.
* RowShared     -- one exponent per time-step row.
* ColShared     -- one exponent per sensor-channel column.
* Bilinear      -- log-magnitudes mixed as row_mix @ log|X| @ col_mix.
* FullMatrix    -- log-magnitudes of the vectorized patch mixed by an
                  n x n matrix (n = k_h * k_w), the most general form.

Each configuration is one payload dataclass, and that class is the only
place the variant is described: its fields are its arrays in the order
the model file stores them, and its methods give their shapes for a
kernel (``shapes``), the payload that reduces the unit to a standard
filter (``neutral``: ones or identities), its operator on the row-major
flattened log-magnitudes (``operator``: an (n,) diagonal or an (n, n)
matrix) and the payload gradient from that operator's gradient
(``operator_grad``). Fields may carry leading axes: a layer stacks the
payloads of its output channels into one payload whose fields are
(out_channels, ...) arrays, and ``operator`` and ``operator_grad`` act on
every channel at once. ``VARIANT_TYPES`` maps variant names to the
classes; ``payload_arrays`` and ``payload_map`` reach the arrays of any
payload.

Negative inputs are handled by computing on magnitudes (clamped at
``DEFAULT_EPS``) and re-applying the original elementwise sign, which
reduces exactly to ``signed_pow`` whenever the mixing is diagonal.

A layer evaluates all of its output channels from one (n, N) patch
matrix for N patches, the layout of ``numerics.extract_patches`` reshaped,
so every elementwise operation runs along the N patches.
The sign (sign(0) = +1) and the clamped log-magnitude
L = log(max(|x|, DEFAULT_EPS)) are computed once per input entry and then
laid out as (n, N) patch matrices. Channel m's powered values are
sign * exp(E[m][:, None] * L) for a diagonal operator and
sign * exp(K[m] @ L) for a matrix (bilinear as K = kron(row_mix, col_mix.T),
so row_mix @ L @ col_mix is one matrix product over all patches), with the
sign applied by a multiply, and its pre-activation is one vector-matrix
product with its filter.

A layer call takes one ``LayerCache``, the pass's object for that layer:
``layer_forward`` writes its large arrays through NumPy's ``out=``
arguments into the cache's arrays, one per role (``LayerCache.buffer``),
and records there the views its backward pass reads, and
``layer_backward`` reads them and writes its own arrays beside them, so
the exponent stage runs once per training step. The owner of a pass
passes one cache per layer to all of its chunks, so they reuse one set
of memory; a call without one makes a fresh one. A map returned to a
caller that passed a cache is a view of it, valid until that caller's
next call with it. The powered values alone are M * n * N floats for N
patches, so the forward keeps every channel's only when asked to
(``keep=True``, what a backward pass needs), and training passes a few
windows at a time (``training.EVAL_CHUNK``); otherwise the channels
share one (n, N) scratch matrix for them. The operator
(``layer_operator``) depends on the parameters alone: a pass over many
chunks builds it once per layer and passes it as ``op`` to every kernel
call, and a call without ``op`` builds its own. The
single-receptive-field ``unit_*`` functions are separate direct
implementations and serve as the oracle for the layer kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import (
    as_tensor,
    extract_patches,
    log_magnitude,
    patch_grid,
    patch_shape,
    signed_pow,
    vec,
)

ACTIVATIONS = ("relu", "tanh", "identity")


# --------------------------------------------------------------------------
# Exponent payloads, one class per variant. A channel's payload is shared
# across every spatial position of that channel; a layer stacks its
# channels' payloads on a leading axis.

class Payload:
    """Base of the exponent payloads; subclasses are dataclasses whose
    fields are float64 arrays."""

    name = ""

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, as_tensor(getattr(self, f.name), f.name))

    @staticmethod
    def shapes(k_h: int, k_w: int) -> tuple:
        """The shape of each field for a k_h x k_w kernel."""
        return ()

    @classmethod
    def neutral(cls, k_h: int, k_w: int) -> Payload:
        """The payload that makes the unit a standard linear filter."""
        return cls(*(np.ones(s) for s in cls.shapes(k_h, k_w)))

    def operator(self, k_h: int, k_w: int) -> np.ndarray | None:
        """The exponent stage on row-major flattened log|x| (n = k_h * k_w
        entries): an (..., n) diagonal, an (..., n, n) matrix, or None for
        none, with the fields' leading axes in front."""
        return None

    def operator_grad(self, d_op: np.ndarray, k_h: int, k_w: int) -> Payload:
        """The payload gradient from the gradient of ``operator``, leading
        axes included."""
        raise NotImplementedError


@dataclass(eq=False)
class Standard(Payload):
    """Plain linear filter; no exponent parameters."""

    name = "standard"


@dataclass(eq=False)
class Elementwise(Payload):
    """One exponent per receptive-field entry."""

    exponents: np.ndarray  # (k_h, k_w)
    name = "elementwise"

    @staticmethod
    def shapes(k_h, k_w):
        return ((k_h, k_w),)

    def operator(self, k_h, k_w):
        return self.exponents.reshape(*self.exponents.shape[:-2], -1)

    def operator_grad(self, d_op, k_h, k_w):
        return Elementwise(d_op.reshape(*d_op.shape[:-1], k_h, k_w))


@dataclass(eq=False)
class RowShared(Payload):
    """One exponent per time-step row, tied across the row."""

    row_exponents: np.ndarray  # (k_h,)
    name = "row_shared"

    @staticmethod
    def shapes(k_h, k_w):
        return ((k_h,),)

    def operator(self, k_h, k_w):
        return np.repeat(self.row_exponents, k_w, axis=-1)

    def operator_grad(self, d_op, k_h, k_w):
        # tied positions accumulate
        return RowShared(d_op.reshape(*d_op.shape[:-1], k_h, k_w).sum(axis=-1))


@dataclass(eq=False)
class ColShared(Payload):
    """One exponent per sensor-channel column, tied down the column."""

    col_exponents: np.ndarray  # (k_w,)
    name = "col_shared"

    @staticmethod
    def shapes(k_h, k_w):
        return ((k_w,),)

    def operator(self, k_h, k_w):
        return np.tile(self.col_exponents, k_h)

    def operator_grad(self, d_op, k_h, k_w):
        return ColShared(d_op.reshape(*d_op.shape[:-1], k_h, k_w).sum(axis=-2))


@dataclass(eq=False)
class Bilinear(Payload):
    """Log-magnitudes mixed as row_mix @ log|X| @ col_mix."""

    row_mix: np.ndarray  # (k_h, k_h)
    col_mix: np.ndarray  # (k_w, k_w)
    name = "bilinear"

    @staticmethod
    def shapes(k_h, k_w):
        return ((k_h, k_h), (k_w, k_w))

    @classmethod
    def neutral(cls, k_h, k_w):
        return cls(np.eye(k_h), np.eye(k_w))

    def operator(self, k_h, k_w):
        # kron(row_mix, col_mix.T):
        # K[(a, d), (b, c)] = row_mix[a, b] * col_mix[c, d]
        lead = self.row_mix.shape[:-2]
        return np.einsum("...ab,...cd->...adbc", self.row_mix,
                         self.col_mix).reshape(*lead, k_h * k_w, k_h * k_w)

    def operator_grad(self, d_op, k_h, k_w):
        d_k = d_op.reshape(*d_op.shape[:-2], k_h, k_w, k_h, k_w)
        return Bilinear(np.einsum("...adbc,...cd->...ab", d_k, self.col_mix),
                        np.einsum("...adbc,...ab->...cd", d_k, self.row_mix))


@dataclass(eq=False)
class FullMatrix(Payload):
    """Log-magnitudes of the column-major vectorized patch mixed by an
    n x n matrix, the most general form."""

    mix: np.ndarray  # (n, n) acting on the column-major vectorized patch
    name = "full_matrix"

    @staticmethod
    def shapes(k_h, k_w):
        return ((k_h * k_w, k_h * k_w),)

    @classmethod
    def neutral(cls, k_h, k_w):
        return cls(np.eye(k_h * k_w))

    def operator(self, k_h, k_w):
        order = _col_major_order(k_h, k_w)
        return self.mix[..., order[:, None], order]

    def operator_grad(self, d_op, k_h, k_w):
        order = _col_major_order(k_h, k_w)
        d_mix = np.empty_like(d_op)
        d_mix[..., order[:, None], order] = d_op
        return FullMatrix(d_mix)


def _col_major_order(k_h: int, k_w: int) -> np.ndarray:
    """Column-major vec index of each row-major patch position."""
    return np.arange(k_h * k_w).reshape(k_w, k_h).T.reshape(-1)


VARIANT_TYPES = {cls.name: cls for cls in (Standard, Elementwise, RowShared,
                                           ColShared, Bilinear, FullMatrix)}


def payload_arrays(ewm: Payload) -> list[np.ndarray]:
    """The payload's arrays in field (file) order; the live arrays, not
    copies."""
    return [getattr(ewm, f.name) for f in fields(ewm)]


def payload_map(ewm: Payload, fn) -> Payload:
    """A new payload of the same variant with ``fn`` applied to each array."""
    return type(ewm)(*(fn(a) for a in payload_arrays(ewm)))


# --------------------------------------------------------------------------
# Layer parameters

@dataclass(eq=False)
class LayerParams:
    """One convolutional layer: per-channel filters, biases and exponent
    payloads, plus the layer-wide sliding-window geometry.

    ``ewms`` is given as one payload per output channel, all of one
    variant, or as one payload already stacked over channels. The layer
    keeps the stacked payload as ``payload`` (fields shaped
    (out_channels, ...)) and rebinds ``ewms`` to per-channel payloads whose
    arrays are views into it, so an in-place write through either is seen
    by both.
    """

    weights: np.ndarray          # (out_channels, k_h, k_w)
    biases: np.ndarray           # (out_channels,)
    ewms: list                   # out_channels payloads, all the same type
    stride_t: int = 1
    stride_c: int = 1
    activation: str = "identity"
    payload: Payload = field(init=False, repr=False)

    def __post_init__(self):
        self.weights = as_tensor(self.weights, "weights")
        self.biases = as_tensor(self.biases, "biases")
        if self.weights.ndim != 3:
            raise ValueError("weights must be (out_channels, k_h, k_w)")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError("one bias per output channel required")
        if self.out_channels < 1:
            raise ValueError("out_channels must be >= 1")
        stack = self.ewms
        if not isinstance(stack, Payload):
            # a wrong channel count shows as a wrong stacked shape below
            if len(set(map(type, stack))) != 1:
                raise ValueError("all channels must use the same variant")
            per_field = zip(*map(payload_arrays, stack))
            stack = type(stack[0])(*map(np.stack, per_field))
        want = tuple((self.out_channels, *s)
                     for s in stack.shapes(self.k_h, self.k_w))
        got = tuple(a.shape for a in payload_arrays(stack))
        if got != want:
            raise ValueError(
                f"{stack.name} payload shapes {got} != {want} for "
                f"{self.out_channels} channels of a ({self.k_h}, {self.k_w}) "
                "kernel")
        self.payload = stack
        self.ewms = [payload_map(stack, lambda a, m=m: a[m])
                     for m in range(self.out_channels)]
        if self.stride_t < 1 or self.stride_c < 1:
            raise ValueError("strides must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def k_h(self) -> int:
        return self.weights.shape[1]

    @property
    def k_w(self) -> int:
        return self.weights.shape[2]

    @property
    def variant(self) -> str:
        return self.payload.name


# --------------------------------------------------------------------------
# Unit evaluation (single receptive field)

def unit_standard(x: np.ndarray, weights: np.ndarray, bias: float) -> float:
    """Linear filter: sum(weights * x) + bias."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if x.shape != weights.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs weights {weights.shape}")
    return float(np.sum(weights * x) + bias)


def unit_elementwise(x, weights, bias: float, exponents) -> float:
    """sum(weights * signed_pow(x, exponents)) + bias."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    exponents = np.asarray(exponents, dtype=np.float64)
    if x.shape != weights.shape or x.shape != exponents.shape:
        raise ValueError("x, weights and exponents must share a shape")
    return float(np.sum(weights * signed_pow(x, exponents)) + bias)


def unit_bilinear(x, weights, bias: float, row_mix, col_mix) -> float:
    """Exponent stage row_mix @ log|X| @ col_mix, signs restored per entry."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    row_mix = np.asarray(row_mix, dtype=np.float64)
    col_mix = np.asarray(col_mix, dtype=np.float64)
    k_h, k_w = x.shape
    if weights.shape != x.shape:
        raise ValueError("weights must match the receptive field shape")
    if row_mix.shape != (k_h, k_h) or col_mix.shape != (k_w, k_w):
        raise ValueError("mix matrices must match the kernel dimensions")
    log_mag = log_magnitude(x)
    mixed = row_mix @ log_mag @ col_mix
    sign = np.where(x >= 0.0, 1.0, -1.0)
    powered = sign * np.exp(mixed)
    return float(np.sum(weights * powered) + bias)


def unit_full(x_vec, weight_vec, bias: float, mix) -> float:
    """Exponent stage mix @ log|x| on the vectorized patch, signs restored."""
    x_vec = np.asarray(x_vec, dtype=np.float64)
    weight_vec = np.asarray(weight_vec, dtype=np.float64)
    mix = np.asarray(mix, dtype=np.float64)
    n = x_vec.size
    if x_vec.ndim != 1 or weight_vec.shape != (n,):
        raise ValueError("x_vec and weight_vec must be matching 1-D vectors")
    if mix.shape != (n, n):
        raise ValueError(f"mix must be ({n}, {n}), got {mix.shape}")
    sign = np.where(x_vec >= 0.0, 1.0, -1.0)
    powered = sign * np.exp(mix @ log_magnitude(x_vec))
    return float(np.sum(weight_vec * powered) + bias)


def unit_forward(x: np.ndarray, weights: np.ndarray, bias: float,
                 ewm: Payload) -> float:
    """Evaluate one receptive field under any variant (pre-activation)."""
    if isinstance(ewm, Standard):
        return unit_standard(x, weights, bias)
    if isinstance(ewm, (Elementwise, RowShared, ColShared)):
        k_h, k_w = np.shape(x)
        return unit_elementwise(x, weights, bias,
                                ewm.operator(k_h, k_w).reshape(k_h, k_w))
    if isinstance(ewm, Bilinear):
        return unit_bilinear(x, weights, bias, ewm.row_mix, ewm.col_mix)
    if isinstance(ewm, FullMatrix):
        return unit_full(vec(np.asarray(x, dtype=np.float64)),
                         vec(np.asarray(weights, dtype=np.float64)),
                         bias, ewm.mix)
    raise TypeError(f"unknown variant {type(ewm).__name__}")


# --------------------------------------------------------------------------
# Layer kernel, ``layer_forward`` (its backward is
# ``gradients.layer_backward``). Patches form the (n, N) patch matrix of
# ``numerics.extract_patches``, n = k_h * k_w kernel positions by N
# patches. Every exponent variant is an operator on the clamped
# log-magnitudes L of the patches (``Payload.operator`` of the layer's
# stacked payload): (M, n) diagonals or (M, n, n) matrices.
# Channel m's powered values are sign * exp(E[m][:, None] * L) or
# sign * exp(K[m] @ L), and its pre-activations are one vector-matrix
# product with its flattened filter. The sign and L are taken on the layer
# input, once per input entry, before they are laid out as patches.

@dataclass
class LayerCache:
    """One layer's arrays in a pass, one per role (``buffer``), and the
    views of them that the last ``layer_forward`` recorded for
    ``layer_backward``:

    patches  (n, N) patch matrix of a standard layer's input;
             None for exponent layers, whose backward divides by the
             layer input itself
    log_mag  (n, N) clamped log-magnitudes; None for standard layers
    powered  (M, n, N) signed powered values of every channel, kept only
             by a forward with ``keep=True``; None otherwise
    output   the feature map, (..., grid_t, grid_c, M)
    buffers  one array per role, kept from call to call
    """

    patches: np.ndarray | None = None
    log_mag: np.ndarray | None = None
    powered: np.ndarray | None = None
    output: np.ndarray | None = None
    buffers: dict = field(default_factory=dict, repr=False)

    def buffer(self, role: str, shape: tuple) -> np.ndarray:
        """The array held for ``role``, of exactly ``shape`` and with
        whatever it last held: the one held already when its shape
        matches, else a new one that replaces it. A larger array is never
        sliced, since a strided view could take BLAS down another path
        and change the bits."""
        shape = tuple(shape)
        if role not in self.buffers or self.buffers[role].shape != shape:
            self.buffers.pop(role, None)  # freed before its replacement
            self.buffers[role] = np.empty(shape)
        return self.buffers[role]


def channel_preact(patches: np.ndarray, weights: np.ndarray, bias: float,
                   ewm: Payload) -> np.ndarray:
    """Pre-activations of one channel over a stack of patches (..., k_h, k_w):
    ``layer_forward`` of a one-channel layer on each patch as a kernel-sized
    window. ``patches`` is left as it was."""
    params = LayerParams(np.asarray(weights)[None], np.array([bias]), [ewm])
    windows = np.reshape(patches, (-1, params.k_h, params.k_w))
    return layer_forward(windows, params).reshape(np.shape(patches)[:-2])


def apply_activation(preact: np.ndarray, activation: str,
                     inplace: bool = False) -> np.ndarray:
    """The activation of ``preact``; with ``inplace``, written over it."""
    out = preact if inplace else None
    if activation == "relu":
        return np.maximum(preact, 0.0, out=out)
    if activation == "tanh":
        return np.tanh(preact, out=out)
    if activation == "identity":
        return preact
    raise ValueError(f"unknown activation {activation!r}")


def activation_grad(output: np.ndarray, activation: str,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Derivative of the activation, written in terms of its output; into
    ``out``, an array of the output's shape, when given, else into a new
    array of the output's memory order."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if out is None:
        out = np.empty_like(output)
    if activation == "relu":
        return np.greater(output, 0.0, out=out)
    if activation == "tanh":
        return np.subtract(1.0, np.multiply(output, output, out=out), out=out)
    out.fill(1.0)
    return out


# ``op`` default of the layer kernels: build the operator from the payload
BUILD_OPERATOR = object()


def layer_operator(params: LayerParams) -> np.ndarray | None:
    """The exponent operator of the layer's stacked payload
    (``Payload.operator``): (M, n) diagonals, (M, n, n) matrices or None."""
    return params.payload.operator(params.k_h, params.k_w)


def layer_forward(x: np.ndarray, params: LayerParams,
                  cache: LayerCache | None = None,
                  op=BUILD_OPERATOR, keep: bool = False) -> np.ndarray:
    """Slide every channel's unit over the input and apply the activation.

    Accepts a (T, C) input or a batch (..., T, C); the feature map has
    shape (..., grid_t, grid_c, out_channels). Parameters are not mutated.
    The patch matrices, the powered values and the pre-activations are
    written into the ``cache``'s arrays (``LayerCache.buffer``), a fresh
    one when not given, and the cache records the patch matrix or the
    log-magnitudes and the feature map for ``layer_backward``. The feature
    map is a view of the pre-activations, so a caller that passes one
    cache to many calls reads each map before the next call. With
    ``keep``, the cache also holds every channel's powered values, which
    the backward pass reads, so its memory grows with the number of
    patches; without it, the channels share one scratch matrix for them.
    ``op`` is ``layer_operator(params)``, built here when not given: a
    pass that runs the layer on many chunks builds it once and hands it to
    every call. A non-finite pre-activation (an overflowing power or
    filter product) raises FloatingPointError.
    """
    x = np.asarray(x, dtype=np.float64)
    n = params.k_h * params.k_w
    out_ch = params.out_channels
    weights = params.weights.reshape(out_ch, -1)
    if op is BUILD_OPERATOR:
        op = layer_operator(params)
    if cache is None:
        cache = LayerCache()
    shape = patch_shape(x.shape, params.k_h, params.k_w, params.stride_t,
                        params.stride_c)
    lead = shape[2:]  # the patch grid, batch axes first

    def patch_matrix(a, role):  # (n, N), a view of the role's array
        return extract_patches(a, params.k_h, params.k_w, params.stride_t,
                               params.stride_c, cache.buffer(role, shape)
                               ).reshape(n, -1)

    preact = cache.buffer("preact", (out_ch, math.prod(lead)))
    cache.patches = cache.log_mag = cache.powered = None
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        if op is None:
            cache.patches = patch_matrix(x, "patches")
            np.matmul(weights, cache.patches, out=preact)
        else:
            per_entry = cache.buffer("per_entry", x.shape)
            # + 0.0 gives sign(0) = +1, as signed_pow
            sign = patch_matrix(np.copysign(
                1.0, np.add(x, 0.0, out=per_entry), out=per_entry), "sign")
            log_mag = cache.log_mag = patch_matrix(
                log_magnitude(x, out=per_entry), "log_mag")
            if keep:
                powered = cache.powered = cache.buffer(
                    "powered", (out_ch, *log_mag.shape))
            else:
                powered = [cache.buffer("powered", log_mag.shape)] * out_ch
            for m, z in enumerate(powered):
                if op.ndim == 2:
                    np.multiply(log_mag, op[m][:, None], out=z)
                else:
                    np.matmul(op[m], log_mag, out=z)
                np.exp(z, out=z)
                z *= sign  # z >= 0 or +inf, so this is copysign
                np.matmul(weights[m], z, out=preact[m])
        preact += params.biases[:, None]
    if not np.isfinite(preact).all():
        raise FloatingPointError("feature map contains non-finite values")
    apply_activation(preact, params.activation, inplace=True)
    # channel-last view of the channel-major (M, N) pre-activations
    cache.output = preact.T.reshape(*lead, out_ch)
    return cache.output


def output_grid(params: LayerParams, rows: int, cols: int) -> tuple[int, int]:
    return patch_grid(rows, cols, params.k_h, params.k_w,
                      params.stride_t, params.stride_c)
