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
(``operator_grad``). ``VARIANT_TYPES`` maps variant names to the classes;
``payload_arrays`` and ``payload_map`` reach the arrays of any payload.

Negative inputs are handled by computing on magnitudes (clamped at
``DEFAULT_EPS``) and re-applying the original elementwise sign, which
reduces exactly to ``signed_pow`` whenever the mixing is diagonal.

A layer evaluates all of its output channels from one patch matrix, the
im2col layout of Chellapilla et al. (2006), "High Performance
Convolutional Neural Networks for Document Processing": the sign and the
clamped log-magnitude L = log(max(|x|, DEFAULT_EPS)) of every patch entry are
computed once per layer. Channel m's powered values are then
sign * exp(E[m] * L) for a diagonal operator and sign * exp(L @ K[m].T)
for a matrix (bilinear as K = kron(row_mix, col_mix.T), so
row_mix @ L @ col_mix is one matrix product over all patches), and its
pre-activation is one matrix-vector product with its filter.

``layer_forward(x, params, cache)`` fills an optional ``LayerCache``
(patches, log-magnitudes, every channel's powered values, the output) that
``layer_backward`` reads, so the exponent stage runs once per training
step. Patches are processed in row blocks small enough to stay in the CPU
cache while every channel reads them; without a cache, two block-sized
buffers are reused, so evaluating a large batch holds neither a full log
array nor every channel's powered values. The
single-receptive-field ``unit_*`` functions are separate direct
implementations and serve as the oracle for the layer kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import (
    DEFAULT_EPS,
    as_tensor,
    extract_patches,
    log_magnitude,
    patch_grid,
    signed_pow,
    vec,
)

ACTIVATIONS = ("relu", "tanh", "identity")


# --------------------------------------------------------------------------
# Exponent payloads (one per output channel; the payload is shared across
# every spatial position of that channel), one class per variant.

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
        entries): an (n,) diagonal, an (n, n) matrix, or None for none."""
        return None

    def operator_grad(self, d_op: np.ndarray, k_h: int, k_w: int) -> Payload:
        """The payload gradient from the gradient of ``operator``."""
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
        return self.exponents.reshape(-1)

    def operator_grad(self, d_op, k_h, k_w):
        return Elementwise(d_op.reshape(k_h, k_w))


@dataclass(eq=False)
class RowShared(Payload):
    """One exponent per time-step row, tied across the row."""

    row_exponents: np.ndarray  # (k_h,)
    name = "row_shared"

    @staticmethod
    def shapes(k_h, k_w):
        return ((k_h,),)

    def operator(self, k_h, k_w):
        return np.repeat(self.row_exponents, k_w)

    def operator_grad(self, d_op, k_h, k_w):
        # tied positions accumulate
        return RowShared(d_op.reshape(k_h, k_w).sum(axis=1))


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
        return ColShared(d_op.reshape(k_h, k_w).sum(axis=0))


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
        return np.kron(self.row_mix, self.col_mix.T)

    def operator_grad(self, d_op, k_h, k_w):
        # K[(a, d), (b, c)] = row_mix[a, b] * col_mix[c, d]
        d_k = d_op.reshape(k_h, k_w, k_h, k_w)
        return Bilinear(np.einsum("adbc,cd->ab", d_k, self.col_mix),
                        np.einsum("adbc,ab->cd", d_k, self.row_mix))


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
        return self.mix[np.ix_(order, order)]

    def operator_grad(self, d_op, k_h, k_w):
        order = _col_major_order(k_h, k_w)
        d_mix = np.empty_like(d_op)
        d_mix[np.ix_(order, order)] = d_op
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


def exponent_param_count(ewm: Payload) -> int:
    """Number of trainable exponent parameters carried by a payload."""
    return sum(int(a.size) for a in payload_arrays(ewm))


# --------------------------------------------------------------------------
# Layer parameters

@dataclass(eq=False)
class LayerParams:
    """One convolutional layer: per-channel filters, biases and exponent
    payloads, plus the layer-wide sliding-window geometry."""

    weights: np.ndarray          # (out_channels, k_h, k_w)
    biases: np.ndarray           # (out_channels,)
    ewms: list                   # out_channels payloads, all the same type
    stride_t: int = 1
    stride_c: int = 1
    activation: str = "identity"

    def __post_init__(self):
        self.weights = as_tensor(self.weights, "weights")
        self.biases = as_tensor(self.biases, "biases")
        if self.weights.ndim != 3:
            raise ValueError("weights must be (out_channels, k_h, k_w)")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError("one bias per output channel required")
        if self.out_channels < 1:
            raise ValueError("out_channels must be >= 1")
        if len(self.ewms) != self.out_channels:
            raise ValueError("one exponent payload per output channel required")
        first = self.ewms[0]
        if any(type(e) is not type(first) for e in self.ewms):
            raise ValueError("all channels must use the same variant")
        want = first.shapes(self.k_h, self.k_w)
        for e in self.ewms:
            got = tuple(a.shape for a in payload_arrays(e))
            if got != want:
                raise ValueError(
                    f"{first.name} payload shapes {got} != {want} for a "
                    f"({self.k_h}, {self.k_w}) kernel")
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
        return self.ewms[0].name


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


def unit_elementwise_explog(x, weights, bias: float, exponents) -> float:
    """Dual route to unit_elementwise via sign * exp(exponent * log|x|)."""
    x = np.asarray(x, dtype=np.float64)
    sign = np.where(x >= 0.0, 1.0, -1.0)
    powered = sign * np.exp(np.asarray(exponents, dtype=np.float64)
                            * log_magnitude(x))
    return float(np.sum(np.asarray(weights, dtype=np.float64) * powered) + bias)


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
    if isinstance(ewm, Elementwise):
        return unit_elementwise(x, weights, bias, ewm.exponents)
    if isinstance(ewm, (RowShared, ColShared)):
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
# Layer kernel. Patches are flattened row-major to (N, n) with n = k_h * k_w
# (the im2col layout). Every exponent variant is an operator on the clamped
# log-magnitudes L of a patch (``Payload.operator``), stacked over channels
# to (M, n) diagonals or (M, n, n) matrices. Channel m's powered values are sign * exp(L * E[m])
# or sign * exp(L @ K[m].T), and its pre-activation is one matrix-vector
# product with its flattened filter.

@dataclass
class LayerCache:
    """What ``layer_forward`` keeps for ``layer_backward`` when given one.

    patches  (N, n) flattened receptive fields, -0.0 stored as +0.0
    log_mag  (N, n) clamped log-magnitudes; None for standard layers
    powered  (M, N, n) signed powered values of every channel; None for
             standard layers
    output   the feature map, (..., grid_t, grid_c, M)
    """

    patches: np.ndarray | None = None
    log_mag: np.ndarray | None = None
    powered: np.ndarray | None = None
    output: np.ndarray | None = None


def exponent_operator(params: LayerParams) -> np.ndarray | None:
    """Every channel's ``Payload.operator`` stacked: (M, n) diagonals,
    (M, n, n) matrices, or None for standard layers."""
    ops = [e.operator(params.k_h, params.k_w) for e in params.ewms]
    return None if ops[0] is None else np.stack(ops)


# Patches are processed in blocks of this many rows, so that a block's log,
# powered and sign arrays stay in cache while every channel reads them, and
# every matrix product is small enough to run on the calling thread.
BLOCK_ROWS = 2048


def row_blocks(n_rows: int):
    """Consecutive row slices of at most BLOCK_ROWS rows covering n_rows."""
    return [slice(start, min(start + BLOCK_ROWS, n_rows))
            for start in range(0, n_rows, BLOCK_ROWS)]


def patch_preacts(patches: np.ndarray, params: LayerParams,
                  cache: LayerCache | None = None) -> np.ndarray:
    """Pre-activations (N, M) of every channel over flattened patches (N, n).

    ``patches`` may be modified in place (-0.0 becomes +0.0). With a cache,
    the log-magnitudes and every channel's powered values are kept in it;
    without one, two block-sized buffers are reused, so evaluating a large
    batch holds neither an (N, n) log array nor an (M, N, n) one.
    """
    out_ch = params.out_channels
    weights = params.weights.reshape(out_ch, -1)
    op = exponent_operator(params)
    n_patch, n = patches.shape
    if cache is not None:
        cache.patches = patches
    if op is not None and cache is not None:
        log_mag = np.empty_like(patches)
        powered = np.empty((out_ch, n_patch, n))
        cache.log_mag, cache.powered = log_mag, powered
    elif op is not None:
        log_buf = np.empty((min(BLOCK_ROWS, n_patch), n))
        z_buf = np.empty_like(log_buf)
    channel_major = np.empty((out_ch, n_patch))
    with np.errstate(over="ignore"):  # overflow is reported by layer_forward
        for rows in row_blocks(n_patch):
            x = patches[rows]
            if op is None:
                np.matmul(weights, x.T, out=channel_major[:, rows])
                continue
            x += 0.0  # copysign then gives sign(0) = +1, as signed_pow
            log_x = log_mag[rows] if cache is not None else log_buf[:len(x)]
            np.abs(x, out=log_x)
            np.maximum(log_x, DEFAULT_EPS, out=log_x)
            np.log(log_x, out=log_x)
            for m in range(out_ch):
                z = powered[m, rows] if cache is not None else z_buf[:len(x)]
                if op.ndim == 2:
                    np.multiply(log_x, op[m], out=z)
                else:
                    np.matmul(log_x, op[m].T, out=z)
                np.exp(z, out=z)
                np.copysign(z, x, out=z)
                np.matmul(z, weights[m], out=channel_major[m, rows])
    preact = channel_major.T
    preact += params.biases
    return preact


def channel_preact(patches: np.ndarray, weights: np.ndarray, bias: float,
                   ewm: Payload,
                   cache: LayerCache | None = None) -> np.ndarray:
    """Pre-activations of one channel over a stack of patches (..., k_h, k_w),
    through the layer kernel; ``patches`` is left as it was."""
    params = LayerParams(np.asarray(weights)[None], np.array([bias]), [ewm])
    n = params.k_h * params.k_w
    flat = np.array(patches, dtype=np.float64).reshape(-1, n)
    return patch_preacts(flat, params, cache)[:, 0].reshape(
        np.shape(patches)[:-2])


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


def activation_grad(output: np.ndarray, activation: str) -> np.ndarray:
    """Derivative of the activation, written in terms of its output."""
    if activation == "relu":
        return (output > 0.0).astype(np.float64)
    if activation == "tanh":
        return 1.0 - output * output
    if activation == "identity":
        return np.ones_like(output)
    raise ValueError(f"unknown activation {activation!r}")


def layer_forward(x: np.ndarray, params: LayerParams,
                  cache: LayerCache | None = None) -> np.ndarray:
    """Slide every channel's unit over the input and apply the activation.

    Accepts a (T, C) input or a batch (..., T, C); the feature map has
    shape (..., grid_t, grid_c, out_channels). Parameters are not mutated.
    A cache, when given, is filled for ``layer_backward``. A non-finite
    pre-activation (an overflowing power) raises FloatingPointError.
    """
    patches = extract_patches(np.asarray(x, dtype=np.float64),
                              params.k_h, params.k_w,
                              params.stride_t, params.stride_c)
    lead = patches.shape[:-2]
    preact = patch_preacts(patches.reshape(-1, params.k_h * params.k_w),
                           params, cache)
    if not np.isfinite(preact).all():
        raise FloatingPointError("feature map contains non-finite values")
    out = apply_activation(preact.reshape(*lead, params.out_channels),
                           params.activation, inplace=True)
    if cache is not None:
        cache.output = out
    return out


def output_grid(params: LayerParams, rows: int, cols: int) -> tuple[int, int]:
    return patch_grid(rows, cols, params.k_h, params.k_w,
                      params.stride_t, params.stride_c)
