"""Analytic backward passes for every unit variant and whole layers, an
independent central finite-difference oracle, and a gradient-check harness.

The backward math, per unit with upstream scalar u, magnitude
m = max(|x|, DEFAULT_EPS), sign s (sign(0) = +1) and powered value
p = s * m**e:

* d/d w      = u * p
* d/d bias   = u
* d/d e      = u * w * p * log(m)
* d/d x      = u * w * e * m**(e-1)   outside the clamp region, 0 inside

The matrix-mixing variants chain the same pieces through their log-space
products. Derivatives with respect to the exponent side always use the
clamped log; derivatives with respect to x treat the clamped magnitude as
locally constant, so the function/gradient pair stays consistent away from
the clamp boundary.

``layer_backward`` works on the layer kernel's patch matrix (the layout
of ``numerics.extract_patches``) for all channels at once and reads the
log-magnitudes and powered values from the ``LayerCache`` that
``layer_forward`` filled with ``keep=True``; it never evaluates the
exponent stage again. It takes the layer's operator as ``op`` from a
caller that built it for the whole pass, as ``layer_forward`` does, and
builds it otherwise. Its gradient with respect to log|x| is summed onto
the input grid first (``numerics.scatter_patch_grads``) and divided by x
there, once per input entry, since every patch entry of one input shares
its x. Called without a cache (gradient checks, single calls), it first
runs ``layer_forward`` to fill a fresh one, so training and checking
share one code path. Every contraction over patches is a matrix product.
A cache holds every channel's powered values for the windows of one
call, so training calls it on a few windows at a time and sums their
parameter gradients (``training.network_loss_grads``). The activation
gradient, the patch gradients and the input gradient are written into
the cache's arrays (``LayerCache.buffer``), beside the forward's, so the
returned ``d_input`` of a call given a cache lasts until the caller's
next call with it; the parameter gradients are always new arrays. The
input gradient is the larger part of that work and only a later layer
reads it, so a caller passes ``input_grad=False`` where none does (a
training step's layer 0); the bundle then carries an empty ``d_input``
and the parameter gradients are unchanged bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .layers import (
    BUILD_OPERATOR,
    VARIANT_TYPES,
    LayerCache,
    LayerParams,
    Payload,
    Standard,
    activation_grad,
    channel_preact,  # noqa: F401  (part of this module's namespace)
    extract_patches,  # noqa: F401
    layer_forward,
    layer_operator,
    payload_map,
)
from .numerics import DEFAULT_EPS, make_rng, scatter_patch_grads

REL_ERR_FLOOR = 1e-8


@dataclass
class GradBundle:
    """Gradients of a scalar loss with respect to one layer's parameters
    and its input. Every array matches the shape of what it differentiates:
    the exponent payload gradient is one payload stacked over channels,
    like ``LayerParams.payload``."""

    d_weights: np.ndarray   # (out_channels, k_h, k_w)
    d_biases: np.ndarray    # (out_channels,)
    d_payload: Payload      # stacked over channels, like LayerParams.payload
    d_input: np.ndarray     # same shape as the layer input; empty (size
                            # 0) when not asked for (input_grad=False)


def unit_backward(x: np.ndarray, weights: np.ndarray, bias: float,
                  ewm: Payload, upstream: float = 1.0):
    """Single-receptive-field backward through the layer kernel.

    Returns (d_weights, d_bias, d_ewm, d_x); d_ewm carries the payload
    gradient in the payload's own structure.
    """
    params = LayerParams(np.asarray(weights)[None], np.array([bias]), [ewm])
    bundle = layer_backward(x, params, np.full((1, 1, 1), float(upstream)))
    return (bundle.d_weights[0], float(bundle.d_biases[0]),
            payload_map(bundle.d_payload, lambda a: a[0]), bundle.d_input)


# --------------------------------------------------------------------------
# Backward of the layer kernel, ``layer_backward``, over the (n, N) patch
# matrix. With g the upstream gradient (N,) of channel m's pre-activations,
# P its powered values (n, N), w its filter (n,) and L the clamped
# log-magnitudes (n, N), the exponent stage's gradient is
# D = w[:, None] * P * g (d loss / d mixed log), and:
#   d w  = P @ g
#   d E  = sum over patches of D * L          (diagonal operators)
#   d K  = D @ L.T                            (matrix operators)
#   d L  = E[:, None] * D  or  K.T @ D        (summed over channels)
#   d x  = (d L summed onto the input grid) / x  outside the DEFAULT_EPS
#          clamp, 0 inside (d log|x| / dx = 1/x)

def layer_backward(x: np.ndarray, params: LayerParams, upstream: np.ndarray,
                   cache: LayerCache | None = None,
                   input_grad: bool = True,
                   op=BUILD_OPERATOR) -> GradBundle:
    """Backward through one layer (activation included).

    ``upstream`` is d(loss)/d(feature map), shaped like the layer output
    (..., grid_t, grid_c, out_channels). ``cache`` is the one
    ``layer_forward`` filled with ``keep=True`` for this input and these
    parameters, a ValueError when it holds no such forward; without one,
    the forward kernel runs here to fill a fresh cache. With
    ``input_grad=False`` the d L accumulation, the scatter and the divide
    by x are skipped and ``d_input`` is an empty array; the parameter
    gradients come from the same operations either way. ``op`` is
    ``layer_operator(params)``, built here when not given, as in
    ``layer_forward``. The activation gradient, the patch gradients and
    ``d_input`` are written into the cache's arrays
    (``LayerCache.buffer``), so with a cache passed to many calls
    ``d_input`` holds until the next call; the parameter gradients are
    new arrays. A non-finite exponent gradient raises FloatingPointError.
    """
    x = np.asarray(x, dtype=np.float64)
    if op is BUILD_OPERATOR:
        op = layer_operator(params)
    if cache is None:
        cache = LayerCache()
        layer_forward(x, params, cache, op, keep=True)
    elif cache.output is None or (op is not None and cache.powered is None):
        raise ValueError("layer_backward needs the cache of a "
                         "layer_forward(..., keep=True) call")
    out_ch = params.out_channels
    # channel-major (M, N), the memory order of the output
    g = cache.buffer("g", (out_ch, cache.output.size // out_ch))
    g_out = np.moveaxis(g.reshape(out_ch, *cache.output.shape[:-1]), 0, -1)
    activation_grad(cache.output, params.activation, out=g_out)
    g_out *= upstream
    weights = params.weights.reshape(out_ch, -1)
    d_biases = g.sum(axis=1)
    if op is None:
        d_weights = (g @ cache.patches.T).reshape(params.weights.shape)
        d_payload = Standard()
        if input_grad:
            d_patches = np.matmul(weights.T, g, out=cache.buffer(
                "d_patches", cache.patches.shape))
    else:
        log_mag, powered = cache.log_mag, cache.powered
        # d_mixed = w * (P * g), so the filter folds into the operator for
        # d L and into d_op after the sums over patches
        diag = op.ndim == 2
        d_weights = np.matmul(powered, g[:, :, None]).reshape(
            params.weights.shape)
        d_op = np.empty_like(op)
        if input_grad:
            scaled_op = weights * op if diag else weights[:, :, None] * op
            d_patches = cache.buffer("d_patches", log_mag.shape)
            d_patches.fill(0.0)  # d L, turned into d x below
            if not diag:
                mixed = cache.buffer("mixed", log_mag.shape)
        gp = cache.buffer("gp", log_mag.shape)  # P * g of one channel
        for m in range(out_ch):
            np.multiply(powered[m], g[m], out=gp)
            if diag:
                d_op[m] = np.einsum("in,in->i", gp, log_mag)
                if input_grad:
                    gp *= scaled_op[m][:, None]
                    d_patches += gp
            else:
                d_op[m] = gp @ log_mag.T
                if input_grad:
                    d_patches += np.matmul(scaled_op[m].T, gp, out=mixed)
        d_op *= weights if diag else weights[:, :, None]
        if not np.isfinite(d_op).all():
            raise FloatingPointError(
                "exponent gradient contains non-finite values")
        d_payload = params.payload.operator_grad(d_op, params.k_h, params.k_w)
    if not input_grad:
        return GradBundle(d_weights, d_biases, d_payload, np.empty(0))
    d_input = scatter_patch_grads(
        d_patches.reshape((params.k_h, params.k_w) + cache.output.shape[:-1]),
        x.shape, params.stride_t, params.stride_c,
        out=cache.buffer("d_input", x.shape))
    if op is not None:
        # d L summed per input entry; d log|x| / dx = 1/x
        outside = np.abs(x) > DEFAULT_EPS
        np.divide(d_input, x, out=d_input, where=outside)
        d_input *= outside
    return GradBundle(d_weights, d_biases, d_payload, d_input)


# --------------------------------------------------------------------------
# Finite-difference oracle

def finite_diff(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences (f(t + h*e_i) - f(t - h*e_i)) / 2h per coordinate.

    ``f`` must be a pure scalar function of the parameter array.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.array(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f(theta)
        flat[i] = orig - h
        f_minus = f(theta)
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite evaluation at coordinate {i}")
        grad.reshape(-1)[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
    return np.abs(a - n) / denom


# --------------------------------------------------------------------------
# Gradient-check harness

@dataclass
class GroupCheck:
    group: str
    max_rel_err: float
    where: tuple
    analytic: float
    numeric: float
    passed: bool


@dataclass
class GradCheckReport:
    variant: str
    kernel: tuple
    seed: int
    tol: float
    groups: list

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    @property
    def max_rel_err(self) -> float:
        return max(g.max_rel_err for g in self.groups)

    def to_text(self) -> str:
        lines = [
            f"variant={self.variant} kernel={self.kernel[0]}x{self.kernel[1]} "
            f"seed={self.seed} tol={self.tol:g}",
            f"{'group':<14} {'max_rel_err':>12} {'at':>10} "
            f"{'analytic':>14} {'numeric':>14} {'status':>7}",
        ]
        for g in self.groups:
            where = ",".join(str(i) for i in g.where)
            lines.append(
                f"{g.group:<14} {g.max_rel_err:>12.3e} {where:>10} "
                f"{g.analytic:>14.6e} {g.numeric:>14.6e} "
                f"{'pass' if g.passed else 'FAIL':>7}")
        return "\n".join(lines)


def grad_check(params: LayerParams, x: np.ndarray,
               loss_weights: np.ndarray | None = None,
               tol: float = 1e-6, h: float = 1e-5,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic layer gradients against central finite differences.

    The scalar loss is sum(loss_weights * layer_forward(x)); a plain sum
    when loss_weights is None. Every parameter group (weights, biases,
    exponent payloads, input) is checked; failures are reported per
    coordinate, not raised.
    """
    x = np.array(x, dtype=np.float64)
    out = layer_forward(x, params)
    weights_r = (np.ones_like(out) if loss_weights is None
                 else np.asarray(loss_weights, dtype=np.float64))
    if weights_r.shape != out.shape:
        raise ValueError("loss_weights must match the feature-map shape")

    def loss() -> float:
        return float(np.sum(weights_r * layer_forward(x, params)))

    bundle = layer_backward(x, params, weights_r)

    def check_group(name, live, analytic, skip=0):
        """The worst coordinate of one live array, reported without its
        first ``skip`` indices."""
        def f(vals):
            live[...] = vals
            return loss()
        saved = live.copy()
        numeric = finite_diff(f, saved, h)
        live[...] = saved
        err = relative_error(analytic, numeric)
        k = np.unravel_index(np.argmax(err), err.shape)
        return GroupCheck(name, float(err[k]), k[skip:], float(analytic[k]),
                          float(numeric[k]), bool(err[k] <= tol))

    groups = [
        check_group("weights", params.weights, bundle.d_weights),
        check_group("biases", params.biases, bundle.d_biases),
    ]
    # a single-channel layer reports exponent coordinates without a channel
    skip = int(params.out_channels == 1)
    for field in fields(params.payload):
        groups.append(check_group(field.name,
                                  getattr(params.payload, field.name),
                                  getattr(bundle.d_payload, field.name), skip))
    groups.append(check_group("input", x, bundle.d_input))
    return GradCheckReport(params.variant, (params.k_h, params.k_w),
                           seed, tol, groups)


# --------------------------------------------------------------------------
# Seeded random instances for the check suite. Sampling is deliberately
# well-conditioned: magnitudes stay clear of the eps clamp AND of |x| = 1
# (where exponent gradients vanish and the finite-difference quotient is
# dominated by rounding), weights are bounded away from zero, and the
# matrix-mixing variants use positive-orthant instances so that no
# gradient coordinate is a near-cancelling sum. Sign handling for the
# mixing variants is covered by dedicated tests.

CHECK_KERNELS = ((1, 1), (2, 2), (3, 2))


def _sample_magnitudes(rng, shape, lo=0.1, hi=3.0, log_gap=0.1):
    mags = np.empty(shape, dtype=np.float64)
    flat = mags.reshape(-1)
    for i in range(flat.size):
        while True:
            v = np.exp(rng.uniform(np.log(lo), np.log(hi)))
            if abs(np.log(v)) >= log_gap:
                flat[i] = v
                break
    return mags


def _sample_signed(rng, shape, lo, hi):
    return rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def make_check_instance(variant: str, k_h: int, k_w: int, seed: int):
    """One seeded gradient-check instance: (params, input, loss_weights).

    The input is exactly kernel-sized (a single receptive field) so that
    no gradient coordinate sums contributions of opposite sign. Mixing
    variants ((n, n) operator) get identities plus positive noise, the
    others signed exponents.
    """
    if variant not in VARIANT_TYPES:
        raise ValueError(f"unknown variant {variant!r}")
    neutral = VARIANT_TYPES[variant].neutral(k_h, k_w)
    op = neutral.operator(k_h, k_w)
    mixing = op is not None and op.ndim == 2
    rng = make_rng(seed)
    if mixing:
        # magnitudes in (1.11, 3]: log stays positive and bounded below
        x = np.exp(rng.uniform(np.log(1.11), np.log(3.0), size=(k_h, k_w)))
        weights = rng.uniform(0.3, 1.0, size=(1, k_h, k_w))
    else:
        mags = _sample_magnitudes(rng, (k_h, k_w))
        x = mags * rng.choice([-1.0, 1.0], size=(k_h, k_w))
        weights = _sample_signed(rng, (1, k_h, k_w), 0.3, 1.0)
    bias = rng.uniform(-0.5, 0.5, size=1)
    if mixing:
        ewm = payload_map(
            neutral, lambda a: a + rng.uniform(0.05, 0.3, size=a.shape))
    else:
        ewm = payload_map(
            neutral, lambda a: _sample_signed(rng, a.shape, 0.2, 1.5))
    params = LayerParams(weights=weights, biases=bias, ewms=[ewm],
                         activation="identity")
    loss_weights = rng.uniform(0.5, 1.5, size=(1, 1, 1))
    return params, x, loss_weights


def run_variant_checks(variant: str, seeds=range(50), kernels=CHECK_KERNELS,
                       tol: float = 1e-6, h: float = 1e-5) -> list:
    """Gradient-check one variant over kernel shapes and seeds."""
    reports = []
    for k_h, k_w in kernels:
        for seed in seeds:
            params, x, lw = make_check_instance(variant, k_h, k_w, seed)
            reports.append(grad_check(params, x, loss_weights=lw,
                                      tol=tol, h=h, seed=seed))
    return reports
