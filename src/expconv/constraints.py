"""Exponent bound enforcement and initialization.

Exponents are kept inside a per-layer interval [v_min, v_max] in one of
two ways: clipping the stored values back into it after every optimizer
step (mode "clip", with "project" accepted as another name for it), or
training an unconstrained value that is mapped into the interval by a
smooth monotone function (mode "reparam"). The hard-sigmoid map keeps a
small residual slope outside its linear core so a saturated parameter can
still recover (a plain clamp would zero its gradient for good).

The modes differ only here: training calls ``effective_layer`` before a
forward pass, ``stored_grad`` on each layer's payload gradient and
``enforce_bounds`` after each optimizer step, whatever the mode; loading
a model calls ``in_bounds``. Every function taking a payload acts on all
of its arrays at once, so a layer's payload stacked over its channels is
one call.

Initialization is the neutral one: all-ones exponents and identity mixing
matrices, which makes the nonlinear layer coincide with a standard
convolution before training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .layers import VARIANT_TYPES, LayerParams, Payload, payload_arrays, payload_map

DEFAULT_V_MIN = -2.0
DEFAULT_V_MAX = 4.0

MODES = ("clip", "project", "reparam")
KINDS = ("sigmoid", "tanh", "hard_sigmoid")

# hard-sigmoid geometry: linear core over [-3, 3], residual slope outside
_HARD_CORE = 3.0
_RESIDUAL_SLOPE = 1e-3


@dataclass(frozen=True)
class ConstraintPolicy:
    """Per-layer exponent bounds and how to enforce them.

    mode "clip" clamps the stored exponents into the bounds after every
    optimizer step ("project" is accepted as another name for it, so
    older configs and models still load); "reparam" trains unconstrained
    values through the map selected by ``kind``.
    """

    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX
    mode: str = "clip"
    kind: str = "sigmoid"

    def __post_init__(self):
        if not self.v_min < 1.0 < self.v_max:
            raise ValueError(
                "bounds must straddle the neutral exponent 1 "
                f"(got [{self.v_min}, {self.v_max}])")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.v_min + self.v_max)

    @property
    def halfrange(self) -> float:
        return 0.5 * (self.v_max - self.v_min)


def enforce_bounds(ewm: Payload, policy: ConstraintPolicy) -> None:
    """Clamp the stored exponents into [v_min, v_max] in place; a no-op
    under reparam, whose stored values are unconstrained."""
    if policy.mode != "reparam":
        for arr in payload_arrays(ewm):
            np.clip(arr, policy.v_min, policy.v_max, out=arr)


def in_bounds(ewm: Payload, policy: ConstraintPolicy) -> bool:
    """Whether the stored exponents are ones ``enforce_bounds`` leaves as
    they are: always under reparam, inside [v_min, v_max] otherwise."""
    return policy.mode == "reparam" or all(
        np.all((arr >= policy.v_min) & (arr <= policy.v_max))
        for arr in payload_arrays(ewm))


# --------------------------------------------------------------------------
# Reparameterization maps (scalar, vectorized over arrays)

def reparam_forward(w_hat, policy: ConstraintPolicy):
    """Map an unconstrained value to a bounded exponent.

    sigmoid/tanh land strictly inside (v_min, v_max); the hard-sigmoid map
    may overshoot the bounds by at most 1e-3 * (|w_hat| - 3) before the
    effective value is clamped (see effective_value).
    """
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if policy.kind == "sigmoid":
        # below w_hat ~ -709 exp overflows to inf, giving v_min exactly
        with np.errstate(over="ignore"):
            out = policy.v_min + (policy.v_max - policy.v_min) / (1.0 + np.exp(-w_hat))
    elif policy.kind == "tanh":
        out = policy.midpoint + policy.halfrange * np.tanh(w_hat)
    else:  # hard_sigmoid
        slope = (policy.v_max - policy.v_min) / (2.0 * _HARD_CORE)
        core = policy.midpoint + slope * np.clip(w_hat, -_HARD_CORE, _HARD_CORE)
        over = _RESIDUAL_SLOPE * (np.clip(w_hat, _HARD_CORE, None) - _HARD_CORE)
        under = _RESIDUAL_SLOPE * (np.clip(w_hat, None, -_HARD_CORE) + _HARD_CORE)
        out = core + over + under
    return float(out) if out.ndim == 0 else out


def reparam_grad(w_hat, policy: ConstraintPolicy):
    """Exact derivative of reparam_forward; strictly positive everywhere."""
    w_hat = np.asarray(w_hat, dtype=np.float64)
    if policy.kind == "sigmoid":
        with np.errstate(over="ignore"):  # saturated: exactly 0
            sig = 1.0 / (1.0 + np.exp(-w_hat))
        out = (policy.v_max - policy.v_min) * sig * (1.0 - sig)
    elif policy.kind == "tanh":
        t = np.tanh(w_hat)
        out = policy.halfrange * (1.0 - t * t)
    else:  # hard_sigmoid
        slope = (policy.v_max - policy.v_min) / (2.0 * _HARD_CORE)
        out = np.where(np.abs(w_hat) <= _HARD_CORE, slope, _RESIDUAL_SLOPE)
    return float(out) if out.ndim == 0 else out


def forward_gap(a, b, policy: ConstraintPolicy):
    """reparam_forward(b) - reparam_forward(a) for a <= b, computed in a
    form that stays nonzero where direct subtraction of saturated outputs
    would round to 0 (e.g. sigmoid beyond |w_hat| ~ 37) and never
    overflows. Used to verify strict monotonicity at sample points deep in
    the tails.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if policy.kind == "hard_sigmoid":
        # piecewise linear with slope >= the residual everywhere: direct
        # subtraction has no cancellation problem
        out = np.asarray(reparam_forward(b, policy)) \
            - np.asarray(reparam_forward(a, policy))
    else:
        if policy.kind == "tanh":  # tanh(w) = 2 sigma(2 w) - 1
            a, b = 2.0 * a, 2.0 * b
        # sigma(b) - sigma(a) = sigma(b) sigma(-a) (1 - e^(a - b)), the
        # product taken in log space: no step overflows or cancels
        out = (policy.v_max - policy.v_min) * np.exp(
            -np.logaddexp(0.0, -b) - np.logaddexp(0.0, a)) * -np.expm1(a - b)
    return float(out) if out.ndim == 0 else out


def reparam_invert(target, policy: ConstraintPolicy):
    """w_hat with reparam_forward(w_hat) == target, for targets strictly
    inside (v_min, v_max)."""
    target_arr = np.asarray(target, dtype=np.float64)
    if np.any(target_arr <= policy.v_min) or np.any(target_arr >= policy.v_max):
        raise ValueError(
            f"target must lie strictly inside ({policy.v_min}, {policy.v_max})")
    if policy.kind == "sigmoid":
        frac = (target_arr - policy.v_min) / (policy.v_max - policy.v_min)
        out = np.log(frac / (1.0 - frac))
    elif policy.kind == "tanh":
        out = np.arctanh((target_arr - policy.midpoint) / policy.halfrange)
    else:  # hard_sigmoid
        slope = (policy.v_max - policy.v_min) / (2.0 * _HARD_CORE)
        out = (target_arr - policy.midpoint) / slope
    return float(out) if out.ndim == 0 else out


def effective_value(w_hat, policy: ConstraintPolicy):
    """The exponent actually used by a layer under reparameterization:
    the mapped value, clamped to the bounds (a no-op for smooth kinds)."""
    return np.clip(reparam_forward(w_hat, policy), policy.v_min, policy.v_max)


def effective_payload(ewm: Payload, policy: ConstraintPolicy) -> Payload:
    """The exponents a forward pass uses: the stored payload under clip,
    its mapped values under reparam."""
    if policy.mode != "reparam":
        return ewm
    return payload_map(ewm, lambda a: effective_value(a, policy))


def effective_layer(layer: LayerParams,
                    policy: ConstraintPolicy) -> LayerParams:
    """The layer a forward pass evaluates. Under clip it is ``layer``
    itself: a rebuilt copy would re-validate the weights, turning a
    non-finite one into a ValueError instead of a FloatingPointError."""
    if policy.mode != "reparam":
        return layer
    return replace(layer, ewms=effective_payload(layer.payload, policy))


def stored_grad(d_eff: Payload, ewm: Payload,
                policy: ConstraintPolicy) -> None:
    """Turn ``d_eff`` (d loss / d effective payload of ``ewm``) into
    d loss / d ``ewm`` in place: unchanged under clip, times the unclamped
    map derivative under reparam (so a hard-sigmoid exponent beyond the
    linear core still gets a pull)."""
    if policy.mode == "reparam":
        for g, raw in zip(payload_arrays(d_eff), payload_arrays(ewm)):
            g *= reparam_grad(raw, policy)


# --------------------------------------------------------------------------
# Initialization

def init_exponents(variant: str, k_h: int, k_w: int,
                   policy: ConstraintPolicy | None = None) -> Payload:
    """Neutral initialization: all-ones exponents, identity mixing matrices.

    With a reparam-mode policy, the returned payload stores the
    unconstrained preimages of those targets, so the effective layer
    still starts as a standard convolution; ``reparam_invert`` rejects a
    target outside (v_min, v_max), such as an identity's zeros when
    v_min >= 0. Under clip, such a target is clamped into the bounds, as
    the first optimizer step would clamp it.
    """
    if variant not in VARIANT_TYPES:
        raise ValueError(f"unknown variant {variant!r}")
    if k_h < 1 or k_w < 1:
        raise ValueError("kernel dims must be >= 1")
    target = VARIANT_TYPES[variant].neutral(k_h, k_w)
    if policy is not None and policy.mode == "reparam":
        return payload_map(target, lambda a: reparam_invert(a, policy))
    if policy is not None:
        enforce_bounds(target, policy)
    return target
