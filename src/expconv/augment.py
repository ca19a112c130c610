"""Stochastic perturbations for windowed time series.

A window is a (T, C) array: T time steps down the rows, C sensor channels
across the columns. Three flips rearrange values without changing them,
and the exponent perturbation raises values to random powers drawn from a
bounded range. All ops preserve the label of the window they act on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_EPS, make_rng, signed_pow

OPS = ("flip_lr", "flip_blockwise", "flip_bidirectional", "exp_augment")
GRANULARITIES = ("per_point", "per_row", "per_channel")

DEFAULT_LO = -2.0
DEFAULT_HI = 4.0


@dataclass(frozen=True)
class AugmentSpec:
    """One perturbation plus the probability of applying it.

    block_len only matters for flip_blockwise; granularity/lo/hi only for
    exp_augment. A spec with its own seed draws from a private stream, so
    reordering other specs cannot change what it does.
    """

    op: str
    probability: float = 0.5
    block_len: int = 1
    granularity: str = "per_row"
    lo: float = DEFAULT_LO
    hi: float = DEFAULT_HI
    seed: int | None = None

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"op must be one of {OPS}, got {self.op!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if self.lo > self.hi:
            raise ValueError("lo must be <= hi")


def _check_window(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (T, C) window, got shape {x.shape}")
    return x


def flip_lr(x) -> np.ndarray:
    """Reverse the time order; channels stay put."""
    return _check_window(x)[::-1].copy()


def flip_blockwise(x, block_len: int) -> np.ndarray:
    """Reverse time order within consecutive blocks of block_len rows.

    Block order is preserved and a short final block is reversed in place,
    so block_len=1 is the identity and block_len >= T equals flip_lr.
    """
    x = _check_window(x)
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    out = np.empty_like(x)
    for start in range(0, x.shape[0], block_len):
        stop = min(start + block_len, x.shape[0])
        out[start:stop] = x[start:stop][::-1]
    return out


def flip_bidirectional(x) -> np.ndarray:
    """Reverse both axes (a 180 degree rotation of the window)."""
    return _check_window(x)[::-1, ::-1].copy()


def draw_exponents(shape: tuple[int, int], granularity: str,
                   lo: float, hi: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform exponent draws shaped to broadcast over a (T, C) window:
    (T, C) per_point, (T, 1) per_row, (1, C) per_channel."""
    t, c = shape
    if granularity == "per_point":
        return rng.uniform(lo, hi, size=(t, c))
    if granularity == "per_row":
        return rng.uniform(lo, hi, size=(t, 1))
    if granularity == "per_channel":
        return rng.uniform(lo, hi, size=(1, c))
    raise ValueError(f"granularity must be one of {GRANULARITIES}")


def apply_exponents(x, exponents, eps: float = DEFAULT_EPS) -> np.ndarray:
    return signed_pow(_check_window(x), exponents, eps=eps)


def exp_augment(x, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """Raise window values to random powers from [spec.lo, spec.hi].

    Signs are preserved (the power acts on magnitudes), so this is safe on
    normalized data that crosses zero.
    """
    x = _check_window(x)
    draws = draw_exponents(x.shape, spec.granularity, spec.lo, spec.hi, rng)
    return apply_exponents(x, draws)


def apply_op(x, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.op == "flip_lr":
        return flip_lr(x)
    if spec.op == "flip_blockwise":
        return flip_blockwise(x, spec.block_len)
    if spec.op == "flip_bidirectional":
        return flip_bidirectional(x)
    if spec.op == "exp_augment":
        return exp_augment(x, spec, rng)
    raise ValueError(f"unknown op {spec.op!r}")


def private_streams(specs) -> list:
    """One generator per spec that carries its own seed (None for the
    others), in spec order. Build it once per run and pass it to every
    apply_pipeline call, so each window continues the stream."""
    return [make_rng(spec.seed) if spec.seed is not None else None
            for spec in specs]


def apply_pipeline(x, specs, rng: np.random.Generator,
                   streams: list | None = None) -> np.ndarray:
    """Apply each spec independently with its probability, in list order.

    The gate draw is consumed whether or not the spec fires. Specs that
    need more randomness than the gate should carry their own seed if
    downstream draws must not depend on the gate outcomes; they draw from
    ``streams`` (see private_streams), fresh ones when it is omitted.
    """
    out = _check_window(x)
    if streams is None:
        streams = private_streams(specs)
    for spec, stream in zip(specs, streams):
        fire = rng.uniform() < spec.probability
        if not fire:
            continue
        out = apply_op(out, spec, stream if stream is not None else rng)
    return out
