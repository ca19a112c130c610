"""Dense-tensor substrate: signed powers, Kronecker products, vectorization,
and receptive-field extraction.

All arrays are float64; tensors are plain numpy arrays in row-major layout.
The one non-obvious convention fixed here is that ``vec`` stacks COLUMNS
(Fortran order), so the identity vec(A @ X @ B) == kron(B.T, A) @ vec(X)
holds verbatim.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EPS = 1e-6


def as_tensor(values, name: str = "tensor") -> np.ndarray:
    """Coerce to a float64 array and reject non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64): identical seed, identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


def signed_pow(x, w):
    """Total signed power: sign(x) * max(|x|, DEFAULT_EPS) ** w.

    sign(0) is treated as +1, so signed_pow(0, w) == DEFAULT_EPS**w.
    Reduces to the plain power x**w for x >= DEFAULT_EPS, and is
    odd-symmetric in x. Broadcasts over array arguments.
    """
    x = np.asarray(x, dtype=np.float64)
    sign = np.where(x >= 0.0, 1.0, -1.0)
    mag = np.maximum(np.abs(x), DEFAULT_EPS)
    out = sign * mag**w
    if out.ndim == 0:
        return float(out)
    return out


def log_magnitude(x):
    """Clamped log: log(max(|x|, DEFAULT_EPS)). Companion of signed_pow."""
    return np.log(np.maximum(np.abs(np.asarray(x, dtype=np.float64)),
                             DEFAULT_EPS))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D matrices; block (i, j) is a[i, j] * b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron expects 2-D inputs, got {a.ndim}-D and {b.ndim}-D")
    return np.kron(a, b)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major flattening of a 2-D matrix into a vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"vec expects a 2-D input, got {x.ndim}-D")
    return x.reshape(-1, order="F")


def patch_grid(rows: int, cols: int, k_h: int, k_w: int,
               stride_t: int = 1, stride_c: int = 1) -> tuple[int, int]:
    """Output grid of a valid (no padding) sliding window."""
    if k_h < 1 or k_w < 1 or stride_t < 1 or stride_c < 1:
        raise ValueError("kernel dims and strides must be >= 1")
    if k_h > rows or k_w > cols:
        raise ValueError(
            f"kernel {k_h}x{k_w} larger than input {rows}x{cols}")
    return (rows - k_h) // stride_t + 1, (cols - k_w) // stride_c + 1


def extract_patches(x: np.ndarray, k_h: int, k_w: int,
                    stride_t: int = 1, stride_c: int = 1) -> np.ndarray:
    """All valid receptive fields of a T x C input (or a batch of them).

    Returns an array of shape (..., grid_t, grid_c, k_h, k_w) in row-major
    grid order; patch values are copies of the input sub-blocks.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("input must be at least 2-D (time x channels)")
    patch_grid(x.shape[-2], x.shape[-1], k_h, k_w, stride_t, stride_c)
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (k_h, k_w), axis=(-2, -1))
    return windows[..., ::stride_t, ::stride_c, :, :].copy()
