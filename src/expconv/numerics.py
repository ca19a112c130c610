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


def log_magnitude(x, out=None):
    """Clamped log: log(max(|x|, DEFAULT_EPS)). Companion of signed_pow.
    With ``out``, an array of x's shape, every step is written there."""
    x = np.asarray(x, dtype=np.float64)
    return np.log(np.maximum(np.abs(x, out=out), DEFAULT_EPS, out=out),
                  out=out)


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


def patch_shape(input_shape: tuple, k_h: int, k_w: int,
                stride_t: int = 1, stride_c: int = 1) -> tuple:
    """The shape (k_h, k_w, ..., grid_t, grid_c) of ``extract_patches`` on
    an input of ``input_shape``, (..., T, C)."""
    if len(input_shape) < 2:
        raise ValueError("input must be at least 2-D (time x channels)")
    grid = patch_grid(*input_shape[-2:], k_h, k_w, stride_t, stride_c)
    return (k_h, k_w, *input_shape[:-2], *grid)


def extract_patches(x: np.ndarray, k_h: int, k_w: int,
                    stride_t: int = 1, stride_c: int = 1,
                    out: np.ndarray | None = None) -> np.ndarray:
    """All valid receptive fields of a T x C input (or a batch of them),
    laid out position-major.

    Returns a writable, C-contiguous copy of shape
    (k_h, k_w, ..., grid_t, grid_c): entry [ky, kx] holds kernel position
    (ky, kx) of every patch, patches in row-major grid order. Reshaped to
    (n, N), with n = k_h * k_w row-major kernel positions and N patches,
    it is the patch matrix of the layer kernels without another copy: the
    im2col layout of Chellapilla et al. (2006), "High Performance
    Convolutional Neural Networks for Document Processing", transposed.
    It is filled by one strided slice copy per kernel position, the loop
    of its adjoint ``scatter_patch_grads`` with ``=`` for ``+=``. With
    ``out``, a C-contiguous array of exactly that shape, the patches are
    written there and ``out`` is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = patch_shape(x.shape, k_h, k_w, stride_t, stride_c)
    grid_t, grid_c = shape[-2:]
    if out is not None and out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, patches {shape}")
    patches = np.empty(shape) if out is None else out
    for ky in range(k_h):
        t_stop = ky + stride_t * grid_t
        for kx in range(k_w):
            c_stop = kx + stride_c * grid_c
            patches[ky, kx] = x[..., ky:t_stop:stride_t, kx:c_stop:stride_c]
    return patches


def scatter_patch_grads(d_patches: np.ndarray, input_shape: tuple,
                        stride_t: int, stride_c: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of ``extract_patches``: sum gradients laid out as its
    patches, (k_h, k_w, ..., grid_t, grid_c), back onto an input of
    ``input_shape``; overlapping patches add. The sum starts from zeros,
    in ``out`` (an array of ``input_shape``, zeroed here) when given."""
    k_h, k_w, *lead, grid_t, grid_c = d_patches.shape
    d_input = np.empty(input_shape) if out is None else out
    d_input.fill(0.0)
    for ky in range(k_h):
        t_stop = ky + stride_t * grid_t
        for kx in range(k_w):
            c_stop = kx + stride_c * grid_c
            d_input[..., ky:t_stop:stride_t, kx:c_stop:stride_c] += \
                d_patches[ky, kx]
    return d_input
