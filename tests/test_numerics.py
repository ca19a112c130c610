"""Scalar and linear-algebra primitives: signed powers, Kronecker
products, column-major vectorization, patch extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expconv.numerics import (
    DEFAULT_EPS,
    extract_patches,
    kron,
    log_magnitude,
    make_rng,
    patch_grid,
    scatter_patch_grads,
    signed_pow,
    vec,
)


class TestSignedPow:
    def test_positive_integer_power(self):
        assert signed_pow(2.0, 3.0) == 8.0

    def test_negative_base_keeps_sign(self):
        assert signed_pow(-3.0, 2.0) == -9.0

    def test_identity_exponent_is_exact(self):
        rng = make_rng(0)
        x = rng.uniform(-10, 10, size=200)
        x = x[np.abs(x) >= DEFAULT_EPS]
        assert np.array_equal(signed_pow(x, 1.0), x)

    def test_zero_input_uses_positive_sign(self):
        # sign(0) = +1, magnitude clamped to eps
        assert signed_pow(0.0, 2.0) == pytest.approx(DEFAULT_EPS ** 2)
        assert signed_pow(0.0, -1.0) == pytest.approx(1.0 / DEFAULT_EPS)

    def test_clamp_region_is_flat(self):
        assert signed_pow(1e-9, 2.0) == signed_pow(1e-8, 2.0)

    @given(st.floats(-50, 50), st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry(self, x, w):
        left = signed_pow(-x, w)
        right = -signed_pow(x, w)
        if x != 0.0:
            assert left == right
        else:
            # both operands clamp to eps; only the applied sign differs
            assert abs(left) == abs(right)

    def test_broadcasts_over_arrays(self):
        x = np.array([[2.0, -2.0], [4.0, 1.0]])
        w = np.array([[1.0, 2.0], [0.5, 7.0]])
        expected = np.array([[2.0, -4.0], [2.0, 1.0]])
        np.testing.assert_allclose(signed_pow(x, w), expected, rtol=1e-15)


class TestLogMagnitude:
    def test_positive(self):
        assert log_magnitude(np.e) == pytest.approx(1.0)

    def test_negative_uses_magnitude(self):
        assert log_magnitude(-np.e) == pytest.approx(1.0)

    def test_zero_clamps_to_eps(self):
        assert log_magnitude(0.0) == pytest.approx(np.log(DEFAULT_EPS))


class TestKron:
    def test_column_times_row(self):
        a = np.array([[2.0], [3.0]])
        b = np.array([[1.0, 1.0]])
        np.testing.assert_array_equal(kron(a, b), [[2.0, 2.0], [3.0, 3.0]])

    def test_identity_blocks(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar_one_is_neutral(self):
        b = make_rng(1).normal(size=(3, 4))
        np.testing.assert_array_equal(kron(np.ones((1, 1)), b), b)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            kron(np.ones(3), np.eye(2))


class TestVec:
    def test_column_major_order(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(x), [1.0, 3.0, 2.0, 4.0])

    def test_row_vector_is_itself(self):
        row = np.array([[5.0, 6.0, 7.0]])
        np.testing.assert_array_equal(vec(row), [5.0, 6.0, 7.0])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            vec(np.ones(4))

    def test_matmul_identity(self):
        # vec(A X B) == kron(B^T, A) vec(X); this is why vec is column-major
        rng = make_rng(3)
        for _ in range(5):
            a, x, b = (rng.normal(size=(3, 3)) for _ in range(3))
            lhs = vec(a @ x @ b)
            rhs = kron(b.T, a) @ vec(x)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def strided_view_patches(x, k_h, k_w, stride_t, stride_c):
    """``extract_patches`` through a strided view of every window, moved
    to the position-major layout and copied: the oracle of its slice
    copies."""
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (k_h, k_w), axis=(-2, -1))[..., ::stride_t, ::stride_c, :, :]
    return np.moveaxis(windows, (-2, -1), (0, 1)).copy()


class TestExtractPatches:
    """Patches are position-major, (k_h, k_w, ..., grid_t, grid_c): the
    patch at grid cell (i, j) is ``patches[..., i, j]``."""

    @settings(max_examples=200, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2),
           rows=st.integers(1, 9), cols=st.integers(1, 9),
           channels=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_matches_the_strided_view(self, lead, rows, cols, channels, seed,
                                      data):
        k_h = data.draw(st.integers(1, rows), label="k_h")
        k_w = data.draw(st.integers(1, cols), label="k_w")
        strides = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                            label="strides")
        rng = make_rng(seed)
        if channels:
            # one channel of a layer's output: the channel-last view of its
            # channel-major (M, N) pre-activations that the next layer reads
            preact = rng.normal(size=(channels, math.prod(lead) * rows * cols))
            x = preact.T.reshape(*lead, rows, cols, channels)[..., 0]
        else:
            x = rng.normal(size=(*lead, rows, cols))
        before = x.copy()
        patches = extract_patches(x, k_h, k_w, *strides)
        want = strided_view_patches(x, k_h, k_w, *strides)
        assert patches.shape == want.shape and patches.dtype == want.dtype
        assert patches.tobytes() == want.tobytes()
        assert patches.flags.c_contiguous and patches.flags.writeable
        assert not np.shares_memory(patches, x)
        np.testing.assert_array_equal(x, before)

    def test_three_by_three_unit_stride(self):
        x = np.arange(9.0).reshape(3, 3)
        patches = extract_patches(x, 2, 2, 1, 1)
        assert patches.shape == (2, 2, 2, 2)
        np.testing.assert_array_equal(patches[..., 0, 0], x[0:2, 0:2])
        np.testing.assert_array_equal(patches[..., 1, 1], x[1:3, 1:3])

    def test_whole_input_single_patch(self):
        x = make_rng(4).normal(size=(5, 7))
        patches = extract_patches(x, 5, 7, 1, 1)
        assert patches.shape == (5, 7, 1, 1)
        np.testing.assert_array_equal(patches[..., 0, 0], x)

    def test_run_sized_patch_count(self):
        x = np.zeros((480, 52))
        patches = extract_patches(x, 8, 52, 4, 1)
        assert patches.shape[:2] == (8, 52)
        assert patches.shape[-2] * patches.shape[-1] == 119

    def test_grid_formula_matches_enumeration(self):
        for t in range(1, 11):
            for c in range(1, 11):
                for k_h in range(1, t + 1):
                    for k_w in range(1, c + 1):
                        for s in (1, 2, 3):
                            gt, gc = patch_grid(t, c, k_h, k_w, s, s)
                            brute_t = len(range(0, t - k_h + 1, s))
                            brute_c = len(range(0, c - k_w + 1, s))
                            assert (gt, gc) == (brute_t, brute_c)

    def test_patches_are_copies(self):
        rng = make_rng(5)
        for shape, kernel, strides in (((3, 3), (2, 2), (1, 1)),
                                       ((3, 2), (3, 2), (1, 1)),  # one window
                                       ((2, 9, 7), (3, 2), (2, 3))):  # batch
            x = rng.normal(size=shape)
            before = x.copy()
            patches = extract_patches(x, *kernel, *strides)
            assert patches.flags.writeable
            patches[...] = 99.0
            np.testing.assert_array_equal(x, before)

    def test_patch_matrix_is_a_view(self):
        # the (n, N) patch matrix of the layer kernels is a C-contiguous
        # view of the copy; column b * 24 + i * 6 + j is window b's patch
        # at grid cell (i, j), flattened row-major
        x = make_rng(6).normal(size=(2, 9, 7))
        patches = extract_patches(x, 3, 2, 2, 1)
        assert patches.shape == (3, 2, 2, 4, 6)
        flat = patches.reshape(6, -1)
        assert flat.flags.c_contiguous and np.shares_memory(flat, patches)
        want = [x[b, 2 * i:2 * i + 3, j:j + 2].reshape(-1)
                for b in range(2) for i in range(4) for j in range(6)]
        np.testing.assert_array_equal(flat.T, want)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            extract_patches(np.zeros((3, 3)), 4, 2, 1, 1)

    def test_strided_positions(self):
        x = np.arange(30.0).reshape(6, 5)
        patches = extract_patches(x, 2, 2, 2, 3)
        assert patches.shape == (2, 2, 3, 2)
        np.testing.assert_array_equal(patches[..., 1, 1], x[2:4, 3:5])


class TestScatterPatchGrads:
    @pytest.mark.parametrize("lead", ((), (2,), (2, 3)))
    @pytest.mark.parametrize("strides", ((1, 1), (2, 3)))
    @pytest.mark.parametrize("kernel", ((1, 1), (2, 3), (3, 3)))
    def test_adjoint_of_extract_patches(self, kernel, strides, lead):
        # <extract(x), d> == <x, scatter(d)> for every x and d
        rng = make_rng(7)
        x = rng.normal(size=(*lead, 8, 9))
        patches = extract_patches(x, *kernel, *strides)
        d = rng.normal(size=patches.shape)
        scattered = scatter_patch_grads(d, x.shape, *strides)
        assert scattered.shape == x.shape
        assert np.vdot(patches, d) == pytest.approx(np.vdot(x, scattered),
                                                    rel=1e-12, abs=0)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).uniform(size=10)
        b = make_rng(123).uniform(size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).uniform(size=10)
        b = make_rng(2).uniform(size=10)
        assert not np.array_equal(a, b)
