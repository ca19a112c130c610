"""Scalar and linear-algebra primitives: signed powers, Kronecker
products, column-major vectorization, patch extraction."""

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


class TestExtractPatches:
    def test_three_by_three_unit_stride(self):
        x = np.arange(9.0).reshape(3, 3)
        patches = extract_patches(x, 2, 2, 1, 1)
        assert patches.shape == (2, 2, 2, 2)
        np.testing.assert_array_equal(patches[0, 0], x[0:2, 0:2])
        np.testing.assert_array_equal(patches[1, 1], x[1:3, 1:3])

    def test_whole_input_single_patch(self):
        x = make_rng(4).normal(size=(5, 7))
        patches = extract_patches(x, 5, 7, 1, 1)
        assert patches.shape == (1, 1, 5, 7)
        np.testing.assert_array_equal(patches[0, 0], x)

    def test_run_sized_patch_count(self):
        x = np.zeros((480, 52))
        patches = extract_patches(x, 8, 52, 4, 1)
        assert patches.shape[0] * patches.shape[1] == 119

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
        x = np.zeros((3, 3))
        patches = extract_patches(x, 2, 2, 1, 1)
        patches[0, 0, 0, 0] = 99.0
        assert x[0, 0] == 0.0

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            extract_patches(np.zeros((3, 3)), 4, 2, 1, 1)

    def test_strided_positions(self):
        x = np.arange(30.0).reshape(6, 5)
        patches = extract_patches(x, 2, 2, 2, 3)
        assert patches.shape == (3, 2, 2, 2)
        np.testing.assert_array_equal(patches[1, 1], x[2:4, 3:5])


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).uniform(size=10)
        b = make_rng(123).uniform(size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).uniform(size=10)
        b = make_rng(2).uniform(size=10)
        assert not np.array_equal(a, b)
