"""Analytic backward passes against the central finite-difference
oracle, plus the structural gradient identities (tied weights, zero
upstream, reduction case)."""

import numpy as np
import pytest

from expconv.gradients import (
    CHECK_KERNELS,
    finite_diff,
    grad_check,
    layer_backward,
    make_check_instance,
    relative_error,
    run_variant_checks,
    unit_backward,
)
from expconv.constraints import payload_arrays
from expconv.layers import (
    Bilinear,
    ColShared,
    Elementwise,
    FullMatrix,
    LayerCache,
    LayerParams,
    RowShared,
    Standard,
    layer_forward,
    unit_forward,
)
from expconv.numerics import DEFAULT_EPS, make_rng

ALL_VARIANTS = ("standard", "elementwise", "row_shared", "col_shared",
                "bilinear", "full_matrix")


class TestFiniteDiff:
    def test_square_function(self):
        grad = finite_diff(lambda t: float(t[0] ** 2), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0, abs=1e-9)

    def test_constant_function(self):
        grad = finite_diff(lambda t: 7.0, np.ones(4))
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_perturbation_is_restored(self):
        theta = np.array([1.0, 2.0])
        finite_diff(lambda t: float(np.sum(t ** 2)), theta)
        np.testing.assert_array_equal(theta, [1.0, 2.0])

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(ValueError):
            finite_diff(lambda t: float("nan"), np.ones(1))


class TestUnitBackward:
    def test_exponent_gradient_hand_example(self):
        # d/dw 2^w at w=2 is 4 ln 2
        _, _, d_ewm, _ = unit_backward(np.array([[2.0]]), np.ones((1, 1)),
                                       0.0, Elementwise(np.array([[2.0]])))
        assert d_ewm.exponents[0, 0] == pytest.approx(4.0 * np.log(2.0),
                                                      abs=1e-12)

    def test_ones_exponents_give_standard_weight_gradient(self):
        rng = make_rng(0)
        for ewm in (Elementwise(np.ones((2, 2))), RowShared(np.ones(2)),
                    ColShared(np.ones(2)), Bilinear(np.eye(2), np.eye(2)),
                    FullMatrix(np.eye(4))):
            x = rng.uniform(0.1, 3, size=(2, 2)) * rng.choice([-1, 1], (2, 2))
            d_w, _, _, _ = unit_backward(x, rng.normal(size=(2, 2)), 0.0, ewm)
            np.testing.assert_allclose(d_w, x, atol=1e-12)

    def test_bias_gradient_is_upstream(self):
        _, d_b, _, _ = unit_backward(np.full((2, 2), 2.0), np.ones((2, 2)),
                                     0.0, Elementwise(np.ones((2, 2))),
                                     upstream=3.0)
        assert d_b == pytest.approx(3.0)

    def test_zero_upstream_zeroes_everything(self):
        rng = make_rng(1)
        params, x, _ = make_check_instance("bilinear", 2, 2, seed=5)
        bundle = layer_backward(x, params, np.zeros((1, 1, 1)))
        assert np.all(bundle.d_weights == 0)
        assert np.all(bundle.d_biases == 0)
        assert np.all(bundle.d_input == 0)
        assert np.all(bundle.d_payload.row_mix == 0)
        assert np.all(bundle.d_payload.col_mix == 0)

    def test_clamp_region_input_gradient_is_zero(self):
        _, _, _, d_x = unit_backward(np.array([[1e-9]]), np.ones((1, 1)),
                                     0.0, Elementwise(np.array([[2.0]])))
        assert d_x[0, 0] == 0.0


class TestGradCheckHarness:
    def test_standard_layer_passes(self):
        params, x, lw = make_check_instance("standard", 2, 2, seed=0)
        report = grad_check(params, x, loss_weights=lw)
        assert report.passed, report.to_text()

    def test_reduced_elementwise_matches_standard_report(self):
        params_s, x, lw = make_check_instance("standard", 2, 2, seed=3)
        params_e = LayerParams(params_s.weights.copy(),
                               params_s.biases.copy(),
                               [Elementwise(np.ones((2, 2)))])
        rep_s = grad_check(params_s, x, loss_weights=lw)
        rep_e = grad_check(params_e, x, loss_weights=lw)
        by_group_s = {g.group: g for g in rep_s.groups}
        for g in rep_e.groups:
            if g.group in ("weights", "biases", "input"):
                assert g.analytic == pytest.approx(
                    by_group_s[g.group].analytic, abs=1e-10)

    def test_full_matrix_2x2_passes(self):
        params, x, lw = make_check_instance("full_matrix", 2, 2, seed=7)
        report = grad_check(params, x, loss_weights=lw)
        assert report.passed, report.to_text()

    def test_impossible_tolerance_fails(self):
        params, x, lw = make_check_instance("elementwise", 2, 2, seed=1)
        report = grad_check(params, x, loss_weights=lw, tol=0.0)
        assert not report.passed

    def test_report_table_renders(self):
        params, x, lw = make_check_instance("row_shared", 2, 2, seed=2)
        text = grad_check(params, x, loss_weights=lw).to_text()
        assert "row_exponents" in text and "pass" in text

    def test_relative_error_floor(self):
        err = relative_error(np.array([0.0]), np.array([1e-12]))
        assert err[0] == pytest.approx(1e-4)  # 1e-12 / 1e-8 floor


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestVariantSweep:
    def test_ten_seeds_all_kernels(self, variant):
        reports = run_variant_checks(variant, seeds=range(10))
        bad = [r for r in reports if not r.passed]
        assert not bad, "\n".join(r.to_text() for r in bad)


class TestTiedWeightIdentity:
    def test_row_and_col_shared_sums(self):
        rng = make_rng(2)
        for seed in range(10):
            x = rng.uniform(0.1, 3, size=(3, 2)) * rng.choice([-1, 1], (3, 2))
            w = rng.normal(size=(1, 3, 2))
            rows = rng.uniform(0.2, 1.5, size=3)
            cols = rng.uniform(0.2, 1.5, size=2)
            up = rng.normal()

            _, _, d_row, _ = unit_backward(x, w[0], 0.0, RowShared(rows),
                                           upstream=up)
            _, _, d_elem, _ = unit_backward(
                x, w[0], 0.0,
                Elementwise(np.repeat(rows[:, None], 2, axis=1)),
                upstream=up)
            np.testing.assert_array_equal(d_row.row_exponents,
                                          d_elem.exponents.sum(axis=1))

            _, _, d_col, _ = unit_backward(x, w[0], 0.0, ColShared(cols),
                                           upstream=up)
            _, _, d_elem2, _ = unit_backward(
                x, w[0], 0.0,
                Elementwise(np.repeat(cols[None, :], 3, axis=0)),
                upstream=up)
            np.testing.assert_array_equal(d_col.col_exponents,
                                          d_elem2.exponents.sum(axis=0))


class TestReducedBackward:
    def test_matches_standard_for_shared_groups(self):
        rng = make_rng(3)
        k_h, k_w, n = 2, 3, 6
        variants = [Elementwise(np.ones((k_h, k_w))), RowShared(np.ones(k_h)),
                    ColShared(np.ones(k_w)), Bilinear(np.eye(k_h), np.eye(k_w)),
                    FullMatrix(np.eye(n))]
        x = rng.uniform(0.1, 3, size=(6, 7)) * rng.choice([-1, 1], (6, 7))
        w = rng.normal(size=(1, k_h, k_w))
        upstream = rng.normal(size=(5, 5, 1))
        base = layer_backward(x, LayerParams(w, np.zeros(1), [Standard()]),
                              upstream)
        for ewm in variants:
            bundle = layer_backward(x, LayerParams(w, np.zeros(1), [ewm]),
                                    upstream)
            np.testing.assert_allclose(bundle.d_weights, base.d_weights,
                                       atol=1e-10)
            np.testing.assert_allclose(bundle.d_biases, base.d_biases,
                                       atol=1e-10)
            np.testing.assert_allclose(bundle.d_input, base.d_input,
                                       atol=1e-10)


class TestLayerBackwardGeometry:
    def test_multi_channel_strided_layer_passes_fd(self):
        # geometry stress: strides, tanh, several channels, signed input
        rng = make_rng(4)
        x = rng.uniform(0.15, 2.5, size=(6, 5)) * rng.choice([-1, 1], (6, 5))
        exps = [Elementwise(rng.uniform(0.3, 1.4, size=(3, 2)))
                for _ in range(2)]
        params = LayerParams(rng.uniform(0.3, 1.0, size=(2, 3, 2)),
                             rng.normal(size=2), exps,
                             stride_c=2, activation="tanh")
        report = grad_check(params, x, tol=1e-5)
        assert report.passed, report.to_text()

    def test_gradient_shapes_match_parameters(self):
        params, x, _ = make_check_instance("bilinear", 3, 2, seed=0)
        bundle = layer_backward(x, params, np.ones((1, 1, 1)))
        assert bundle.d_weights.shape == params.weights.shape
        assert bundle.d_biases.shape == params.biases.shape
        assert bundle.d_input.shape == x.shape
        assert bundle.d_payload.row_mix.shape == (1, 3, 3)
        assert bundle.d_payload.col_mix.shape == (1, 2, 2)

    def test_check_kernels_cover_required_shapes(self):
        assert (1, 1) in CHECK_KERNELS
        assert (2, 2) in CHECK_KERNELS
        assert (3, 2) in CHECK_KERNELS


def random_payload(variant, k_h, k_w, rng):
    n = k_h * k_w
    if variant == "standard":
        return Standard()
    if variant == "elementwise":
        return Elementwise(rng.uniform(0.5, 1.5, size=(k_h, k_w)))
    if variant == "row_shared":
        return RowShared(rng.uniform(0.5, 1.5, size=k_h))
    if variant == "col_shared":
        return ColShared(rng.uniform(0.5, 1.5, size=k_w))
    if variant == "bilinear":
        return Bilinear(np.eye(k_h) + rng.uniform(-0.2, 0.2, (k_h, k_h)),
                        np.eye(k_w) + rng.uniform(-0.2, 0.2, (k_w, k_w)))
    return FullMatrix(np.eye(n) + rng.uniform(-0.2, 0.2, (n, n)))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("activation", ("relu", "tanh", "identity"))
@pytest.mark.parametrize("stride", ((1, 1), (2, 1)))
class TestLayerCache:
    @staticmethod
    def instance(variant, activation, stride):
        """A 3-channel 3x2 layer, its input and the generator that drew
        them."""
        rng = make_rng(ALL_VARIANTS.index(variant))
        k_h, k_w = 3, 2
        params = LayerParams(
            rng.normal(size=(3, k_h, k_w)), rng.normal(size=3),
            [random_payload(variant, k_h, k_w, rng) for _ in range(3)],
            stride_t=stride[0], stride_c=stride[1], activation=activation)
        x = rng.normal(size=(2, 9, 6))  # signed, some entries near zero
        # both zeros and entries inside the clamp
        x[0, 0, :4] = (0.0, -0.0, DEFAULT_EPS / 3, -DEFAULT_EPS / 3)
        x[1, 4, 2:5] = (-0.0, DEFAULT_EPS / 2, 0.0)
        return params, x, rng

    def test_cached_backward_matches_uncached(self, variant, activation,
                                              stride):
        params, x, rng = self.instance(variant, activation, stride)
        cache = LayerCache()
        out = layer_forward(x, params, cache=cache, keep=True)
        # the forward without kept state, its one scratch matrix, bit for bit
        np.testing.assert_array_equal(
            out.view(np.uint64), layer_forward(x, params).view(np.uint64))
        upstream = rng.normal(size=out.shape)
        cached = layer_backward(x, params, upstream, cache=cache)
        fresh = layer_backward(x, params, upstream)
        assert type(cached.d_payload) is type(params.payload)
        pairs = [(cached.d_weights, fresh.d_weights),
                 (cached.d_biases, fresh.d_biases),
                 (cached.d_input, fresh.d_input)]
        pairs += zip(payload_arrays(cached.d_payload),
                     payload_arrays(fresh.d_payload))
        for d, p in zip(payload_arrays(cached.d_payload),
                        payload_arrays(params.payload)):
            assert d.shape == p.shape
        for a, b in pairs:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_a_reused_workspace_changes_no_bit(self, variant, activation,
                                              stride):
        params, x, rng = self.instance(variant, activation, stride)
        upstream = rng.normal(size=layer_forward(x, params).shape)
        cache = LayerCache()
        # one window, then two: every role changes shape and comes back
        for rows in (slice(0, 1), slice(0, 2), slice(1, 2)):
            out = layer_forward(x[rows], params, cache, keep=True)
            np.testing.assert_array_equal(
                out.view(np.uint64),
                layer_forward(x[rows], params).view(np.uint64))
            got = layer_backward(x[rows], params, upstream[rows], cache=cache)
            want = layer_backward(x[rows], params, upstream[rows])
            pairs = [(got.d_weights, want.d_weights),
                     (got.d_biases, want.d_biases),
                     (got.d_input, want.d_input)]
            pairs += zip(payload_arrays(got.d_payload),
                         payload_arrays(want.d_payload), strict=True)
            for a, b in pairs:
                np.testing.assert_array_equal(a.view(np.uint64),
                                              b.view(np.uint64))
            # every role must be written, or zeroed, before it is read
            for buf in cache.buffers.values():
                buf.fill(np.nan)

    def test_a_cache_without_kept_state_is_refused(self, variant, activation,
                                                  stride):
        params, x, rng = self.instance(variant, activation, stride)
        upstream = rng.normal(size=layer_forward(x, params).shape)
        with pytest.raises(ValueError, match=r"keep=True"):
            layer_backward(x, params, upstream, cache=LayerCache())
        cache = LayerCache()
        layer_forward(x, params, cache)
        if variant == "standard":  # its patch matrix is all it reads
            np.testing.assert_array_equal(
                layer_backward(x, params, upstream, cache=cache).d_weights,
                layer_backward(x, params, upstream).d_weights)
        else:  # every channel's powered values were not kept
            with pytest.raises(ValueError, match=r"keep=True"):
                layer_backward(x, params, upstream, cache=cache)

    def test_a_role_holds_one_array_of_the_last_shape(self, variant,
                                                      activation, stride):
        params, x, _ = self.instance(variant, activation, stride)
        cache = LayerCache()
        layer_forward(x, params, cache)
        held = dict(cache.buffers)
        layer_forward(x, params, cache)
        assert all(cache.buffers[r] is a for r, a in held.items())
        layer_forward(x[:1], params, cache)
        assert cache.buffers.keys() == held.keys()
        assert all(cache.buffers[r].shape != a.shape
                   for r, a in held.items())

    def test_skipping_the_input_gradient_keeps_the_rest(self, variant,
                                                        activation, stride):
        params, x, rng = self.instance(variant, activation, stride)
        cache = LayerCache()
        upstream = rng.normal(size=layer_forward(x, params, cache=cache,
                                                 keep=True).shape)
        full = layer_backward(x, params, upstream, cache=cache)
        skipped = layer_backward(x, params, upstream, cache=cache,
                                 input_grad=False)
        assert skipped.d_input.size == 0
        assert full.d_input.shape == x.shape
        pairs = [(skipped.d_weights, full.d_weights),
                 (skipped.d_biases, full.d_biases)]
        pairs += zip(payload_arrays(skipped.d_payload),
                     payload_arrays(full.d_payload), strict=True)
        assert type(skipped.d_payload) is type(full.d_payload)
        for a, b in pairs:  # bit for bit
            np.testing.assert_array_equal(a.view(np.uint64),
                                          b.view(np.uint64))


class TestClampBoundary:
    """Inputs on and around the DEFAULT_EPS clamp, including both zeros."""

    SPECIAL = (0.0, -0.0, DEFAULT_EPS, -DEFAULT_EPS, DEFAULT_EPS / 2,
               -DEFAULT_EPS / 2, 2 * DEFAULT_EPS, -2 * DEFAULT_EPS)

    def instance(self, variant, seed):
        rng = make_rng(seed)
        x = rng.normal(size=(2, 6, 5))
        near = rng.uniform(size=x.shape) < 0.5
        x[near] = rng.choice(self.SPECIAL, size=int(near.sum()))
        params = LayerParams(
            rng.normal(size=(2, 3, 2)), rng.normal(size=2),
            [random_payload(variant, 3, 2, rng) for _ in range(2)],
            stride_c=2)
        return params, x

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_layer_matches_unit_oracle(self, variant):
        params, x = self.instance(variant, 41)
        out = layer_forward(x, params)
        oracle = np.empty_like(out)
        for i, r, c, m in np.ndindex(out.shape):
            patch = x[i, r:r + 3, 2 * c:2 * c + 2]
            oracle[i, r, c, m] = unit_forward(
                patch, params.weights[m], params.biases[m], params.ewms[m])
        np.testing.assert_allclose(out, oracle, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("variant", ALL_VARIANTS[1:])
    def test_input_gradient_is_zero_inside_clamp(self, variant):
        params, x = self.instance(variant, 42)
        upstream = make_rng(43).normal(size=layer_forward(x, params).shape)
        d_input = layer_backward(x, params, upstream).d_input
        inside = np.abs(x) <= DEFAULT_EPS
        assert inside.any() and d_input[~inside].any()
        assert np.all(d_input[inside] == 0.0)


class TestLayerInputGradient:
    """A layer's input gradient, divided by x once per input entry after
    the patch gradients are summed onto the input grid: 2x2 kernels on
    8x8 inputs, overlapping under stride 1 and leaving rows and columns
    2 and 5 uncovered under stride 3."""

    SPECIAL = (0.0, -0.0, DEFAULT_EPS, -DEFAULT_EPS, DEFAULT_EPS / 2,
               -DEFAULT_EPS / 2)

    def instance(self, variant, stride, seed):
        rng = make_rng(seed)
        x = rng.uniform(0.2, 2.0, size=(2, 8, 8)) \
            * rng.choice([-1.0, 1.0], size=(2, 8, 8))
        near = rng.uniform(size=x.shape) < 0.2
        x[near] = rng.choice(self.SPECIAL, size=int(near.sum()))
        params = LayerParams(
            rng.normal(size=(2, 2, 2)), rng.normal(size=2),
            [random_payload(variant, 2, 2, rng) for _ in range(2)],
            stride_t=stride, stride_c=stride, activation="tanh")
        upstream = rng.normal(size=layer_forward(x, params).shape)
        return params, x, upstream

    @pytest.mark.parametrize("variant", ALL_VARIANTS[1:])
    def test_zero_inside_clamp_and_where_no_patch_reaches(self, variant):
        params, x, upstream = self.instance(variant, 3, 44)
        d_input = layer_backward(x, params, upstream).d_input
        inside = np.abs(x) <= DEFAULT_EPS
        covered_line = np.arange(8) % 3 < 2
        covered = covered_line[:, None] & covered_line
        assert inside.any() and (inside & covered).any()
        assert np.all(d_input[inside | ~covered] == 0.0)
        assert np.all(d_input[~inside & covered] != 0.0)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("stride", (1, 3))
    def test_matches_central_differences(self, variant, stride):
        params, x, upstream = self.instance(variant, stride, 45)
        d_input = layer_backward(x, params, upstream).d_input
        numeric = finite_diff(
            lambda v: float(np.sum(upstream * layer_forward(v, params))), x)
        # finite differences step across the clamp inside it
        outside = np.abs(x) > DEFAULT_EPS
        np.testing.assert_allclose(d_input[outside], numeric[outside],
                                   rtol=1e-6, atol=1e-9)
