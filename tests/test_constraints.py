"""Exponent bounds: clipping, the three reparameterization maps with
their inverses and derivatives, and neutral initialization under every
mode."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expconv.constraints import (
    ConstraintPolicy,
    effective_layer,
    effective_payload,
    enforce_bounds,
    effective_value,
    forward_gap,
    in_bounds,
    init_exponents,
    payload_arrays,
    reparam_forward,
    reparam_grad,
    reparam_invert,
    stored_grad,
)
from expconv.layers import (
    Bilinear,
    Elementwise,
    FullMatrix,
    LayerParams,
    Standard,
)
from expconv.numerics import make_rng

ALL_KINDS = ("sigmoid", "tanh", "hard_sigmoid")


class TestPolicyValidation:
    def test_defaults(self):
        pol = ConstraintPolicy()
        assert (pol.v_min, pol.v_max, pol.mode) == (-2.0, 4.0, "clip")

    def test_bounds_must_straddle_one(self):
        with pytest.raises(ValueError):
            ConstraintPolicy(v_min=1.5, v_max=4.0)
        with pytest.raises(ValueError):
            ConstraintPolicy(v_min=-2.0, v_max=0.5)

    @pytest.mark.parametrize("v_min, v_max", [(-np.inf, 4.0), (-2.0, np.inf),
                                              (np.nan, 4.0), (-2.0, np.nan)])
    def test_bounds_must_be_finite(self, v_min, v_max):
        with pytest.raises(ValueError, match="finite"):
            ConstraintPolicy(v_min=v_min, v_max=v_max)

    def test_unknown_mode_and_kind(self):
        with pytest.raises(ValueError):
            ConstraintPolicy(mode="freeze")
        with pytest.raises(ValueError):
            ConstraintPolicy(kind="softplus")

    def test_project_is_not_a_mode(self):
        # clip is the one name of the clamping mode
        with pytest.raises(ValueError, match="mode must be one of"):
            ConstraintPolicy(mode="project")


class TestClip:
    def test_overshoot_clamped(self):
        e = Elementwise(np.array([[5.3]]))
        enforce_bounds(e, ConstraintPolicy())
        assert e.exponents[0, 0] == 4.0

    def test_inside_unchanged(self):
        values = np.array([[0.5, -1.9], [3.9, 1.0]])
        e = Elementwise(values.copy())
        enforce_bounds(e, ConstraintPolicy())
        np.testing.assert_array_equal(e.exponents, values)

    def test_boundary_kept(self):
        e = Elementwise(np.array([[-2.0]]))
        enforce_bounds(e, ConstraintPolicy())
        assert e.exponents[0, 0] == -2.0

    def test_idempotent(self):
        rng = make_rng(0)
        e = Elementwise(rng.uniform(-10, 10, size=(3, 3)))
        enforce_bounds(e, ConstraintPolicy())
        once = e.exponents.copy()
        enforce_bounds(e, ConstraintPolicy())
        np.testing.assert_array_equal(e.exponents, once)

    def test_inplace_variant(self):
        e = Elementwise(np.array([[9.0, -9.0]]))
        enforce_bounds(e, ConstraintPolicy())
        np.testing.assert_array_equal(e.exponents, [[4.0, -2.0]])

    def test_inplace_variant_is_noop_under_reparam(self):
        e = Elementwise(np.array([[9.0, -9.0]]))
        enforce_bounds(e, ConstraintPolicy(mode="reparam"))
        np.testing.assert_array_equal(e.exponents, [[9.0, -9.0]])

    def test_stacked_payload_clamped_in_one_call(self):
        stack = Bilinear(np.full((3, 2, 2), 6.0), np.full((3, 2, 2), -6.0))
        enforce_bounds(stack, ConstraintPolicy())
        assert np.all(stack.row_mix == 4.0) and np.all(stack.col_mix == -2.0)


class TestInBounds:
    def test_clip_checks_the_interval(self):
        pol = ConstraintPolicy(mode="clip")
        assert in_bounds(Elementwise(np.array([[-2.0, 4.0]])), pol)
        assert not in_bounds(Elementwise(np.array([[1.0, 4.5]])), pol)
        assert not in_bounds(
            Bilinear(np.zeros((2, 2, 2)), np.full((2, 3, 3), -2.5)), pol)

    def test_reparam_values_are_unconstrained(self):
        pol = ConstraintPolicy(mode="reparam")
        assert in_bounds(Elementwise(np.array([[-50.0, 50.0]])), pol)

    def test_standard_has_nothing_to_check(self):
        assert in_bounds(Standard(), ConstraintPolicy())


class TestReparamMaps:
    def test_sigmoid_midpoint_is_neutral(self):
        pol = ConstraintPolicy(mode="reparam", kind="sigmoid")
        assert reparam_forward(0.0, pol) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_sigmoid_saturates_without_warning(self):
        pol = ConstraintPolicy(mode="reparam", kind="sigmoid")
        w_hat = np.array([-800.0, 800.0])
        np.testing.assert_array_equal(reparam_forward(w_hat, pol),
                                      [pol.v_min, pol.v_max])
        np.testing.assert_array_equal(reparam_grad(w_hat, pol), [0.0, 0.0])

    def test_sigmoid_approaches_upper_bound(self):
        pol = ConstraintPolicy(mode="reparam", kind="sigmoid")
        assert reparam_forward(30.0, pol) == pytest.approx(4.0, abs=1e-10)
        assert reparam_forward(30.0, pol) <= 4.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_grad_matches_finite_differences(self, kind):
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        rng = make_rng(1)
        w = rng.uniform(-8, 8, size=500)
        if kind == "hard_sigmoid":
            w = w[np.abs(np.abs(w) - 3.0) > 1e-3]  # keep off the kinks
        h = 1e-6
        fd = (reparam_forward(w + h, pol) - reparam_forward(w - h, pol)) / (2 * h)
        an = reparam_grad(w, pol)
        assert np.max(np.abs(fd - an)) <= 1e-8

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trips(self, kind):
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        targets = np.array([-1.0, 0.0, 1.0, 3.0])
        back = reparam_forward(reparam_invert(targets, pol), pol)
        np.testing.assert_allclose(back, targets, atol=1e-10)
        # the other direction, on raw values whose image stays strictly
        # inside the bounds (hard_sigmoid leaves the interval past +-3)
        span = 2.9 if kind == "hard_sigmoid" else 8.0
        w = np.linspace(-span, span, 101)
        w2 = reparam_invert(reparam_forward(w, pol), pol)
        np.testing.assert_allclose(w2, w, atol=1e-10)

    def test_sigmoid_inversion_hand_value(self):
        pol = ConstraintPolicy(mode="reparam", kind="sigmoid")
        assert reparam_invert(1.0, pol) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_invert_rejects_boundary(self, kind):
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        with pytest.raises(ValueError):
            reparam_invert(4.0, pol)
        with pytest.raises(ValueError):
            reparam_invert(-2.0, pol)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_grad_positive_where_float_resolves(self, kind):
        # mathematically positive everywhere; evaluated out to |s w| = 700
        # (s = 2 for tanh), short of where e^(-|s w|) underflows
        span = {"sigmoid": 700.0, "tanh": 350.0, "hard_sigmoid": 100.0}[kind]
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        grid = np.linspace(-span, span, 4001)
        assert np.all(reparam_grad(grid, pol) > 0.0)

    @pytest.mark.parametrize("kind, s", [("sigmoid", 1.0), ("tanh", 2.0)])
    def test_grad_matches_the_cancellation_free_form(self, kind, s):
        # (v_max - v_min) s sigma(z) sigma(-z) with z = s w, written as
        # e^(-|z|) / (1 + e^(-|z|))^2, which nothing cancels in
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        z = np.concatenate([np.linspace(-700.0, 700.0, 20_001),
                            make_rng(3).uniform(-40.0, 40.0, 2000)])
        e = np.exp(-np.abs(z))
        exact = (pol.v_max - pol.v_min) * s * e / (1.0 + e) ** 2
        grad = reparam_grad(z / s, pol)
        assert np.all(grad > 0.0)
        np.testing.assert_allclose(grad, exact, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_strictly_monotone_via_stable_gaps(self, kind):
        # direct subtraction of saturated outputs rounds to zero in the
        # tails; the rearranged gap formula keeps the true sign
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        grid = np.linspace(-100.0, 100.0, 10_000)
        gaps = forward_gap(grid[:-1], grid[1:], pol)
        assert np.all(gaps > 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ("sigmoid", "tanh"))
    def test_gap_is_stable_on_a_wide_grid(self, kind):
        # every pair a < b of a grid over [-1000, 1000]: finite, >= 0,
        # warning-free, and positive wherever the exact gap exceeds 1e-300
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        grid = np.linspace(-1000.0, 1000.0, 401)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        upper = a < b
        a, b = a[upper], b[upper]
        gaps = forward_gap(a, b, pol)
        assert np.all(np.isfinite(gaps)) and np.all(gaps >= 0.0)
        if kind == "sigmoid":
            # log sigma(b) + log sigma(-a) + log(1 - e^(a - b))
            log_exact = (np.log(pol.v_max - pol.v_min)
                         - np.logaddexp(0.0, -b) - np.logaddexp(0.0, a)
                         + np.log(-np.expm1(a - b)))
        else:  # log(halfrange * sinh(b - a) / (cosh(a) cosh(b)))
            halfrange = 0.5 * (pol.v_max - pol.v_min)

            def log_cosh(x):
                x = np.abs(x)
                return x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)

            d = b - a
            log_sinh = d + np.log(-np.expm1(-2.0 * d)) - np.log(2.0)
            log_exact = (np.log(halfrange) + log_sinh
                         - log_cosh(a) - log_cosh(b))
        resolvable = log_exact > np.log(1e-300)
        assert resolvable.sum() > 0.1 * resolvable.size
        assert np.all(gaps[resolvable] > 0.0)
        # where the gap is a normal float, it matches the exact value
        normal = log_exact > np.log(1e-290)
        np.testing.assert_allclose(np.log(gaps[normal]), log_exact[normal],
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(st.floats(-1000.0, 1000.0), st.floats(-1000.0, 1000.0))
    @settings(max_examples=300, deadline=None)
    def test_gap_property(self, kind, x, y):
        # finite, never negative and warning-free for any a <= b in
        # [-1000, 1000]; strictly positive where the exact gap is at least
        # about 1e-267 (tanh, both ends at 300, b - a = 1e-6). Far in the
        # tails the exact gap underflows float64, so 0 there is correct.
        a, b = min(x, y), max(x, y)
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = forward_gap(a, b, pol)
        assert np.isfinite(gap) and gap >= 0.0
        if b - a >= 1e-6 and max(abs(a), abs(b)) <= 300.0:
            assert gap > 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gap_agrees_with_direct_subtraction_in_core(self, kind):
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        a = np.linspace(-4, 3.9, 80)
        b = a + 0.1
        direct = np.asarray(reparam_forward(b, pol)) \
            - np.asarray(reparam_forward(a, pol))
        np.testing.assert_allclose(forward_gap(a, b, pol), direct,
                                   rtol=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_effective_values_stay_in_bounds(self, kind):
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        w = np.linspace(-100, 100, 2001)
        eff = effective_value(w, pol)
        assert np.all(eff >= pol.v_min) and np.all(eff <= pol.v_max)


class TestHardSigmoidGeometry:
    def setup_method(self):
        self.pol = ConstraintPolicy(mode="reparam", kind="hard_sigmoid")

    def test_core_slope(self):
        assert reparam_grad(0.0, self.pol) == (4.0 - (-2.0)) / 6.0

    def test_residual_slope_outside_core(self):
        assert reparam_grad(5.0, self.pol) == 1e-3
        assert reparam_grad(-40.0, self.pol) == 1e-3

    def test_overshoot_is_bounded_and_clamped(self):
        raw = reparam_forward(5.0, self.pol)
        assert raw == pytest.approx(4.0 + 1e-3 * 2.0)
        assert effective_value(5.0, self.pol) == 4.0

    def test_continuous_at_kinks(self):
        eps = 1e-9
        lo = reparam_forward(3.0 - eps, self.pol)
        hi = reparam_forward(3.0 + eps, self.pol)
        assert hi - lo == pytest.approx(0.0, abs=1e-8)


class TestInitExponents:
    def test_elementwise_all_ones(self):
        payload = init_exponents("elementwise", 2, 2)
        np.testing.assert_array_equal(payload.exponents, np.ones((2, 2)))

    def test_full_matrix_identity(self):
        payload = init_exponents("full_matrix", 2, 2)
        np.testing.assert_array_equal(payload.mix, np.eye(4))

    def test_bilinear_identity_pair(self):
        payload = init_exponents("bilinear", 3, 2)
        np.testing.assert_array_equal(payload.row_mix, np.eye(3))
        np.testing.assert_array_equal(payload.col_mix, np.eye(2))

    def test_shared_variants_ones(self):
        np.testing.assert_array_equal(
            init_exponents("row_shared", 3, 2).row_exponents, np.ones(3))
        np.testing.assert_array_equal(
            init_exponents("col_shared", 3, 2).col_exponents, np.ones(2))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("variant", ["elementwise", "row_shared",
                                         "col_shared", "bilinear",
                                         "full_matrix"])
    def test_reparam_init_materializes_neutral(self, kind, variant):
        pol = ConstraintPolicy(mode="reparam", kind=kind)
        raw = init_exponents(variant, 2, 3, pol)
        eff = effective_payload(raw, pol)
        targets = payload_arrays(init_exponents(variant, 2, 3))
        for got, want in zip(payload_arrays(eff), targets):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_clip_init_clamps_identity_zeros_into_bounds(self):
        pol = ConstraintPolicy(v_min=0.5, v_max=4.0)
        bil = init_exponents("bilinear", 2, 2, pol)
        np.testing.assert_array_equal(bil.row_mix, [[1.0, 0.5], [0.5, 1.0]])
        assert in_bounds(bil, pol)
        np.testing.assert_array_equal(
            init_exponents("elementwise", 2, 2, pol).exponents,
            np.ones((2, 2)))

    def test_reparam_matrix_variant_needs_negative_lower_bound(self):
        pol = ConstraintPolicy(v_min=0.5, v_max=4.0, mode="reparam")
        with pytest.raises(ValueError):
            init_exponents("bilinear", 2, 2, pol)
        with pytest.raises(ValueError):
            init_exponents("full_matrix", 2, 2, pol)
        # elementwise has no zero entries to invert, so it is fine
        init_exponents("elementwise", 2, 2, pol)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            init_exponents("diagonal", 2, 2)


class TestEffectivePayload:
    def test_clip_mode_passthrough(self):
        e = Elementwise(np.array([[2.5]]))
        assert effective_payload(e, ConstraintPolicy()) is e

    def test_reparam_mode_maps_payloads(self):
        pol = ConstraintPolicy(mode="reparam", kind="sigmoid")
        raw = Elementwise(np.zeros((2, 2)))
        eff = effective_payload(raw, pol)
        np.testing.assert_allclose(eff.exponents, np.ones((2, 2)),
                                   atol=1e-14)

    def test_effective_layer(self):
        layer = LayerParams(np.ones((1, 2, 2)), np.zeros(1),
                            [Elementwise(np.zeros((2, 2)))])
        assert effective_layer(layer, ConstraintPolicy()) is layer
        eff = effective_layer(layer, ConstraintPolicy(mode="reparam"))
        np.testing.assert_allclose(eff.ewms[0].exponents, np.ones((2, 2)),
                                   atol=1e-14)
        assert eff.weights is layer.weights

    def test_stored_grad_chains_reparam_only(self):
        raw = Elementwise(np.array([[0.0, 2.0]]))
        d_eff = Elementwise(np.array([[1.0, 1.0]]))
        stored_grad(d_eff, raw, ConstraintPolicy())
        np.testing.assert_array_equal(d_eff.exponents, [[1.0, 1.0]])
        pol = ConstraintPolicy(mode="reparam")
        stored_grad(d_eff, raw, pol)
        np.testing.assert_array_equal(d_eff.exponents,
                                      [reparam_grad(raw.exponents[0], pol)])

    def test_payload_arrays_by_variant(self):
        assert len(payload_arrays(Bilinear(np.eye(2), np.eye(2)))) == 2
        assert len(payload_arrays(FullMatrix(np.eye(4)))) == 1
