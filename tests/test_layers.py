"""Forward evaluation: single units for every exponent variant, the
shared variants' operators, the whole-layer sliding pass, and the
cross-variant equivalences that tie the formulations together."""

import numpy as np
import pytest

from expconv.layers import (
    VARIANT_TYPES,
    Bilinear,
    ColShared,
    Elementwise,
    FullMatrix,
    LayerParams,
    RowShared,
    Standard,
    channel_preact,
    layer_forward,
    output_grid,
    payload_arrays,
    payload_map,
    unit_bilinear,
    unit_elementwise,
    unit_forward,
    unit_full,
    unit_standard,
)
from expconv.numerics import kron, make_rng, vec


class TestUnitStandard:
    def test_hand_example(self):
        assert unit_standard(np.array([[1.0, 2.0]]),
                             np.array([[3.0, 4.0]]), 1.0) == 12.0

    def test_zero_weights_give_bias(self):
        x = make_rng(0).normal(size=(2, 3))
        assert unit_standard(x, np.zeros((2, 3)), 2.5) == 2.5

    def test_one_hot_picks_weight(self):
        w = make_rng(1).normal(size=(2, 2))
        x = np.zeros((2, 2))
        x[1, 0] = 1.0
        assert unit_standard(x, w, 0.0) == w[1, 0]


class TestUnitElementwise:
    def test_hand_example(self):
        out = unit_elementwise(np.array([[2.0, 3.0]]),
                               np.array([[1.0, 1.0]]), 0.0,
                               np.array([[2.0, 1.0]]))
        assert out == pytest.approx(7.0, abs=1e-12)

    def test_negative_base(self):
        out = unit_elementwise(np.array([[-2.0]]), np.array([[1.0]]), 0.0,
                               np.array([[2.0]]))
        assert out == pytest.approx(-4.0, abs=1e-12)

    def test_ones_exponents_reduce_to_standard(self):
        rng = make_rng(2)
        for _ in range(20):
            x = rng.uniform(1e-3, 10, size=(2, 3)) * rng.choice([-1, 1], (2, 3))
            w = rng.normal(size=(2, 3))
            b = rng.normal()
            nl = unit_elementwise(x, w, b, np.ones((2, 3)))
            assert nl == pytest.approx(unit_standard(x, w, b), abs=1e-12)


class TestExpandShared:
    """A shared payload's operator expands it to one exponent per entry of
    the row-major flattened patch."""

    def test_row_shared(self):
        np.testing.assert_array_equal(
            RowShared(np.array([2.0, 3.0])).operator(2, 3),
            [2.0, 2.0, 2.0, 3.0, 3.0, 3.0])

    def test_col_shared(self):
        np.testing.assert_array_equal(
            ColShared(np.array([2.0, 3.0])).operator(3, 2),
            [2.0, 3.0, 2.0, 3.0, 2.0, 3.0])

    def test_all_ones(self):
        np.testing.assert_array_equal(
            RowShared(np.ones(3)).operator(3, 2), np.ones(6))

    def test_shared_units_match_expanded_elementwise_bitwise(self):
        rng = make_rng(4)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=(3, 2))
            w = rng.normal(size=(3, 2))
            b = rng.normal()
            rows = rng.uniform(-2, 4, size=3)
            cols = rng.uniform(-2, 4, size=2)
            row_out = unit_forward(x, w, b, RowShared(rows))
            col_out = unit_forward(x, w, b, ColShared(cols))
            assert row_out == unit_elementwise(
                x, w, b, np.repeat(rows[:, None], 2, axis=1))
            assert col_out == unit_elementwise(
                x, w, b, np.repeat(cols[None, :], 3, axis=0))


class TestUnitBilinear:
    def test_identity_mixes_reduce_to_standard(self):
        rng = make_rng(5)
        for _ in range(20):
            x = rng.uniform(1e-3, 10, size=(2, 3)) * rng.choice([-1, 1], (2, 3))
            w = rng.normal(size=(2, 3))
            b = rng.normal()
            out = unit_bilinear(x, w, b, np.eye(2), np.eye(3))
            assert out == pytest.approx(unit_standard(x, w, b), abs=1e-12)

    def test_one_by_one_squares(self):
        out = unit_bilinear(np.array([[2.0]]), np.array([[1.0]]), 0.0,
                            np.array([[2.0]]), np.array([[1.0]]))
        assert out == pytest.approx(4.0, abs=1e-12)

    def test_column_mixing_hand_case(self):
        # log-matrix of all-e input is all-ones; the upper-triangular
        # column mix turns column exponents into (1, 2)
        e = np.e
        x = np.full((2, 2), e)
        col_mix = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = unit_bilinear(x, np.ones((2, 2)), 0.0, np.eye(2), col_mix)
        assert out == pytest.approx(e + e + e ** 2 + e ** 2, rel=1e-14)


class TestUnitFull:
    def test_identity_reduces_to_standard(self):
        rng = make_rng(6)
        x = rng.uniform(1e-3, 10, size=(2, 2)) * rng.choice([-1, 1], (2, 2))
        w = rng.normal(size=(2, 2))
        out = unit_full(vec(x), vec(w), 0.5, np.eye(4))
        assert out == pytest.approx(unit_standard(x, w, 0.5), abs=1e-12)

    def test_doubled_identity_squares(self):
        out = unit_full(np.array([2.0, 3.0]), np.array([1.0, 1.0]), 0.0,
                        2.0 * np.eye(2))
        assert out == pytest.approx(13.0, abs=1e-12)

    def test_diagonal_matches_elementwise(self):
        out = unit_full(np.array([2.0, 3.0]), np.array([1.0, 1.0]), 0.0,
                        np.diag([2.0, 1.0]))
        assert out == pytest.approx(7.0, abs=1e-12)

    def test_diagonal_reduction_with_signs(self):
        rng = make_rng(7)
        for _ in range(20):
            x = rng.uniform(0.1, 3, size=(2, 2)) * rng.choice([-1, 1], (2, 2))
            w = rng.normal(size=(2, 2))
            e = rng.uniform(-2, 4, size=(2, 2))
            b = rng.normal()
            full = unit_full(vec(x), vec(w), b, np.diag(vec(e)))
            elem = unit_elementwise(x, w, b, e)
            assert full == pytest.approx(elem, abs=1e-12 * max(1, abs(elem)))


class TestBilinearFullEquivalence:
    def test_kron_identity_on_random_cases(self):
        rng = make_rng(8)
        for _ in range(30):
            x = rng.uniform(0.1, 3, size=(3, 3)) * rng.choice([-1, 1], (3, 3))
            w = rng.normal(size=(3, 3))
            b = rng.normal()
            row_mix = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
            col_mix = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
            bil = unit_bilinear(x, w, b, row_mix, col_mix)
            full = unit_full(vec(x), vec(w), b, kron(col_mix.T, row_mix))
            assert bil == pytest.approx(full, abs=1e-10 * max(1, abs(bil)))


def param_count(ewm) -> int:
    return sum(a.size for a in payload_arrays(ewm))


class TestParamCounts:
    def test_per_variant_counts(self):
        k_h, k_w = 3, 2
        n = k_h * k_w
        cases = [
            (Standard(), 0),
            (Elementwise(np.ones((k_h, k_w))), n),
            (RowShared(np.ones(k_h)), k_h),
            (ColShared(np.ones(k_w)), k_w),
            (Bilinear(np.eye(k_h), np.eye(k_w)), k_h ** 2 + k_w ** 2),
            (FullMatrix(np.eye(n)), n ** 2),
        ]
        for ewm, expected in cases:
            assert param_count(ewm) == expected

    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    @pytest.mark.parametrize("k_h, k_w", [(1, 1), (2, 3), (3, 2)])
    def test_neutral_payload_matches_table(self, variant, k_h, k_w):
        n = k_h * k_w
        expected = {"standard": 0, "elementwise": n, "row_shared": k_h,
                    "col_shared": k_w, "bilinear": k_h ** 2 + k_w ** 2,
                    "full_matrix": n ** 2}[variant]
        ewm = VARIANT_TYPES[variant].neutral(k_h, k_w)
        assert ewm.name == variant
        assert param_count(ewm) == expected
        assert tuple(a.shape for a in payload_arrays(ewm)) == \
            ewm.shapes(k_h, k_w)
        op = ewm.operator(k_h, k_w)
        if variant == "standard":
            assert op is None
        else:
            # the neutral operator is the identity on log|x|
            np.testing.assert_array_equal(
                np.diag(op) if op.ndim == 1 else op, np.eye(n))


WRONG_SHAPES = {  # payloads that do not fit a 2x3 kernel
    "elementwise": [Elementwise(np.ones((3, 2))), Elementwise(np.ones(6))],
    "row_shared": [RowShared(np.ones(3)), RowShared(np.ones((2, 1)))],
    "col_shared": [ColShared(np.ones(2)), ColShared(np.ones((1, 3)))],
    "bilinear": [Bilinear(np.eye(3), np.eye(2)),
                 Bilinear(np.eye(2), np.ones((3, 2)))],
    "full_matrix": [FullMatrix(np.eye(5)), FullMatrix(np.ones((6, 5)))],
}


class TestVariantShapeValidation:
    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    def test_neutral_payload_accepted(self, variant):
        ewm = VARIANT_TYPES[variant].neutral(2, 3)
        LayerParams(np.ones((2, 2, 3)), np.zeros(2), [ewm, ewm])

    @pytest.mark.parametrize("variant", sorted(WRONG_SHAPES))
    def test_every_variant_rejects_wrong_shapes(self, variant):
        for ewm in WRONG_SHAPES[variant]:
            with pytest.raises(ValueError, match=variant):
                LayerParams(np.ones((1, 2, 3)), np.zeros(1), [ewm])


    def test_wrong_exponent_shape_rejected(self):
        with pytest.raises(ValueError):
            LayerParams(np.ones((1, 2, 2)), np.zeros(1),
                        [Elementwise(np.ones((3, 3)))])

    def test_wrong_mix_shape_rejected(self):
        with pytest.raises(ValueError):
            LayerParams(np.ones((1, 2, 2)), np.zeros(1),
                        [FullMatrix(np.eye(3))])

    def test_mixed_variant_tags_rejected(self):
        with pytest.raises(ValueError):
            LayerParams(np.ones((2, 2, 2)), np.zeros(2),
                        [Standard(), Elementwise(np.ones((2, 2)))])

    def test_channels_of_different_shapes_rejected(self):
        with pytest.raises(ValueError):
            LayerParams(np.ones((2, 2, 2)), np.zeros(2),
                        [Elementwise(np.ones((2, 2))),
                         Elementwise(np.ones(4))])

    def test_stacked_payload_needs_the_channel_axis(self):
        with pytest.raises(ValueError, match="elementwise"):
            LayerParams(np.ones((2, 2, 2)), np.zeros(2),
                        Elementwise(np.ones((2, 2))))


class TestStackedPayload:
    """A layer stacks its channels' payloads and exposes per-channel views."""

    def test_list_is_stacked_and_copied(self):
        rows = [RowShared(np.array([1.0, 2.0])),
                RowShared(np.array([3.0, 4.0]))]
        params = LayerParams(np.ones((2, 2, 3)), np.zeros(2), rows)
        np.testing.assert_array_equal(params.payload.row_exponents,
                                      [[1.0, 2.0], [3.0, 4.0]])
        rows[0].row_exponents[0] = 9.0  # the layer holds its own copy
        assert params.payload.row_exponents[0, 0] == 1.0

    def test_channel_views_write_through(self):
        params = LayerParams(np.ones((3, 2, 2)), np.zeros(3),
                             [Bilinear.neutral(2, 2)] * 3)
        assert len(params.ewms) == 3
        params.ewms[1].col_mix[0, 1] = 5.0
        params.payload.row_mix[2, 1, 0] = 7.0
        assert params.payload.col_mix[1, 0, 1] == 5.0
        assert params.ewms[2].row_mix[1, 0] == 7.0
        assert params.payload.col_mix[0, 0, 1] == 0.0

    def test_stacked_payload_is_used_as_given(self):
        stack = Elementwise(np.ones((2, 2, 2)))
        params = LayerParams(np.ones((2, 2, 2)), np.zeros(2), stack)
        assert params.payload is stack
        assert params.ewms[1].exponents.base is stack.exponents

    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    def test_operator_of_stack_is_per_channel_operator(self, variant):
        rng = make_rng(14)
        neutral = VARIANT_TYPES[variant].neutral(2, 3)
        ewms = [type(neutral)(*(a + rng.uniform(-0.3, 0.3, a.shape)
                                for a in payload_arrays(neutral)))
                for _ in range(3)]
        params = LayerParams(np.ones((3, 2, 3)), np.zeros(3), ewms)
        op = params.payload.operator(2, 3)
        if variant == "standard":
            assert op is None
            return
        for m, ewm in enumerate(ewms):
            np.testing.assert_array_equal(op[m], ewm.operator(2, 3))
        d_op = rng.normal(size=op.shape)
        grad = params.payload.operator_grad(d_op, 2, 3)
        for m, ewm in enumerate(ewms):
            want = ewm.operator_grad(d_op[m], 2, 3)
            for got, exp in zip(payload_arrays(grad), payload_arrays(want)):
                np.testing.assert_allclose(got[m], exp, rtol=1e-15, atol=0)


def brute_force_standard_conv(x, weights, bias, k_h, k_w):
    t, c = x.shape
    out = np.zeros((t - k_h + 1, c - k_w + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = np.sum(weights * x[i:i + k_h, j:j + k_w]) + bias
    return out


class TestPayloadEquality:
    def test_equality_is_identity(self):
        # equal-valued arrays must not make == ask numpy for a truth value
        a, b = Elementwise(np.ones((2, 2))), Elementwise(np.ones((2, 2)))
        assert a == a and a != b
        assert a in [a] and b not in [a]
        layer = LayerParams(np.ones((1, 2, 2)), np.zeros(1), [a])
        twin = LayerParams(np.ones((1, 2, 2)), np.zeros(1), [a])
        assert layer == layer and layer != twin
        assert twin not in [layer]


class TestLayerForward:
    def test_standard_layer_matches_nested_loops(self):
        rng = make_rng(9)
        x = rng.normal(size=(7, 5))
        w = rng.normal(size=(1, 3, 2))
        params = LayerParams(w, np.array([0.3]), [Standard()])
        out = layer_forward(x, params)
        expected = brute_force_standard_conv(x, w[0], 0.3, 3, 2)
        np.testing.assert_allclose(out[..., 0], expected, atol=1e-12)

    def test_zero_weights_relu_all_zero(self):
        params = LayerParams(np.zeros((2, 2, 2)), np.zeros(2),
                             [Standard(), Standard()], activation="relu")
        out = layer_forward(make_rng(10).normal(size=(5, 5)), params)
        assert np.all(out == 0.0)

    def test_feature_map_shape(self):
        params = LayerParams(np.ones((2, 3, 4)), np.zeros(2),
                             [Standard(), Standard()])
        out = layer_forward(np.ones((10, 4)), params)
        assert out.shape == (8, 1, 2)
        assert output_grid(params, 10, 4) == (8, 1)

    def test_batched_input_matches_loop(self):
        rng = make_rng(11)
        x = rng.uniform(-2, 2, size=(4, 6, 5))
        params = LayerParams(rng.normal(size=(2, 2, 2)), rng.normal(size=2),
                             [Elementwise(rng.uniform(0.5, 1.5, (2, 2)))] * 2,
                             stride_c=2, activation="tanh")
        batched = layer_forward(x, params)
        for i in range(4):
            np.testing.assert_allclose(batched[i], layer_forward(x[i], params),
                                       atol=1e-14)

    def test_does_not_mutate_params(self):
        rng = make_rng(12)
        w = rng.normal(size=(1, 2, 2))
        e = rng.uniform(0.5, 1.5, size=(2, 2))
        params = LayerParams(w.copy(), np.zeros(1), [Elementwise(e.copy())])
        layer_forward(rng.normal(size=(5, 5)), params)
        np.testing.assert_array_equal(params.weights, w)
        np.testing.assert_array_equal(params.ewms[0].exponents, e)

    def test_kernel_larger_than_input(self):
        params = LayerParams(np.ones((1, 4, 4)), np.zeros(1), [Standard()])
        with pytest.raises(ValueError):
            layer_forward(np.ones((3, 5)), params)

    def test_non_finite_result_raises(self):
        # a huge exponent on a large magnitude overflows the power
        params = LayerParams(np.ones((1, 1, 1)), np.zeros(1),
                             [Elementwise(np.array([[400.0]]))])
        with pytest.raises(FloatingPointError):
            layer_forward(np.full((1, 1), 10.0), params)

    # an overflow or invalid-value warning would fail these
    @pytest.mark.filterwarnings("error")
    def test_overflowing_filter_product_raises(self):
        params = LayerParams(np.full((1, 1, 2), 1e308), np.zeros(1),
                             [Standard()])
        with pytest.raises(FloatingPointError):
            layer_forward(np.full((1, 2), 10.0), params)

    @pytest.mark.filterwarnings("error")
    def test_opposite_infinite_powers_raise(self):
        # +inf and -inf powers in one patch sum to NaN in the filter product
        params = LayerParams(np.ones((1, 1, 2)), np.zeros(1),
                             [Elementwise(np.full((1, 2), 400.0))])
        with pytest.raises(FloatingPointError):
            layer_forward(np.array([[10.0, -10.0]]), params)


class TestChannelPreact:
    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3, 4)])
    def test_matches_unit_forward(self, variant, lead):
        rng = make_rng(14)
        k_h, k_w = 3, 2
        ewm = payload_map(VARIANT_TYPES[variant].neutral(k_h, k_w),
                          lambda a: a + rng.uniform(-0.3, 0.3, a.shape))
        weights = rng.normal(size=(k_h, k_w))
        patches = rng.uniform(0.1, 3.0, size=lead + (k_h, k_w)) \
            * rng.choice([-1.0, 1.0], size=lead + (k_h, k_w))
        patches.reshape(-1)[0] = -0.0
        before = patches.copy()
        out = channel_preact(patches, weights, 0.4, ewm)
        assert out.shape == lead
        want = [unit_forward(p, weights, 0.4, ewm)
                for p in patches.reshape(-1, k_h, k_w)]
        np.testing.assert_allclose(out.reshape(-1), want, rtol=1e-9)
        # left as it was, the sign of -0.0 included
        np.testing.assert_array_equal(patches, before)
        assert np.signbit(patches.reshape(-1)[0])


class TestReductionAtInit:
    def test_all_variants_match_standard(self):
        # ones / identity exponent payloads leave the power inert
        rng = make_rng(13)
        k_h, k_w = 2, 3
        n = k_h * k_w
        variants = [
            Elementwise(np.ones((k_h, k_w))),
            RowShared(np.ones(k_h)),
            ColShared(np.ones(k_w)),
            Bilinear(np.eye(k_h), np.eye(k_w)),
            FullMatrix(np.eye(n)),
        ]
        for _ in range(25):
            x = rng.uniform(1e-3, 10, size=(6, 7)) * rng.choice([-1, 1], (6, 7))
            w = rng.normal(size=(1, k_h, k_w))
            b = rng.normal(size=1)
            base = layer_forward(x, LayerParams(w, b, [Standard()]))
            for ewm in variants:
                out = layer_forward(x, LayerParams(w, b, [ewm]))
                np.testing.assert_allclose(out, base, atol=1e-12)
