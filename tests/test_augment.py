"""Window perturbations: the three flips, random exponent draws, and the
probability-gated pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expconv.augment import (
    AugmentSpec,
    apply_exponents,
    apply_op,
    apply_pipeline,
    draw_exponents,
    exp_augment,
    flip_bidirectional,
    flip_blockwise,
    flip_lr,
    private_streams,
)
from expconv.numerics import make_rng


def random_window(seed, t=7, c=3):
    return make_rng(seed).normal(size=(t, c))


class TestFlips:
    def test_flip_lr_reverses_time_only(self):
        x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        np.testing.assert_array_equal(
            flip_lr(x), [[3.0, 30.0], [2.0, 20.0], [1.0, 10.0]])

    def test_flip_bidirectional_rotates(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            flip_bidirectional(x), [[4.0, 3.0], [2.0, 1.0]])

    def test_flip_blockwise_pairs(self):
        x = np.arange(5.0)[:, None]
        out = flip_blockwise(x, 2)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0, 3.0, 2.0, 4.0])

    def test_flip_blockwise_unit_block_is_identity(self):
        x = random_window(0)
        np.testing.assert_array_equal(flip_blockwise(x, 1), x)

    def test_flip_blockwise_full_block_is_flip_lr(self):
        x = random_window(1)
        np.testing.assert_array_equal(flip_blockwise(x, 7), flip_lr(x))
        np.testing.assert_array_equal(flip_blockwise(x, 100), flip_lr(x))

    @given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 4),
           st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_involutions_and_multiset(self, seed, t, c, block):
        x = make_rng(seed).normal(size=(t, c))
        for flip in (flip_lr,
                     flip_bidirectional,
                     lambda a: flip_blockwise(a, block)):
            once = flip(x)
            assert sorted(once.ravel()) == sorted(x.ravel())
            np.testing.assert_array_equal(flip(once), x)

    def test_rejects_non_window_input(self):
        with pytest.raises(ValueError):
            flip_lr(np.zeros(5))
        with pytest.raises(ValueError):
            flip_bidirectional(np.zeros((2, 2, 2)))


class TestExponentDraws:
    def test_shapes_by_granularity(self):
        rng = make_rng(0)
        assert draw_exponents((5, 3), "per_point", -2, 4, rng).shape == (5, 3)
        assert draw_exponents((5, 3), "per_row", -2, 4, rng).shape == (5, 1)
        assert draw_exponents((5, 3), "per_channel", -2, 4, rng).shape == (1, 3)

    def test_draws_respect_bounds(self):
        draws = draw_exponents((200, 4), "per_point", -2.0, 4.0, make_rng(3))
        assert draws.min() >= -2.0 and draws.max() <= 4.0

    def test_mean_near_interval_center(self):
        n = 20_000
        draws = draw_exponents((n, 1), "per_row", -2.0, 4.0, make_rng(9))
        se = 6.0 / np.sqrt(12.0) / np.sqrt(n)
        assert abs(draws.mean() - 1.0) <= 3.0 * se

    def test_per_row_constant_within_rows(self):
        x = np.abs(random_window(4)) + 0.5
        spec = AugmentSpec("exp_augment", granularity="per_row")
        out = exp_augment(x, spec, make_rng(11))
        implied = np.log(out) / np.log(x)
        assert np.allclose(implied, implied[:, :1])

    def test_per_channel_constant_within_columns(self):
        x = np.abs(random_window(5)) + 0.5
        spec = AugmentSpec("exp_augment", granularity="per_channel")
        out = exp_augment(x, spec, make_rng(12))
        implied = np.log(out) / np.log(x)
        assert np.allclose(implied, implied[:1, :])

    def test_signs_preserved(self):
        x = random_window(6)
        spec = AugmentSpec("exp_augment", granularity="per_point")
        out = exp_augment(x, spec, make_rng(13))
        np.testing.assert_array_equal(np.sign(out), np.sign(x))

    def test_apply_exponents_hand_value(self):
        out = apply_exponents(np.array([[-2.0]]), np.array([[2.0]]))
        assert out[0, 0] == -4.0


class TestSpecValidation:
    def test_unknown_op(self):
        with pytest.raises(ValueError):
            AugmentSpec("flip_ud")

    def test_probability_range(self):
        with pytest.raises(ValueError):
            AugmentSpec("flip_lr", probability=1.5)

    def test_block_len_positive(self):
        with pytest.raises(ValueError):
            AugmentSpec("flip_blockwise", block_len=0)

    def test_bounds_ordered(self):
        with pytest.raises(ValueError):
            AugmentSpec("exp_augment", lo=2.0, hi=-2.0)

    def test_granularity_checked(self):
        with pytest.raises(ValueError):
            AugmentSpec("exp_augment", granularity="per_window")


class TestPipeline:
    def test_apply_op_dispatch(self):
        x = random_window(20)
        rng = make_rng(0)
        np.testing.assert_array_equal(
            apply_op(x, AugmentSpec("flip_lr"), rng), flip_lr(x))
        np.testing.assert_array_equal(
            apply_op(x, AugmentSpec("flip_blockwise", block_len=3), rng),
            flip_blockwise(x, 3))

    def test_zero_probability_is_identity(self):
        x = random_window(21)
        specs = [AugmentSpec("flip_lr", probability=0.0),
                 AugmentSpec("exp_augment", probability=0.0)]
        out = apply_pipeline(x, specs, make_rng(5))
        np.testing.assert_array_equal(out, x)

    def test_unit_probability_always_fires(self):
        x = random_window(22)
        specs = [AugmentSpec("flip_lr", probability=1.0),
                 AugmentSpec("flip_bidirectional", probability=1.0)]
        out = apply_pipeline(x, specs, make_rng(6))
        np.testing.assert_array_equal(out, flip_bidirectional(flip_lr(x)))

    def test_gate_draw_consumed_even_when_idle(self):
        # after a pipeline of k never-firing specs the stream sits exactly
        # k uniforms ahead, so later consumers see a deterministic state
        specs = [AugmentSpec("flip_lr", probability=0.0)] * 3
        rng = make_rng(7)
        apply_pipeline(random_window(23), specs, rng)
        ref = make_rng(7)
        ref.uniform(size=3)
        assert rng.uniform() == ref.uniform()

    def test_private_seed_isolates_draws(self):
        x = np.abs(random_window(24)) + 0.5
        # per_channel draws commute with a time flip, so the same private
        # stream must give literally the same powers in both pipelines
        spec = AugmentSpec("exp_augment", probability=1.0, seed=99,
                           granularity="per_channel")
        a = apply_pipeline(x, [spec], make_rng(1))
        b = apply_pipeline(x, [AugmentSpec("flip_lr", probability=1.0), spec],
                           make_rng(2))
        np.testing.assert_array_equal(a, flip_lr(b))

    def test_private_stream_continues_across_calls(self):
        x = np.abs(random_window(26)) + 0.5
        spec = AugmentSpec("exp_augment", probability=1.0, seed=99,
                           granularity="per_channel")
        streams = private_streams([spec])
        rng = make_rng(3)
        a = apply_pipeline(x, [spec], rng, streams)
        b = apply_pipeline(x, [spec], rng, streams)
        assert not np.allclose(a, b)
        # fresh streams start the private sequence over
        np.testing.assert_array_equal(
            apply_pipeline(x, [spec], make_rng(4), private_streams([spec])), a)

    def test_pipeline_reproducible(self):
        x = random_window(25)
        specs = [AugmentSpec("flip_blockwise", probability=0.7, block_len=2),
                 AugmentSpec("exp_augment", probability=0.7,
                             granularity="per_channel")]
        a = apply_pipeline(x, specs, make_rng(42))
        b = apply_pipeline(x, specs, make_rng(42))
        np.testing.assert_array_equal(a, b)
