"""Network assembly, forward/backward through the classifier head, the
optimizers, the training loop with constraint enforcement, evaluation
metrics, and the binary model format."""

import json
import math
import re
import shutil
import struct
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expconv import training
from expconv.augment import AugmentSpec
from expconv.constraints import (
    ConstraintPolicy,
    effective_layer,
    effective_payload,
    payload_arrays,
)
from expconv.dataset import (
    N_VARIABLES,
    TEST_ROWS,
    RawRun,
    WindowedDataset,
    gen_synthetic,
    load_windows_csv,
    make_windows,
    merge_windows,
    save_windows_csv,
)
from expconv.gradients import finite_diff
from expconv.layers import VARIANT_TYPES, LayerParams, Standard, layer_forward
from expconv.numerics import extract_patches, make_rng
from expconv.training import (
    Network,
    TrainConfig,
    _param_grad_pairs,
    _Sgd,
    build_network,
    cross_entropy,
    evaluate,
    forward_network,
    load_model,
    network_loss_grads,
    network_param_arrays,
    new_workspace,
    predict,
    save_model,
    train,
    write_history_csv,
)

FIXTURE_DIR = Path(__file__).parent / "data"
NONLINEAR_VARIANTS = ("elementwise", "row_shared", "col_shared",
                      "bilinear", "full_matrix")


def tiny_net(variant="elementwise", seed=0, input_shape=(4, 3), n_classes=2,
             policy=None, activation="identity", k=(2, 2), out_channels=1):
    spec = {"variant": variant, "k_h": k[0], "k_w": k[1],
            "out_channels": out_channels, "activation": activation}
    return build_network(input_shape, n_classes, [spec], policy=policy,
                         seed=seed)


def labeled_windows(seed, n=12, shape=(4, 3), n_classes=2):
    rng = make_rng(seed)
    windows = rng.uniform(0.3, 2.0, size=(n,) + shape) \
        * np.where(rng.uniform(size=(n,) + shape) < 0.5, -1.0, 1.0)
    labels = rng.integers(0, n_classes, size=n)
    return WindowedDataset(windows, labels, win_len=shape[0], stride=shape[0])


def series_set(seed, n, step, shape=(8, 6)):
    """A dataset of n windows of shape[0] rows every ``step`` rows of one
    seeded series."""
    series = make_rng(seed).normal(
        size=(step * max(n - 1, 0) + shape[0], shape[1]))
    return WindowedDataset.from_series(series, step * np.arange(n),
                                       np.zeros(n, dtype=np.int64),
                                       shape[0], step)


def plant_test_set(n_runs=4):
    """Windows of 40 rows every 10 rows of ``n_runs`` 960-row test runs,
    cut as perfbench's plant workloads cut them: 13 normal and 77 faulty
    windows a run."""
    runs = [RawRun(make_rng(60 + k).normal(size=(TEST_ROWS, N_VARIABLES)), k,
                   "test") for k in range(n_runs)]
    return merge_windows([make_windows(run, 40, 10) for run in runs])


def plant_net(variant="elementwise"):
    """The plant workloads' network: one 3x3x8 layer on 40x52 windows,
    three classes."""
    return build_network((40, 52), 3, [{"variant": variant, "k_h": 3,
                                        "k_w": 3, "out_channels": 8}],
                         seed=12)


def stack_logits(net, x):
    """The logits of ``net`` on the windows ``x``, run through the conv
    stack and the head in one piece."""
    layers, ops = training._effective_layers(net)
    maps = training._run_stack(x, layers, ops, new_workspace(net))
    return maps.reshape(len(x), -1) @ net.head_w + net.head_b


def params_bytes(net):
    return b"".join(a.tobytes() for a in network_param_arrays(net))


class TestNetworkConstruction:
    def test_intermediate_layers_must_be_single_channel(self):
        specs = [{"variant": "standard", "k_h": 2, "k_w": 2,
                  "out_channels": 3},
                 {"variant": "standard", "k_h": 1, "k_w": 1}]
        with pytest.raises(ValueError, match="one channel"):
            build_network((4, 3), 2, specs)

    def test_unknown_layer_key_rejected(self):
        # neither a stride shorthand nor a misspelled key is dropped
        spec = {"variant": "elementwise", "k_h": 2, "k_w": 2, "stride": 2,
                "activaton": "relu"}
        with pytest.raises(ValueError,
                           match=r"layer 0: unknown keys \['activaton', "
                                 r"'stride'\]"):
            build_network((8, 4), 2, [spec])

    def test_multi_channel_last_layer_allowed(self):
        net = tiny_net(out_channels=3)
        assert net.layers[-1].out_channels == 3
        assert net.n_features == 3 * 2 * 3  # (rows, cols, channels)

    def test_head_shape_checked(self):
        net = tiny_net()
        with pytest.raises(ValueError, match="classifier"):
            Network(net.layers, np.zeros((5, 2)), np.zeros(2),
                    policies=net.policies, input_shape=(4, 3), n_classes=2)

    def test_one_policy_per_layer(self):
        net = tiny_net()
        with pytest.raises(ValueError, match="policy"):
            Network(net.layers, net.head_w, net.head_b, policies=[],
                    input_shape=(4, 3), n_classes=2)

    @pytest.mark.parametrize("variant", NONLINEAR_VARIANTS)
    def test_variants_share_initialization_with_standard(self, variant):
        base = tiny_net("standard", seed=11)
        other = tiny_net(variant, seed=11)
        np.testing.assert_array_equal(base.layers[0].weights,
                                      other.layers[0].weights)
        np.testing.assert_array_equal(base.head_w, other.head_w)

    def test_glorot_bounds(self):
        net = tiny_net(seed=3)
        limit = np.sqrt(6.0 / (2 * 2 + 1))
        assert np.max(np.abs(net.layers[0].weights)) <= limit


class TestForward:
    def test_hand_computed_logits(self):
        # one whole-input standard unit: value = sum(W1 * x) + b = 16.5,
        # so logits are [16.5 * 0.1 + 0.2, 16.5 * -0.05 - 0.1]
        layer = LayerParams(np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]]),
                            np.array([0.5]), [Standard()],
                            activation="identity")
        net = Network([layer], np.array([[0.1, -0.05]]),
                      np.array([0.2, -0.1]), policies=[ConstraintPolicy()],
                      input_shape=(3, 2), n_classes=2)
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        logits = stack_logits(net, x[None])
        np.testing.assert_allclose(logits[0], [1.85, -0.925], atol=1e-12)
        probs = forward_network(net, x)
        want = np.exp([1.85, -0.925])
        np.testing.assert_allclose(probs, want / want.sum(), atol=1e-12)

    def test_zero_weight_classifier_is_uniform(self):
        net = tiny_net(n_classes=4)
        net.head_w[:] = 0.0
        net.head_b[:] = 0.0
        probs = forward_network(net, labeled_windows(0).windows[0])
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        net = tiny_net(seed=5, activation="tanh")
        probs = forward_network(net, labeled_windows(1, n=20).windows)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            forward_network(tiny_net(), np.zeros((5, 5)))

    def test_empty_batch(self):
        net = tiny_net(n_classes=3)
        probs = forward_network(net, np.zeros((0, 4, 3)))
        assert probs.shape == (0, 3)
        assert predict(net, np.zeros((0, 4, 3))).shape == (0,)

    @pytest.mark.parametrize("variant", NONLINEAR_VARIANTS)
    def test_reduction_at_init_logits(self, variant):
        base = tiny_net("standard", seed=7, activation="tanh")
        other = tiny_net(variant, seed=7, activation="tanh")
        x = labeled_windows(2, n=6).windows
        logits_a = stack_logits(base, x)
        logits_b = stack_logits(other, x)
        assert np.max(np.abs(logits_a - logits_b)) <= 1e-10


class TestCrossEntropy:
    def test_symmetric_two_class(self):
        assert cross_entropy(np.array([[0.0, 0.0]]), np.array([0])) \
            == pytest.approx(np.log(2.0), abs=1e-15)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, 0.0]])
        assert cross_entropy(logits, np.array([0])) == pytest.approx(0.0)
        assert cross_entropy(logits, np.array([1])) == pytest.approx(1000.0)


class TestNetworkGradients:
    def _fd_check(self, net, windows, labels, tol):
        loss0, grads = network_loss_grads(net, windows, labels)
        analytic = [g.copy() for _, g in _param_grad_pairs(net, grads)]
        params = [p for p, _ in _param_grad_pairs(net, grads)]
        h = 1e-6
        worst = 0.0
        for arr, an in zip(params, analytic):
            flat = arr.reshape(-1)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + h
                up, _ = network_loss_grads(net, windows, labels)
                flat[j] = keep - h
                dn, _ = network_loss_grads(net, windows, labels)
                flat[j] = keep
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(an.reshape(-1)[j]), 1e-6)
                worst = max(worst, abs(fd - an.reshape(-1)[j]) / denom)
        assert worst <= tol

    def test_full_gradient_matches_finite_differences(self):
        net = tiny_net("elementwise", seed=13)
        ds = labeled_windows(3, n=3)
        self._fd_check(net, ds.windows, ds.labels, tol=2e-6)

    def test_reparam_gradient_chains_through_map(self):
        pol = ConstraintPolicy(mode="reparam", kind="sigmoid")
        net = tiny_net("row_shared", seed=14, policy=pol)
        ds = labeled_windows(4, n=3)
        self._fd_check(net, ds.windows, ds.labels, tol=2e-6)

    def test_bilinear_into_full_matrix_under_sigmoid_reparam(self):
        # the layer stack of the synthetic benchmark workload, shrunk
        pol = ConstraintPolicy(mode="reparam", kind="sigmoid")
        net = build_network(
            (6, 5), 2,
            [{"variant": "bilinear", "k_h": 3, "k_w": 3, "activation": "tanh"},
             {"variant": "full_matrix", "k_h": 2, "k_w": 2,
              "out_channels": 2, "activation": "tanh"}],
            policy=pol, seed=15)
        rng = make_rng(16)
        for layer in net.layers:
            for ewm in layer.ewms:
                for arr in payload_arrays(ewm):
                    arr += rng.uniform(-0.1, 0.1, size=arr.shape)
        ds = labeled_windows(5, n=3, shape=(6, 5))
        self._fd_check(net, ds.windows, ds.labels, tol=1e-6)

    @pytest.mark.parametrize("mode", ("clip", "reparam"))
    def test_only_layers_after_the_first_carry_input_gradients(self, mode):
        # nothing reads layer 0's input gradient, so the step skips it;
        # layer 1's is the derivative of the loss through layer 1 and head
        net = build_network(
            (6, 5), 3,
            [{"variant": "elementwise", "k_h": 2, "k_w": 2,
              "activation": "tanh"},
             {"variant": "full_matrix", "k_h": 2, "k_w": 2,
              "out_channels": 2, "activation": "tanh"}],
            policy=ConstraintPolicy(mode=mode), seed=17)
        rng = make_rng(18)
        for layer in net.layers:
            for arr in payload_arrays(layer.payload):
                arr += rng.uniform(-0.1, 0.1, size=arr.shape)
        ds = labeled_windows(19, n=5, shape=(6, 5), n_classes=3)
        loss, grads = network_loss_grads(net, ds.windows, ds.labels)
        assert grads.layers[0].d_input.size == 0
        layer_0, layer_1 = (effective_layer(layer, policy) for layer, policy
                            in zip(net.layers, net.policies))
        hidden = layer_forward(ds.windows, layer_0)[..., 0]  # layer 1's input

        def loss_from(a):
            feats = layer_forward(a, layer_1).reshape(len(a), -1)
            return cross_entropy(feats @ net.head_w + net.head_b, ds.labels)
        assert loss_from(hidden) == pytest.approx(loss, rel=1e-12)
        numeric = finite_diff(loss_from, hidden)
        analytic = grads.layers[1].d_input
        assert analytic.shape == hidden.shape
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                           1e-6)
        assert (np.abs(analytic - numeric) / denom).max() <= 1e-6

    def test_single_sgd_step_decreases_loss(self):
        for seed in range(20):
            net = tiny_net("elementwise", seed=seed, activation="tanh")
            ds = labeled_windows(100 + seed, n=1)
            loss0, grads = network_loss_grads(net, ds.windows, ds.labels)
            _Sgd(1e-4).step(_param_grad_pairs(net, grads))
            loss1, _ = network_loss_grads(net, ds.windows, ds.labels)
            assert loss1 < loss0


class TestBackwardOverflow:
    def test_exponent_gradient_overflow_names_the_layer(self):
        # x^4 of 5.6e76 is finite, but d loss / d exponents overflows
        net = build_network((4, 3), 2, [{"variant": "elementwise", "k_h": 2,
                                         "k_w": 2, "activation": "identity"}],
                            seed=0)
        net.layers[0].payload.exponents[...] = 4.0
        net.layers[0].weights[...] = 1e-200
        net.head_w[:, 0] = 1.0
        net.head_w[:, 1] = -1.0
        with pytest.raises(FloatingPointError,
                           match="^layer 0: exponent gradient contains "
                                 "non-finite values$"):
            network_loss_grads(net, np.full((2, 4, 3), 5.6e76),
                               np.array([0, 1]))


class TestStepInputValidation:
    """Bad batches are a ValueError saying what is wrong, before any work."""

    @pytest.mark.parametrize("labels, match", (
        ([0, 1, -1], r"lie in \[0, 2\)"),
        ([0, 1, 2], r"lie in \[0, 2\)"),
        ([0, 1], r"batch of 3, got int64 labels of shape \(2,\)"),
        ([[0, 1, 1]], r"shape \(1, 3\)"),
        ([0.0, 1.0, 1.0], "float64 labels"),
    ))
    def test_bad_labels(self, labels, match):
        ds = labeled_windows(8, n=3)
        with pytest.raises(ValueError, match=match):
            network_loss_grads(tiny_net(), ds.windows, np.array(labels))

    @pytest.mark.parametrize("shape", ((3, 4, 4), (3, 3, 4), (4, 3)))
    def test_window_shape_mismatch(self, shape):
        with pytest.raises(ValueError, match="does not match declared input"):
            network_loss_grads(tiny_net(), np.ones(shape),
                               np.zeros(shape[0], dtype=np.int64))

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="non-empty batch of 0"):
            network_loss_grads(tiny_net(), np.zeros((0, 4, 3)),
                               np.zeros(0, dtype=np.int64))


class TestChunkedPasses:
    """Every pass runs ``EVAL_CHUNK`` windows at a time, or evaluates
    windows that share rows over their union; the result must not depend
    on it beyond summation order."""

    @staticmethod
    def perturbed(net):
        rng = make_rng(10)
        for layer in net.layers:  # channels differ, exponents off neutral
            for arr in payload_arrays(layer.payload):
                arr += rng.uniform(-0.2, 0.2, size=arr.shape)
        return net

    @classmethod
    def two_layer_net(cls, variant, mode, input_shape=(8, 6)):
        return cls.perturbed(build_network(
            input_shape, 3,
            [{"variant": variant, "k_h": 2, "k_w": 2, "activation": "tanh"},
             {"variant": variant, "k_h": 3, "k_w": 2, "out_channels": 3,
              "activation": "tanh"}],
            policy=ConstraintPolicy(mode=mode), seed=9))

    @staticmethod
    def step(net, windows, labels):
        loss, grads = network_loss_grads(net, windows, labels)
        arrays = [g for _, g in _param_grad_pairs(net, grads)]
        arrays += [b.d_input for b in grads.layers[1:]]  # layer 0 has none
        return loss, arrays, forward_network(net, windows)

    @pytest.mark.parametrize("mode", ("clip", "reparam"))
    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    def test_chunking_keeps_the_result(self, monkeypatch, variant, mode):
        net = self.two_layer_net(variant, mode)
        rng = make_rng(11)
        windows = rng.normal(size=(19, 8, 6))  # not a multiple of the chunk
        labels = rng.integers(0, 3, size=19)
        loss, arrays, probs = self.step(net, windows, labels)
        monkeypatch.setattr(training, "EVAL_CHUNK", 10**6)
        whole_loss, whole_arrays, whole_probs = self.step(net, windows, labels)
        assert loss == pytest.approx(whole_loss, rel=1e-12, abs=0)
        for a, b in zip(arrays, whole_arrays, strict=True):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-12,
                                       atol=1e-12 * np.abs(b).max())
        np.testing.assert_allclose(probs, whole_probs, rtol=1e-12, atol=0)

    def test_a_step_runs_the_chunks_of_eval_chunks(self, monkeypatch):
        # the chunk rule has one owner: a step asks ``_eval_chunks`` once,
        # for windows that continue nothing, and runs the chunks it
        # returns, here uneven ones
        net = self.two_layer_net("elementwise", "clip")
        rng = make_rng(25)
        windows = rng.normal(size=(19, 8, 6))
        labels = rng.integers(0, 3, size=19)
        loss, arrays, _ = self.step(net, windows, labels)
        chunks = [(0, 7, 0), (7, 8, 0), (8, 19, 0)]
        asked = []

        def eval_chunks(continued, stride):
            asked.append((continued, stride))
            return chunks
        monkeypatch.setattr(training, "_eval_chunks", eval_chunks)
        spied = self.kernel_calls(monkeypatch)
        chunked_loss, grads = network_loss_grads(net, windows, labels)
        ran = [x for x, _, _ in spied.forward
               if x.shape[1:] == windows.shape[1:]]  # layer 0's inputs
        assert len(asked) == 1 and asked[0][1] == 0
        np.testing.assert_array_equal(asked[0][0], np.zeros(19, dtype=bool))
        assert len(ran) == len(chunks)
        for x, (first, stop, _) in zip(ran, chunks):
            np.testing.assert_array_equal(x, windows[first:stop])
        assert chunked_loss == pytest.approx(loss, rel=1e-12, abs=0)
        for a, (_, b) in zip(arrays, _param_grad_pairs(net, grads)):
            np.testing.assert_allclose(b, a, rtol=1e-12,
                                       atol=1e-12 * np.abs(a).max())

    @staticmethod
    def built_operators(monkeypatch) -> list:
        """The variant of every payload whose ``operator`` is built."""
        built = []
        for cls in VARIANT_TYPES.values():
            def counting(self, k_h, k_w, original=cls.operator):
                built.append(self.name)
                return original(self, k_h, k_w)
            monkeypatch.setattr(cls, "operator", counting)
        return built

    @pytest.mark.parametrize("mode", ("clip", "reparam"))
    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    def test_a_pass_builds_each_operator_once(self, monkeypatch, variant,
                                              mode):
        net = self.two_layer_net(variant, mode)
        rng = make_rng(22)
        windows = rng.normal(size=(19, 8, 6))
        labels = rng.integers(0, 3, size=19)
        dense = series_set(23, 19, 2)
        built = self.built_operators(monkeypatch)
        # five chunks of windows, two dense chunks, a step of five chunks
        for run in (lambda: forward_network(net, windows),
                    lambda: forward_network(net, dense),
                    lambda: network_loss_grads(net, windows, labels)):
            built.clear()
            run()
            assert built == [variant, variant]

    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    def test_patches_are_extracted_once_per_layer_input(self, monkeypatch,
                                                        variant):
        # an exponent layer extracts the patches of the input's sign and of
        # its log-magnitude, a standard layer those of the input; the
        # backward pass reads them from the cache
        net = self.two_layer_net(variant, "clip")
        rng = make_rng(24)
        windows = rng.normal(size=(19, 8, 6))
        labels = rng.integers(0, 3, size=19)
        calls = self.kernel_calls(monkeypatch).patches
        per_chunk = 2 * (1 if variant == "standard" else 2)
        n_chunks = -(-len(windows) // training.EVAL_CHUNK)
        forward_network(net, windows)
        assert len(calls) == n_chunks * per_chunk
        calls.clear()
        network_loss_grads(net, windows, labels)
        assert len(calls) == n_chunks * per_chunk

    @staticmethod
    def cut_runs(win_len, stride):
        """Windows of a 200-row test run, with the gap its fault onset
        leaves, merged with those of a 120-row training run."""
        rng = make_rng(15)
        runs = [RawRun(rng.normal(size=(200, N_VARIABLES)), 1, "test"),
                RawRun(rng.normal(size=(120, N_VARIABLES)), 2, "train")]
        return merge_windows([make_windows(run, win_len, stride)
                              for run in runs])

    @staticmethod
    def kernel_calls(monkeypatch) -> SimpleNamespace:
        """Spy on every later call of the layer kernels, each passed its
        arguments as given. ``forward`` and ``backward`` list the calls of
        ``training.layer_forward`` and ``training.layer_backward`` as
        (input, params, shape of the feature map or of the input
        gradient), ``read`` the size of each backward call's upstream
        gradient, and ``patches`` each ``layers.extract_patches`` result
        as (k_h, k_w, nbytes). An input past layer 0 lies in a workspace
        that later calls overwrite: read its shape only."""
        spied = SimpleNamespace(forward=[], backward=[], read=[], patches=[])
        forward, backward = training.layer_forward, training.layer_backward

        def spy_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            spied.forward.append((args[0], args[1], out.shape))
            return out

        def spy_backward(*args, **kwargs):
            bundle = backward(*args, **kwargs)
            spied.backward.append((args[0], args[1], bundle.d_input.shape))
            spied.read.append(np.size(args[2]))
            return bundle

        def spy_patches(*args, **kwargs):
            out = extract_patches(*args, **kwargs)
            spied.patches.append((args[1], args[2], out.nbytes))
            return out
        monkeypatch.setattr(training, "layer_forward", spy_forward)
        monkeypatch.setattr(training, "layer_backward", spy_backward)
        # the layer kernels call it through their module's global
        monkeypatch.setattr("expconv.layers.extract_patches", spy_patches)
        return spied

    @staticmethod
    def input_shapes(spied) -> list:
        """The input shape of every ``layer_forward`` call ``spied``."""
        return [x.shape for x, _, _ in spied.forward]

    @staticmethod
    def assert_same_predictions(probs, window_by_window):
        np.testing.assert_allclose(probs, window_by_window, rtol=1e-12,
                                   atol=0)
        np.testing.assert_array_equal(probs.argmax(axis=1),
                                      window_by_window.argmax(axis=1))

    @pytest.mark.parametrize("mode", ("clip", "reparam"))
    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    def test_dense_chunks_keep_the_probabilities(self, monkeypatch, variant,
                                                 mode):
        net = self.two_layer_net(variant, mode, input_shape=(8, N_VARIABLES))
        ds = self.cut_runs(8, 2)
        window_by_window = forward_network(net, ds.windows)
        spied = self.kernel_calls(monkeypatch)
        probs = forward_network(net, ds)
        self.assert_same_predictions(probs, window_by_window)
        # 13 windows every 2 rows fill a chunk's 4 x 8 rows
        assert (1, training.EVAL_CHUNK * 8,
                N_VARIABLES) in self.input_shapes(spied)

    @pytest.mark.parametrize("stride_t, dense", [(2, True), (3, False)])
    def test_strides_must_divide_the_step(self, monkeypatch, stride_t,
                                          dense):
        # windows start every 10 rows; a union is run only where the
        # layers' time strides divide that
        net = self.perturbed(build_network(
            (24, N_VARIABLES), 3,
            [{"variant": "full_matrix", "k_h": 3, "k_w": 3,
              "stride_t": stride_t, "activation": "tanh"},
             {"variant": "elementwise", "k_h": 2, "k_w": 2,
              "out_channels": 2, "activation": "tanh"}], seed=16))
        ds = self.cut_runs(24, 10)
        window_by_window = forward_network(net, ds.windows)
        spied = self.kernel_calls(monkeypatch)
        probs = forward_network(net, ds)
        self.assert_same_predictions(probs, window_by_window)
        assert any(shape[-2] > 24
                   for shape in self.input_shapes(spied)) == dense

    def test_reordered_windows_run_on_their_own(self, monkeypatch):
        # shuffled starts: a window joins the one before it only where its
        # start is the stride after that one's
        net = self.two_layer_net("elementwise", "clip")
        ds = series_set(19, 12, 2)
        order = make_rng(20).permutation(len(ds))
        shuffled, reversed_ = (WindowedDataset.from_series(
            ds.series, ds.starts[idx], ds.labels[idx], 8, 2)
            for idx in (order, np.arange(len(ds))[::-1]))
        for batch in (shuffled, reversed_):
            self.assert_same_predictions(forward_network(net, batch),
                                         forward_network(net, batch.windows))
        spied = self.kernel_calls(monkeypatch)
        forward_network(net, reversed_)
        assert {shape[0] for shape in self.input_shapes(spied)} \
            == {training.EVAL_CHUNK}

    @staticmethod
    def dense_blocks(union, win_len, field, unit):
        """The input rows of each block of a dense group's last feature
        map: output rows [b * size, (b + 1) * size), each block's input at
        most EVAL_CHUNK * win_len rows."""
        size = (training.EVAL_CHUNK * win_len - field) // unit + 1
        rows = (len(union) - field) // unit + 1
        return [union[lo * unit:(min(lo + size, rows) - 1) * unit + field]
                for lo in range(0, rows, size)]

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.integers(30, 240), min_size=1, max_size=3),
           win_len=st.integers(1, 30), stride=st.integers(1, 45),
           split=st.sampled_from(("train", "test")),
           stride_t=st.sampled_from((1, 2)))
    def test_chunks_join_only_windows_that_continue(self, rows, win_len,
                                                    stride, split, stride_t):
        rng = make_rng(21)
        parts = [make_windows(RawRun(rng.normal(size=(n, N_VARIABLES)), 1,
                                     split), win_len, stride) for n in rows]
        ds = merge_windows(parts)
        run_of = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        # layer 0 reads k_0 rows every stride_t, layer 1 k_1 of its rows
        k_0 = min(3, win_len)
        k_1 = min(2, (win_len - k_0) // stride_t + 1)
        net = self.perturbed(build_network(
            (win_len, N_VARIABLES), 3,
            [{"variant": "elementwise", "k_h": k_0, "k_w": 2,
              "stride_t": stride_t, "activation": "tanh"},
             {"variant": "elementwise", "k_h": k_1, "k_w": 2,
              "out_channels": 2, "activation": "tanh"}], seed=26))
        field = k_0 + (k_1 - 1) * stride_t  # input rows of one output row
        dense = stride % stride_t == 0  # else every window runs on its own
        # a window continues the one before it where its start is the
        # stride after that one's, as ``forward_network`` reads the starts
        continued = (np.diff(ds.starts, prepend=ds.starts[:1]) == stride) \
            & (stride < win_len)
        chunks = training._eval_chunks(continued, stride)
        assert [c[0] for c in chunks] == [0] + [c[1] for c in chunks[:-1]]
        assert chunks[-1][1] == len(ds)
        blocks = []
        for first, stop, step in chunks:
            x = ds.windows[first:stop]
            if not step:
                assert stop - first <= training.EVAL_CHUNK
                continue
            assert step == stride < win_len and stop - first > 1
            assert len(set(run_of[first:stop])) == 1
            union = np.concatenate([x[0], x[1:, win_len - step:].reshape(
                -1, N_VARIABLES)])
            for w, window in enumerate(x):
                np.testing.assert_array_equal(
                    union[w * step:w * step + win_len], window)
            if dense:
                group = self.dense_blocks(union, win_len, field, stride_t)
                assert all(len(b) <= training.EVAL_CHUNK * win_len
                           for b in group)
                blocks += group
        if split == "train" and len(rows) == 1 and stride < win_len \
                and len(ds) > 1:
            # a training run's windows all continue one another: one group
            assert chunks == [(0, len(ds), stride)]
            if dense:
                out_rows = ((len(ds) - 1) * stride + win_len - field) \
                    // stride_t + 1
                size = (training.EVAL_CHUNK * win_len - field) // stride_t + 1
                assert len(blocks) == -(-out_rows // size)
        window_by_window = forward_network(net, ds.windows)
        ran = []
        original = training._run_stack

        def spy(x, layers, ops, caches=None):
            ran.append(x[0].tobytes())
            return original(x, layers, ops, caches)
        with mock.patch.object(training, "EVAL_WORKERS", 2), \
                mock.patch.object(training, "_run_stack", spy):
            probs = forward_network(net, ds)
        self.assert_same_predictions(probs, window_by_window)
        # each block's input runs exactly once, wherever the workers split
        runs, want = Counter(ran), Counter(b.tobytes() for b in blocks)
        assert all(runs[key] == want[key] for key in want)

    @pytest.mark.parametrize("variant", ("elementwise", "full_matrix"))
    def test_plant_set_keeps_the_predictions(self, variant):
        net = self.perturbed(build_network(
            (40, 52), 4, [{"variant": variant, "k_h": 3, "k_w": 3,
                           "out_channels": 8, "activation": "tanh"}],
            seed=17))
        ds = plant_test_set()
        self.assert_same_predictions(forward_network(net, ds),
                                     forward_network(net, ds.windows))

    def test_evaluate_runs_layer_0_once_per_input_row(self, monkeypatch,
                                                      tmp_path):
        net = build_network((40, 52), 4,
                            [{"variant": "elementwise", "k_h": 3, "k_w": 3,
                              "out_channels": 8}], seed=12)
        ds = plant_test_set()
        spied = self.kernel_calls(monkeypatch)
        evaluate(net, ds)
        # a run: 13 normal windows in one block of 158 output rows, 77
        # faulty ones (798 rows) in five blocks of 158 and one of 8
        assert len(spied.forward) == 4 * 7
        assert self.out_rows(spied) == 4 * (158 + 798) == 3824
        spied.forward.clear()  # read back from the window cache: the same
        save_windows_csv(ds, tmp_path / "windows.csv")
        evaluate(net, load_windows_csv(tmp_path / "windows.csv"))
        assert len(spied.forward) == 4 * 7
        assert self.out_rows(spied) == 3824
        spied.forward.clear()  # windows said to share no rows: one by one
        evaluate(net, WindowedDataset(ds.windows, ds.labels, 40, 40))
        assert self.out_rows(spied) == len(ds) * 38 == 13680

    def test_a_version_1_cache_evaluates_window_by_window(self, tmp_path):
        # a cache of one window a line, as the CSV writer wrote them, the
        # windows cut every 2 rows: they load back to back, so each runs
        # on its own
        net = self.two_layer_net("full_matrix", "clip")
        ds = series_set(29, 11, 2)
        lines = ["# win_len=8 channels=6 stride=2",
                 ",".join(["label"] + [f"v{i}" for i in range(8 * 6)])]
        lines += [",".join([str(k % 3)] + list(map(repr, w.ravel().tolist())))
                  for k, w in enumerate(ds.windows)]
        path = tmp_path / "v1.csv"
        path.write_text("\r\n".join(lines) + "\r\n")
        back = load_windows_csv(path)
        np.testing.assert_array_equal(back.windows, ds.windows)
        assert back.starts.tolist() == list(range(0, 11 * 8, 8))
        assert back.stride == 2
        window_by_window = np.stack([forward_network(net, w)
                                     for w in ds.windows])
        self.assert_same_predictions(forward_network(net, back),
                                     window_by_window)
        assert evaluate(net, back).accuracy == np.mean(
            window_by_window.argmax(axis=1) == back.labels)

    def test_a_split_inside_a_group_runs_no_block_twice(self, monkeypatch):
        # three runs make 21 tasks, seven a run: the caller runs tasks 0-10
        # and the helper 11-20, from the fourth block of the second run's
        # faulty group on
        net = build_network((40, 52), 4,
                            [{"variant": "elementwise", "k_h": 3, "k_w": 3,
                              "out_channels": 8}], seed=12)
        ds = plant_test_set(n_runs=3)
        assert len(ds) == 270
        monkeypatch.setattr(training, "EVAL_WORKERS", 2)
        spied = self.kernel_calls(monkeypatch)
        evaluate(net, ds)
        assert len(spied.forward) == 3 * 7
        assert self.out_rows(spied) == 3 * (158 + 798) == 2868

    @pytest.mark.parametrize("cut", ("dense", "apart"))
    def test_passes_read_slices_of_the_series(self, monkeypatch, cut):
        # a dense block's input rows, and a stacked chunk of windows that
        # lie back to back, are views of the series, not gathers
        net = build_network((40, 52), 4,
                            [{"variant": "elementwise", "k_h": 3, "k_w": 3,
                              "out_channels": 8}], seed=12)
        if cut == "dense":  # one test run: two groups, seven blocks
            ds, tasks = plant_test_set(n_runs=1), 7
        else:  # windows said to share no rows: six chunks
            rng = make_rng(28)
            ds = WindowedDataset(rng.normal(size=(22, 40, 52)),
                                 rng.integers(0, 4, size=22), 40, 40)
            tasks = 6
        views = []
        original = training._run_stack

        def spy(x, layers, ops, caches=None):
            views.append(np.shares_memory(x, ds.series))
            return original(x, layers, ops, caches)
        monkeypatch.setattr(training, "_run_stack", spy)
        evaluate(net, ds)
        assert views == [True] * tasks

    @staticmethod
    def out_rows(spied) -> int:
        """The output rows of the ``layer_forward`` calls ``spied``, a
        window's map rows counted once per window."""
        return sum(shape[0] * shape[1] for _, _, shape in spied.forward)

    @staticmethod
    def exponentials(spied) -> list:
        """M * n * N, the exponentials of each ``layer_forward`` call
        ``spied``: M output channels, n kernel positions, N output
        positions."""
        return [math.prod(shape) * params.k_h * params.k_w
                for _, params, shape in spied.forward]

    @pytest.mark.parametrize("variant", ("elementwise", "full_matrix"))
    def test_plant_evaluation_exponentials(self, monkeypatch, variant):
        # each layer-0 output row of a dense group once: 3 824 rows of 50
        # positions, 8 channels of 9 exponentials each
        net = build_network((40, 52), 4,
                            [{"variant": variant, "k_h": 3, "k_w": 3,
                              "out_channels": 8}], seed=12)
        ds = plant_test_set()
        spied = self.kernel_calls(monkeypatch)
        evaluate(net, ds)
        exps = self.exponentials(spied)
        assert len(exps) == 28
        assert sum(exps) == 8 * 9 * 3824 * 50 == 13_766_400

    @staticmethod
    def synth_stack():
        """The synth workload's network, bilinear 3x3x1 into full_matrix
        2x2x4 under sigmoid reparam, and 32 seeded windows of 40 x 52 cut
        apart."""
        net = build_network((40, 52), 2,
                            [{"variant": "bilinear", "k_h": 3, "k_w": 3},
                             {"variant": "full_matrix", "k_h": 2, "k_w": 2,
                              "out_channels": 4}],
                            policy=ConstraintPolicy(mode="reparam",
                                                    kind="sigmoid"), seed=12)
        rng = make_rng(27)
        return net, WindowedDataset(rng.normal(size=(32, 40, 52)),
                                    rng.integers(0, 2, size=32), 40, 40)

    def test_synth_stack_exponentials(self, monkeypatch):
        # the synth workload's stack on 32 windows of 40 x 52 cut apart, in
        # stacked chunks of EVAL_CHUNK windows: bilinear 3x3x1 on 38 x 50
        # positions a window, full_matrix 2x2x4 on 37 x 49
        net, ds = self.synth_stack()
        spied = self.kernel_calls(monkeypatch)
        per_chunk = [4 * 9 * 38 * 50, 4 * 4 * 4 * 37 * 49]
        for run in (lambda: evaluate(net, ds),
                    lambda: network_loss_grads(net, ds.windows, ds.labels)):
            spied.forward.clear()
            run()  # evaluate's chunks may run on two threads
            exps = self.exponentials(spied)
            assert sorted(exps) == sorted(per_chunk * 8)
            assert sum(exps) == 1_475_456

    @staticmethod
    def work(net, spied) -> list:
        """The work of the kernel calls ``spied``, per layer of ``net``
        (whose layers differ in kernel shape): kernel calls, exponentials,
        input-gradient entries computed and read, patch bytes."""
        layer_of = {(layer.k_h, layer.k_w): i
                    for i, layer in enumerate(net.layers)}
        work = [dict.fromkeys(("forward", "backward", "exponentials",
                               "d_input", "d_input_read", "patch_bytes"), 0)
                for _ in net.layers]
        for _, params, shape in spied.forward:
            entry = work[layer_of[params.k_h, params.k_w]]
            entry["forward"] += 1
            if params.variant != "standard":
                entry["exponentials"] += (math.prod(shape) * params.k_h
                                          * params.k_w)
        for (_, params, shape), read in zip(spied.backward, spied.read):
            i = layer_of[params.k_h, params.k_w]
            work[i]["backward"] += 1
            work[i]["d_input"] += math.prod(shape)
            if i + 1 < len(work):  # the upstream of layer i is the input
                work[i + 1]["d_input_read"] += read  # gradient of i + 1
        for k_h, k_w, nbytes in spied.patches:
            work[layer_of[k_h, k_w]]["patch_bytes"] += nbytes
        return work

    # The work of the benchmark's passes, per layer, in chunks of
    # EVAL_CHUNK = 4 windows: M * n * N exponentials and 2 * 8 * n * N patch
    # bytes (the sign's and the log-magnitude's) a chunk of N positions
    # for M channels of n kernel positions. The plant layer (elementwise
    # 3x3x8 on 40 x 52 windows) runs 8 chunks of 4 x 38 x 50 positions in a
    # step of 32 windows, computing no input gradient, and blocks of 3 824
    # output rows of 50 in all on plant_test_set(). The synth stack runs 8
    # chunks either way: layer 1 reads 4 x 37 x 49 positions of layer 0's
    # 4 x 38 x 50 and computes its input gradient, which layer 0's backward
    # reads in full.
    WORK = {
        ("plant", "step"): [
            {"forward": 8, "backward": 8, "exponentials": 8 * 9 * 7_600 * 8,
             "d_input": 0, "d_input_read": 0,
             "patch_bytes": 2 * 8 * 9 * 7_600 * 8}],
        ("plant", "evaluate"): [
            {"forward": 28, "backward": 0,
             "exponentials": 8 * 9 * 3_824 * 50, "d_input": 0,
             "d_input_read": 0, "patch_bytes": 2 * 8 * 9 * 3_824 * 50}],
        ("synth", "step"): [
            {"forward": 8, "backward": 8, "exponentials": 9 * 7_600 * 8,
             "d_input": 0, "d_input_read": 0,
             "patch_bytes": 2 * 8 * 9 * 7_600 * 8},
            {"forward": 8, "backward": 8, "exponentials": 4 * 4 * 7_252 * 8,
             "d_input": 7_600 * 8, "d_input_read": 7_600 * 8,
             "patch_bytes": 2 * 8 * 4 * 7_252 * 8}],
        ("synth", "evaluate"): [
            {"forward": 8, "backward": 0, "exponentials": 9 * 7_600 * 8,
             "d_input": 0, "d_input_read": 0,
             "patch_bytes": 2 * 8 * 9 * 7_600 * 8},
            {"forward": 8, "backward": 0, "exponentials": 4 * 4 * 7_252 * 8,
             "d_input": 0, "d_input_read": 0,
             "patch_bytes": 2 * 8 * 4 * 7_252 * 8}],
    }

    @pytest.mark.parametrize("workload, pass_name", sorted(WORK))
    def test_the_work_of_a_pass_is_pinned(self, monkeypatch, workload,
                                          pass_name):
        if workload == "plant":
            net, rng = plant_net(), make_rng(13)
            ds = plant_test_set()
            ds.labels %= 3  # classes of the network
            windows = rng.normal(size=(32, 40, 52))
            labels = rng.integers(0, 3, size=32)
        else:
            net, ds = self.synth_stack()
            windows, labels = ds.windows, ds.labels
        spied = self.kernel_calls(monkeypatch)
        if pass_name == "step":
            network_loss_grads(net, windows, labels)
        else:
            evaluate(net, ds)
        assert self.work(net, spied) == self.WORK[workload, pass_name]

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("pass_name",
                             ("step", "forward", "dense", "long_group",
                              "dense_dataset", "long_group_dataset"))
    def test_memory_does_not_grow_with_the_batch(self, monkeypatch,
                                                 pass_name):
        # dense and long_group pass the first n windows of a dataset to
        # ``forward_network``, the *_dataset cases to ``evaluate``
        # the plant workload's layer: elementwise 3x3x8 on 40x52 windows
        net = build_network((40, 52), 3,
                            [{"variant": "elementwise", "k_h": 3, "k_w": 3,
                              "out_channels": 8}], seed=12)
        rng = make_rng(13)
        windows = rng.normal(size=(64, 40, 52))
        labels = rng.integers(0, 3, size=64)
        if pass_name.startswith("long_group"):  # one group of 397 windows
            dense = make_windows(RawRun(rng.normal(size=(4000, 52)), 0,
                                        "train"), 40, 10)
        else:
            dense = plant_test_set()
        dense.labels %= 3  # classes of the network
        monkeypatch.setattr(training, "EVAL_WORKERS", 2)

        def run(n):
            if pass_name == "step":
                return network_loss_grads(net, windows[:n], labels[:n])
            if pass_name == "forward":
                return forward_network(net, windows[:n])
            first = WindowedDataset.from_series(
                dense.series, dense.starts[:n], dense.labels[:n], 40, 10)
            if pass_name.endswith("dataset"):
                return evaluate(net, first)
            return forward_network(net, first)
        run(8)  # warm up lazy set-up outside the measurement
        if pass_name == "step":  # serial: its chunks run one after another
            small = self.traced_peak(lambda: run(8))
        else:  # one task per worker at once, at worst both at their peaks
            # a dense block: the windows of its 3 x 40 + 40 input rows
            chunk = (training.EVAL_CHUNK if pass_name == "forward"
                     else (training.EVAL_CHUNK - 1) * 4 + 1)
            small = 2 * self.traced_peak(lambda: run(chunk))
        large = self.traced_peak(
            lambda: run(64 if pass_name in ("step", "forward")
                        else len(dense)))
        assert large < 1.25 * small, (small, large)

    @pytest.mark.parametrize("dense", (False, True))
    @pytest.mark.parametrize("n", (0, 1, training.EVAL_CHUNK + 1,
                                   5 * training.EVAL_CHUNK + 3))
    @pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
    def test_worker_count_keeps_the_probabilities(self, monkeypatch, variant,
                                                  n, dense):
        net = self.two_layer_net(variant, "clip")
        if dense:  # windows every 3 rows: dense chunks of 9 windows
            windows = series_set(14, n, 3)
        else:
            windows = make_rng(14).normal(size=(n, 8, 6))
        probs = []
        for workers in (1, 2):
            monkeypatch.setattr(training, "EVAL_WORKERS", workers)
            probs.append(forward_network(net, windows))
        assert probs[0].shape == (n, 3)
        np.testing.assert_array_equal(*probs)


class TestWorkspace:
    """A pass writes its large arrays into a workspace, one array per
    (layer, role); reusing one must change no bit and leak no array."""

    @staticmethod
    def net(kind):
        if kind == "synth_stack":  # layer 1's input gradient is read
            return build_network(
                (16, 12), 3,
                [{"variant": "bilinear", "k_h": 3, "k_w": 3},
                 {"variant": "full_matrix", "k_h": 2, "k_w": 2,
                  "out_channels": 4}],
                policy=ConstraintPolicy(mode="reparam", kind="sigmoid"),
                seed=12)
        return TestChunkedPasses.two_layer_net(kind, "clip", (16, 12))

    @staticmethod
    def grad_arrays(net, grads):
        return ([g for _, g in _param_grad_pairs(net, grads)]
                + [b.d_input for b in grads.layers])

    @staticmethod
    def buffers(workspace):
        return [a for cache in workspace for a in cache.buffers.values()]

    @pytest.mark.parametrize("kind",
                             sorted(VARIANT_TYPES) + ["synth_stack"])
    def test_a_held_workspace_changes_no_bit(self, kind):
        net = self.net(kind)
        rng = make_rng(31)
        workspace = new_workspace(net)
        # the 30-window batch ends in a 2-window chunk: shapes change and
        # come back
        for n in (32, 30, 32):
            windows = rng.normal(size=(n, 16, 12))
            labels = rng.integers(0, 3, size=n)
            loss, grads = network_loss_grads(net, windows, labels,
                                             workspace=workspace)
            fresh_loss, fresh = network_loss_grads(net, windows, labels)
            assert loss == fresh_loss
            got, want = (self.grad_arrays(net, g) for g in (grads, fresh))
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a.view(np.uint64),
                                              b.view(np.uint64))
            # every role must be written, or zeroed, before it is read
            for buf in self.buffers(workspace):
                buf.fill(np.nan)
        held = {id(buf) for buf in self.buffers(workspace)}
        network_loss_grads(net, windows, labels, workspace=workspace)
        assert {id(buf) for buf in self.buffers(workspace)} == held

    def test_no_result_lies_in_a_workspace(self, monkeypatch):
        net = self.net("synth_stack")
        rng = make_rng(32)
        # whole chunks only, so every role keeps its first chunk's array
        windows = rng.normal(size=(2 * training.EVAL_CHUNK, 16, 12))
        labels = rng.integers(0, 3, size=len(windows))
        workspace = new_workspace(net)
        _, grads = network_loss_grads(net, windows, labels,
                                      workspace=workspace)
        held = self.buffers(workspace)
        assert grads.layers[1].d_input.shape == (len(windows), 14, 10)
        arrays = self.grad_arrays(net, grads)
        layer = effective_layer(net.layers[0], net.policies[0])
        first = layer_forward(windows, layer)
        arrays += [first, layer_forward(windows[:4], layer)]
        made = []

        def spy(net):
            made.append(new_workspace(net))
            return made[-1]
        monkeypatch.setattr(training, "new_workspace", spy)
        monkeypatch.setattr(training, "EVAL_WORKERS", 2)
        arrays += [forward_network(net, windows),
                   forward_network(net, series_set(33, 30, 2, (16, 12)))]
        held += [a for w in made for a in self.buffers(w)]
        assert len(held) > len(self.buffers(workspace))
        for a in arrays:
            assert not any(np.shares_memory(a, buf) for buf in held)
        assert not np.shares_memory(arrays[-4], arrays[-3])

    def test_a_warm_step_allocates_little(self):
        # the plant step, counted from its second call: 7.78 MiB traced
        # when every chunk allocated its own arrays
        net = plant_net()
        rng = make_rng(13)
        windows = rng.normal(size=(32, 40, 52))
        labels = rng.integers(0, 3, size=32)
        workspace = new_workspace(net)
        tracemalloc.start()
        try:
            network_loss_grads(net, windows, labels, workspace=workspace)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            network_loss_grads(net, windows, labels, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 4 * 2**20, (start, peak)

    def test_evaluation_holds_one_array_per_role(self, monkeypatch):
        # plant_test_set runs 158-row blocks and, once a run, an 8-row one;
        # the 8-row block's arrays (0.36 MiB) must replace the 158-row
        # ones, not join them
        monkeypatch.setattr(training, "EVAL_WORKERS", 1)
        net = plant_net()
        ds = plant_test_set()
        ds.labels %= 3
        evaluate(net, ds)
        peak = TestChunkedPasses.traced_peak(lambda: evaluate(net, ds))
        n, patches, rows, features = 9, 158 * 50, 158 + 2 * 37, 50 * 8
        block = 8 * (160 * 52  # the block's input rows
                     + 3 * n * patches  # sign, log|x|, powered values
                     + 8 * patches  # pre-activations
                     + rows * features)  # the head's padded map
        assert peak <= block + 2**18, (block, peak)

    @pytest.mark.parametrize("variant", ("elementwise", "full_matrix"))
    def test_worker_count_keeps_the_plant_probabilities(self, monkeypatch,
                                                        variant):
        net = TestChunkedPasses.perturbed(plant_net(variant))
        ds = plant_test_set()
        probs = []
        for workers in (1, 2):
            monkeypatch.setattr(training, "EVAL_WORKERS", workers)
            probs.append(forward_network(net, ds))
        np.testing.assert_array_equal(probs[0].view(np.uint64),
                                      probs[1].view(np.uint64))


class TestOptimizers:
    @staticmethod
    def pairs(seed):
        rng = make_rng(seed)  # the plant head's shape, and a small tensor
        params = [rng.normal(size=(15200, 3)), rng.normal(size=8)]
        return [(p, rng.normal(size=p.shape)) for p in params]

    @pytest.mark.parametrize("optimizer", training.OPTIMIZERS)
    def test_a_step_matches_the_formula_bit_for_bit(self, optimizer):
        config = TrainConfig(optimizer=optimizer, learning_rate=0.003)
        opt = training.make_optimizer(config)
        pairs = self.pairs(40)
        want = [p.copy() for p, _ in pairs]
        m = [np.zeros_like(p) for p in want]
        v = [np.zeros_like(p) for p in want]
        lr, b1, b2, eps = (config.learning_rate, config.beta1, config.beta2,
                           config.adam_eps)
        for t in range(1, 4):
            opt.step(pairs)
            for k, (_, grad) in enumerate(pairs):
                if optimizer == "sgd":
                    want[k] -= lr * grad
                    continue
                m[k] = b1 * m[k] + (1.0 - b1) * grad
                v[k] = b2 * v[k] + (1.0 - b2) * grad * grad
                want[k] -= lr * (m[k] / (1.0 - b1 ** t)) / (
                    np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
            for (param, _), w in zip(pairs, want):
                np.testing.assert_array_equal(param.view(np.uint64),
                                              w.view(np.uint64))

    @pytest.mark.parametrize("optimizer", training.OPTIMIZERS)
    def test_a_later_step_allocates_no_tensor(self, optimizer):
        opt = training.make_optimizer(TrainConfig(optimizer=optimizer))
        pairs = self.pairs(41)
        opt.step(pairs)
        peak = TestChunkedPasses.traced_peak(lambda: opt.step(pairs))
        assert peak < pairs[0][0].nbytes // 8, peak


class TestEvalHelper:
    """``forward_network`` on two workers: of six chunks, the caller runs
    chunks 0-2 and the helper thread chunks 3-5. The chunks are four
    windows each, or, ``dense``, four windows one row apart evaluated over
    their union."""

    @pytest.fixture
    def chunks(self, monkeypatch):
        """Replace each chunk's conv stack with ``chunks.body(k)`` followed
        by the real one, on windows that carry their chunk number k; record
        the chunks that started and finished and the shapes they ran on."""
        monkeypatch.setattr(training, "EVAL_WORKERS", 2)
        original = training._run_stack
        record = SimpleNamespace(started=[], finished=[], shapes=[],
                                 body=lambda k: None)

        def run_stack(x, layers, ops, caches=None):
            k = int(x[0, 0, 0])
            record.started.append(k)
            record.shapes.append(x.shape)
            try:
                record.body(k)
                return original(x, layers, ops, caches)
            finally:
                record.finished.append(k)
        monkeypatch.setattr(training, "_run_stack", run_stack)
        return record

    @staticmethod
    def chunked_windows(n_chunks, dense):
        """The windows of ``n_chunks`` chunks, whose every row holds their
        chunk number k: an array, or, ``dense``, a dataset whose chunks are
        runs of windows one row apart, so they continue one another, and
        chunks do not."""
        n = n_chunks * training.EVAL_CHUNK
        if not dense:
            k = np.arange(n) // training.EVAL_CHUNK
            return np.broadcast_to(k[:, None, None], (n, 4, 3)).astype(float)
        rows = 3 + training.EVAL_CHUNK  # of a chunk's union
        series = np.repeat(np.arange(n_chunks, dtype=float), rows)
        starts = np.arange(n) + np.arange(n) // training.EVAL_CHUNK * 3
        return WindowedDataset.from_series(
            np.broadcast_to(series[:, None], (len(series), 3)), starts,
            np.zeros(n, dtype=np.int64), 4, 1)

    @staticmethod
    def assert_chunk_shapes(chunks, dense):
        want = (1, 3 + training.EVAL_CHUNK, 3) if dense \
            else (training.EVAL_CHUNK, 4, 3)
        assert set(chunks.shapes) == {want}

    @pytest.mark.parametrize("dense", (False, True))
    @pytest.mark.parametrize("lagging", ("caller", "helper"))
    @pytest.mark.parametrize("failing, raised", [
        ({1, 2}, 1), ({2, 3}, 2), ({0, 5}, 0), ({4}, 4), ({5}, 5)])
    def test_earliest_failing_chunk_raises(self, chunks, lagging, failing,
                                           raised, dense):
        # {2, 3} with the caller lagging: the helper fails first in time,
        # but chunk 2 comes first in a serial loop
        def body(k):
            if (k < 3) == (lagging == "caller"):
                time.sleep(0.005)
            if k in failing:
                raise FloatingPointError(f"chunk {k}")
        chunks.body = body
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(FloatingPointError, match=f"^chunk {raised}$"):
                forward_network(tiny_net(), self.chunked_windows(6, dense))
        finally:
            sys.setswitchinterval(interval)
        self.assert_chunk_shapes(chunks, dense)
        assert sorted(chunks.started) == sorted(chunks.finished)
        assert set(range(raised + 1)) <= set(chunks.started)
        # the caller's half stops at its first failure
        assert not set(range(raised + 1, 3)) & set(chunks.started)

    @pytest.mark.parametrize("dense", (False, True))
    @pytest.mark.parametrize("error", (FloatingPointError, KeyboardInterrupt))
    def test_failure_waits_for_the_helper(self, chunks, error, dense):
        helper_busy = threading.Event()

        def body(k):
            if k == 0:  # fail while the helper is inside chunk 3
                assert helper_busy.wait(timeout=10)
                raise error("chunk 0")
            helper_busy.set()
            time.sleep(0.05)
        chunks.body = body
        with pytest.raises(error, match="chunk 0"):
            forward_network(tiny_net(), self.chunked_windows(6, dense))
        self.assert_chunk_shapes(chunks, dense)
        # chunk 3 finished before the call returned; no other chunk ran
        assert sorted(chunks.started) == sorted(chunks.finished) == [0, 3]

    def test_caller_errstate_holds_in_the_helper(self, monkeypatch):
        monkeypatch.setattr(training, "EVAL_WORKERS", 2)
        net = tiny_net(seed=34)
        net.head_w[:] = np.array([[1e308, -1e308]] * net.n_features)
        windows = labeled_windows(11, n=2 * training.EVAL_CHUNK).windows
        with pytest.raises(RuntimeWarning):  # tier-1 makes warnings errors
            forward_network(net, windows[training.EVAL_CHUNK:])
        with np.errstate(over="ignore", invalid="ignore"):
            forward_network(net, windows)  # the helper runs the second half


class TestTrainLoop:
    def test_train_and_evaluate_read_the_series(self, monkeypatch):
        # neither gathers a dataset's window array: a batch is gathered
        # from the series, and evaluation reads slices of it
        train_set, test_set = plant_test_set(n_runs=2), plant_test_set()
        net = build_network((40, 52), 4,
                            [{"variant": "elementwise", "k_h": 3, "k_w": 3}],
                            seed=12)
        reads = []
        monkeypatch.setattr(WindowedDataset, "windows",
                            property(lambda ds: reads.append(len(ds))))
        config = TrainConfig(epochs=1, batch_size=32, seed=3, augments=(
            AugmentSpec("flip_lr", probability=0.5),))
        train(net, train_set, config, eval_dataset=test_set)
        evaluate(net, test_set)
        assert reads == []

    def test_zero_epochs_is_a_no_op(self):
        net = tiny_net(seed=20)
        before = params_bytes(net)
        _, history = train(net, labeled_windows(5),
                           TrainConfig(epochs=0))
        assert history == []
        assert params_bytes(net) == before

    def test_loss_trend_decreases_on_learnable_task(self):
        task = gen_synthetic(win_len=6, channels=3, exponent=2.0,
                             noise=0.05, count=80, seed=40)
        ds = task.as_windowed()
        net = build_network((6, 3), 2,
                            [{"variant": "elementwise", "k_h": 2, "k_w": 2,
                              "activation": "tanh"}], seed=41)
        _, history = train(net, ds, TrainConfig(epochs=14, batch_size=16,
                                                learning_rate=1e-2, seed=42,
                                                eval_every=14))
        losses = [rec["loss"] for rec in history]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_clip_projection_bounds_exponents_after_training(self):
        net = tiny_net("elementwise", seed=22)
        config = TrainConfig(epochs=3, batch_size=4, learning_rate=0.5,
                             optimizer="sgd", seed=23, eval_every=3)
        train(net, labeled_windows(6, n=16), config)
        for layer, policy in zip(net.layers, net.policies):
            for ewm in layer.ewms:
                for arr in payload_arrays(effective_payload(ewm, policy)):
                    assert arr.max() <= policy.v_max
                    assert arr.min() >= policy.v_min

    def test_reparam_training_never_leaves_bounds(self):
        pol = ConstraintPolicy(mode="reparam", kind="tanh")
        net = tiny_net("elementwise", seed=24, policy=pol)
        config = TrainConfig(epochs=3, batch_size=4, learning_rate=0.5,
                             optimizer="sgd", seed=25, eval_every=3)
        train(net, labeled_windows(7, n=16), config)
        for ewm in net.layers[0].ewms:
            for arr in payload_arrays(effective_payload(ewm, pol)):
                assert arr.max() <= pol.v_max and arr.min() >= pol.v_min

    def test_deterministic_across_runs(self):
        augments = (AugmentSpec("flip_lr", probability=0.5),
                    AugmentSpec("exp_augment", probability=0.5,
                                lo=0.8, hi=1.2))
        config = TrainConfig(epochs=4, batch_size=8, seed=31,
                             augments=augments, eval_every=2)
        results = []
        for _ in range(2):
            net = tiny_net(seed=30, activation="tanh")
            _, history = train(net, labeled_windows(8, n=24), config)
            results.append((params_bytes(net), history))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_policy_mismatch_rejected(self):
        net = tiny_net(seed=32)  # built under the default clip policy
        config = TrainConfig(
            epochs=1, policy=ConstraintPolicy(mode="reparam"))
        with pytest.raises(ValueError, match="policy"):
            train(net, labeled_windows(9), config)

    def test_matching_policy_accepted(self):
        pol = ConstraintPolicy(mode="reparam", kind="sigmoid")
        net = tiny_net(seed=33, policy=pol)
        _, history = train(net, labeled_windows(10),
                           TrainConfig(epochs=1, policy=pol))
        assert len(history) == 1

    def test_non_finite_loss_reported_with_location(self):
        net = tiny_net(seed=34)
        net.head_w[:] = np.array([[1e308, -1e308]] * net.n_features)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="epoch 0"):
                train(net, labeled_windows(11), TrainConfig(epochs=1))

    def test_empty_dataset_rejected(self):
        empty = WindowedDataset(np.zeros((0, 4, 3)), np.zeros(0),
                                win_len=4, stride=4)
        with pytest.raises(ValueError):
            train(tiny_net(), empty, TrainConfig(epochs=1))

    def test_history_evaluation_cadence(self):
        net = tiny_net(seed=35)
        _, history = train(net, labeled_windows(12),
                           TrainConfig(epochs=3, eval_every=2))
        assert "accuracy" not in history[0]
        assert "accuracy" in history[1]  # epoch 1: (1+1) % 2 == 0
        assert "accuracy" in history[2]  # final epoch always evaluated


class TestTrainConfigValidation:
    def test_negative_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    def test_beta_range(self):
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)

    @pytest.mark.parametrize("field", ["learning_rate", "adam_eps"])
    def test_nan_rate_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: float("nan")})

    def test_augment_type_checked(self):
        with pytest.raises(TypeError):
            TrainConfig(augments=({"op": "flip_lr"},))


class TestEvaluate:
    @staticmethod
    def sign_net():
        # 1x1 standard unit with weight 1 feeding head [-1, +1]: argmax is
        # class 1 exactly when the (single) input value is positive
        layer = LayerParams(np.ones((1, 1, 1)), np.zeros(1), [Standard()],
                            activation="identity")
        return Network([layer], np.array([[-1.0, 1.0]]), np.zeros(2),
                       policies=[ConstraintPolicy()], input_shape=(1, 1),
                       n_classes=2)

    @staticmethod
    def sign_dataset(n=20, seed=50, flip_labels=False):
        rng = make_rng(seed)
        values = rng.uniform(0.5, 2.0, size=n) * np.where(
            np.arange(n) % 2 == 0, 1.0, -1.0)
        labels = (values > 0).astype(np.int64)
        if flip_labels:
            labels = 1 - labels
        return WindowedDataset(values[:, None, None], labels,
                               win_len=1, stride=1)

    def test_perfect_predictor(self):
        m = evaluate(self.sign_net(), self.sign_dataset())
        assert m.accuracy == 1.0
        assert m.false_alarm == 0.0
        np.testing.assert_array_equal(m.detection, [1.0, 1.0])

    def test_always_wrong_predictor(self):
        m = evaluate(self.sign_net(), self.sign_dataset(flip_labels=True))
        assert m.accuracy == 0.0
        assert m.false_alarm == 1.0

    def test_constant_predictor_on_balanced_set(self):
        net = self.sign_net()
        net.head_w[:] = 0.0
        net.head_b[:] = [0.0, 1.0]  # always predicts class 1
        m = evaluate(net, self.sign_dataset(n=20))
        assert m.accuracy == 0.5
        assert m.false_alarm == 1.0
        np.testing.assert_array_equal(m.detection, [0.0, 1.0])

    def test_confusion_totals(self):
        ds = self.sign_dataset(n=17)
        m = evaluate(self.sign_net(), ds)
        assert int(m.confusion.sum()) == 17
        for k in range(2):
            assert int(m.confusion[k].sum()) == int(np.sum(ds.labels == k))

    def test_detection_zero_for_absent_class(self):
        ds = self.sign_dataset(n=10)
        only_normal = WindowedDataset(ds.windows[ds.labels == 0],
                                      ds.labels[ds.labels == 0],
                                      win_len=1, stride=1)
        m = evaluate(self.sign_net(), only_normal)
        assert m.detection[1] == 0.0
        assert m.false_alarm == 0.0

    def test_empty_dataset_rejected(self):
        empty = WindowedDataset(np.zeros((0, 1, 1)), np.zeros(0),
                                win_len=1, stride=1)
        with pytest.raises(ValueError):
            evaluate(self.sign_net(), empty)

    @pytest.mark.parametrize("bad", (-1, 2))
    def test_labels_outside_the_classes_rejected(self, bad):
        # of two classes: -1 would be counted as class 1, and 2 would
        # index past the confusion matrix
        ds = self.sign_dataset(n=5)
        labels = np.array([0, 1, bad, 1, 0])
        with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
            evaluate(self.sign_net(),
                     WindowedDataset(ds.windows, labels, win_len=1, stride=1))

    def test_predict_chunks_large_batches(self):
        ds = self.sign_dataset(n=600)
        preds = predict(self.sign_net(), ds.windows)
        np.testing.assert_array_equal(preds, ds.labels)


class TestHistoryCsv:
    def test_layout_and_blanks(self, tmp_path):
        net = tiny_net(seed=36)
        _, history = train(net, labeled_windows(13),
                           TrainConfig(epochs=3, eval_every=2))
        path = tmp_path / "metrics.csv"
        write_history_csv(history, path, n_classes=2)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy,false_alarm,det_0,det_1"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "" and first[3] == ""
        last = lines[3].split(",")
        assert last[0] == "2" and last[2] != ""
        # loss values survive a text round trip exactly
        assert float(first[1]) == history[0]["loss"]


class TestModelFormat:
    @pytest.mark.parametrize("variant", ["standard", "elementwise",
                                         "bilinear"])
    def test_round_trip_exact(self, tmp_path, variant):
        pol = ConstraintPolicy(mode="reparam", kind="tanh") \
            if variant == "elementwise" else None
        net = tiny_net(variant, seed=60, policy=pol, out_channels=2,
                       activation="tanh")
        path = tmp_path / "model.bin"
        save_model(net, path)
        back = load_model(path)
        for a, b in zip(network_param_arrays(net),
                        network_param_arrays(back)):
            np.testing.assert_array_equal(a, b)
        assert back.input_shape == net.input_shape
        assert back.policies == net.policies
        assert back.layers[0].activation == "tanh"
        x = labeled_windows(14, n=4).windows
        np.testing.assert_array_equal(forward_network(net, x),
                                      forward_network(back, x))

    def test_resave_is_byte_identical(self, tmp_path):
        net = tiny_net("full_matrix", seed=61)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(net, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_bad_version_rejected(self, tmp_path):
        net = tiny_net(seed=62)
        path = tmp_path / "model.bin"
        save_model(net, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_trailing_data_rejected(self, tmp_path):
        net = tiny_net(seed=63)
        path = tmp_path / "model.bin"
        save_model(net, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        net = tiny_net(seed=64)
        path = tmp_path / "model.bin"
        save_model(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_oversized_metadata_length_rejected(self, tmp_path):
        net = tiny_net(seed=66)
        path = tmp_path / "model.bin"
        save_model(net, path)
        blob = bytearray(path.read_bytes())
        blob[8:16] = (2 ** 62).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="metadata length"):
            load_model(path)

    @staticmethod
    def rewrite_metadata(path, edit):
        blob = path.read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        meta = json.loads(blob[16:16 + meta_len])
        edit(meta)
        new_meta = json.dumps(meta).encode()
        path.write_bytes(blob[:8] + struct.pack("<Q", len(new_meta))
                         + new_meta + blob[16 + meta_len:])

    def test_missing_metadata_key_rejected(self, tmp_path):
        net = tiny_net(seed=67)
        path = tmp_path / "model.bin"
        save_model(net, path)
        self.rewrite_metadata(path, lambda m: m["layers"][0].pop("stride_t"))
        with pytest.raises(ValueError, match="stride_t"):
            load_model(path)

    def test_tensor_shapes_must_match_layer_spec(self, tmp_path):
        # a 2x3 kernel on a 4x4 input and a 3x2 one both give six features,
        # so transposed tensor shapes would otherwise load as a 3x2 kernel
        net = tiny_net(seed=68, input_shape=(4, 4), k=(2, 3))
        path = tmp_path / "model.bin"
        save_model(net, path)

        def transpose_kernel(meta):
            meta["tensor_shapes"][0] = [1, 3, 2]
            meta["tensor_shapes"][2] = [3, 2]
        self.rewrite_metadata(path, transpose_kernel)
        with pytest.raises(ValueError, match="layer 0: weights shape"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("stride_t", 1.0), ("k_h", 2.0), ("out_channels", True),
        ("n_classes", 2.0), ("input_shape", [4.0, 3])])
    def test_sizes_must_be_integers(self, tmp_path, field, value):
        # a float size loads and crashes later, in extract_patches or evaluate
        path = tmp_path / "model.bin"
        save_model(tiny_net(seed=69), path)

        def set_size(meta):
            (meta if field in meta else meta["layers"][0])[field] = value
        self.rewrite_metadata(path, set_size)
        with pytest.raises(ValueError, match=f"{field}.* must be an integer"):
            load_model(path)

    @pytest.mark.parametrize("mode", ["clip"])
    def test_exponents_outside_tightened_bounds_rejected(self, tmp_path,
                                                         mode):
        path = tmp_path / "model.bin"
        shutil.copy(FIXTURE_DIR / "model_elementwise_clip.bin", path)
        load_model(path)  # as written, every exponent is in bounds

        def tighten(meta):
            meta["layers"][1]["policy"].update(mode=mode, v_max=1.05)
        self.rewrite_metadata(path, tighten)
        with pytest.raises(ValueError,
                           match=r"layer 1: stored exponents .*1\.05"):
            load_model(path)

    def test_project_mode_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        shutil.copy(FIXTURE_DIR / "model_elementwise_clip.bin", path)
        self.rewrite_metadata(
            path, lambda m: m["layers"][0]["policy"].update(mode="project"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             "mode must be one of"):
            load_model(path)

    @pytest.mark.parametrize("name, value", [("head_w", np.nan),
                                             ("head_b", np.inf)])
    def test_non_finite_head_rejected(self, tmp_path, name, value):
        net = tiny_net(seed=71)
        getattr(net, name)[0] = value
        path = tmp_path / "model.bin"
        save_model(net, path)
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}: {name} contains "
                                 "non-finite"):
            load_model(path)

    def test_reparam_values_rejected_after_a_mode_edit(self, tmp_path):
        net = tiny_net(seed=70, policy=ConstraintPolicy(mode="reparam"))
        net.layers[0].ewms[0].exponents[0, 1] = 9.0  # unconstrained value
        path = tmp_path / "model.bin"
        save_model(net, path)
        load_model(path)
        self.rewrite_metadata(
            path, lambda m: m["layers"][0]["policy"].update(mode="clip"))
        with pytest.raises(ValueError, match="layer 0: stored exponents"):
            load_model(path)

    @pytest.mark.parametrize("where, edit", [
        ("layer 0", lambda m: m["layers"][0].update(stride=2,
                                                    activaton="relu")),
        ("layer 1 policy", lambda m: m["layers"][1]["policy"].update(eps=0)),
        ("metadata", lambda m: m.update(activaton="relu", stride=2)),
    ], ids=("layer", "policy", "top"))
    def test_unknown_metadata_key_rejected(self, tmp_path, where, edit):
        # a key load_model does not read would load as if it were absent
        path = tmp_path / "model.bin"
        shutil.copy(FIXTURE_DIR / "model_elementwise_clip.bin", path)
        self.rewrite_metadata(path, edit)
        with pytest.raises(ValueError, match=f"{where}: unknown keys "
                                             r"\['(activaton|eps)'"):
            load_model(path)

    def test_unread_tensor_rejected(self, tmp_path):
        # one more declared tensor with its bytes keeps the lengths right
        path = tmp_path / "model.bin"
        shutil.copy(FIXTURE_DIR / "model_elementwise_clip.bin", path)
        self.rewrite_metadata(path, lambda m: m["tensor_shapes"].append([3]))
        path.write_bytes(path.read_bytes() + np.ones(3).tobytes())
        with pytest.raises(ValueError, match="tensor_shapes declares"):
            load_model(path)

    def test_clip_network_with_clamped_init_loads(self, tmp_path):
        # v_min > 0 clamps an identity's zeros at init, so an untrained
        # mixing network saves and loads under its bounds
        pol = ConstraintPolicy(v_min=0.5, v_max=4.0)
        net = tiny_net("bilinear", seed=71, policy=pol, out_channels=2)
        path = tmp_path / "model.bin"
        save_model(net, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.layers[0].payload.row_mix,
                                      net.layers[0].payload.row_mix)

    def test_param_array_order(self):
        net = tiny_net("bilinear", seed=65, out_channels=2)
        arrays = network_param_arrays(net)
        # weights, biases, two mixes per channel, head weights, head bias
        assert len(arrays) == 2 + 2 * 2 + 2
        assert arrays[0].shape == (2, 2, 2)
        assert arrays[-1].shape == (2,)
