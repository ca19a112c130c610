"""Network assembly, forward/backward through the classifier head, the
optimizers, the training loop with constraint enforcement, evaluation
metrics, and the binary model format."""

import json
import re
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from expconv import training
from expconv.augment import AugmentSpec
from expconv.constraints import ConstraintPolicy, effective_payload, payload_arrays
from expconv.dataset import WindowedDataset, gen_synthetic
from expconv.layers import VARIANT_TYPES, LayerParams, Standard
from expconv.numerics import make_rng
from expconv.training import (
    Network,
    TrainConfig,
    _forward_trace,
    _param_grad_pairs,
    _Sgd,
    build_network,
    cross_entropy,
    evaluate,
    forward_network,
    load_model,
    network_loss_grads,
    network_param_arrays,
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


def params_bytes(net):
    return b"".join(a.tobytes() for a in network_param_arrays(net))


class TestNetworkConstruction:
    def test_intermediate_layers_must_be_single_channel(self):
        specs = [{"variant": "standard", "k_h": 2, "k_w": 2,
                  "out_channels": 3},
                 {"variant": "standard", "k_h": 1, "k_w": 1}]
        with pytest.raises(ValueError, match="one channel"):
            build_network((4, 3), 2, specs)

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
        _, _, _, logits = _forward_trace(net, x[None])
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
        _, _, _, logits_a = _forward_trace(base, x)
        _, _, _, logits_b = _forward_trace(other, x)
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

    def test_single_sgd_step_decreases_loss(self):
        for seed in range(20):
            net = tiny_net("elementwise", seed=seed, activation="tanh")
            ds = labeled_windows(100 + seed, n=1)
            loss0, grads = network_loss_grads(net, ds.windows, ds.labels)
            _Sgd(1e-4).step(_param_grad_pairs(net, grads))
            loss1, _ = network_loss_grads(net, ds.windows, ds.labels)
            assert loss1 < loss0


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
    """Every pass runs ``EVAL_CHUNK`` windows at a time; the result must not
    depend on it beyond summation order."""

    @staticmethod
    def two_layer_net(variant, mode):
        net = build_network(
            (8, 6), 3,
            [{"variant": variant, "k_h": 2, "k_w": 2, "activation": "tanh"},
             {"variant": variant, "k_h": 3, "k_w": 2, "out_channels": 3,
              "activation": "tanh"}],
            policy=ConstraintPolicy(mode=mode), seed=9)
        rng = make_rng(10)
        for layer in net.layers:  # channels differ, exponents off neutral
            for arr in payload_arrays(layer.payload):
                arr += rng.uniform(-0.2, 0.2, size=arr.shape)
        return net

    @staticmethod
    def step(net, windows, labels):
        loss, grads = network_loss_grads(net, windows, labels)
        arrays = [g for _, g in _param_grad_pairs(net, grads)]
        arrays += [b.d_input for b in grads.layers]
        return loss, arrays, forward_network(net, windows)

    @pytest.mark.parametrize("mode", ("clip", "project", "reparam"))
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

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("pass_name", ("step", "forward"))
    def test_memory_does_not_grow_with_the_batch(self, pass_name):
        # the plant workload's layer: elementwise 3x3x8 on 40x52 windows
        net = build_network((40, 52), 3,
                            [{"variant": "elementwise", "k_h": 3, "k_w": 3,
                              "out_channels": 8}], seed=12)
        rng = make_rng(13)
        windows = rng.normal(size=(64, 40, 52))
        labels = rng.integers(0, 3, size=64)

        def run(n):
            if pass_name == "step":
                return network_loss_grads(net, windows[:n], labels[:n])
            return forward_network(net, windows[:n])
        run(8)  # warm up lazy set-up outside the measurement
        small = self.traced_peak(lambda: run(8))
        large = self.traced_peak(lambda: run(64))
        assert large < 1.25 * small, (small, large)


class TestTrainLoop:
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

    @pytest.mark.parametrize("mode", ["clip", "project"])
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
