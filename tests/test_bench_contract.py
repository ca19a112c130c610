"""The benchmark's tracer wraps library functions by module attribute and
reads their arguments and results; a training step run under it must
still work and report no recomputed pre-activations. Its output check
rebuilds layers from per-channel payloads and compares them with the
single-receptive-field oracle, which must agree for every variant."""

import sys
from pathlib import Path

import numpy as np
import pytest

from expconv import training
from expconv.constraints import ConstraintPolicy
from expconv.layers import VARIANT_TYPES, payload_arrays
from expconv.numerics import make_rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench as module
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_training_step(bench):
    tr = bench.make_tracer()  # looks up every wrapped attribute
    net = training.build_network(
        (6, 5), 3,
        [{"variant": "elementwise", "k_h": 2, "k_w": 2, "activation": "tanh"},
         {"variant": "full_matrix", "k_h": 2, "k_w": 2, "out_channels": 2,
          "activation": "tanh"}], seed=0)
    rng = make_rng(1)
    x = rng.normal(size=(4, 6, 5))
    y = rng.integers(0, 3, size=4)
    with tr.root("op.train"):
        loss, grads = training.network_loss_grads(net, x, y)
    assert np.isfinite(loss)
    [(root, totals)] = tr.root_totals()
    assert root == "op.train"
    assert totals["layers.layer_forward.calls"] == 2
    assert totals["gradients.layer_backward.calls"] == 2
    assert totals.get("gradients.layer_backward.preacts_recomputed", 0) == 0
    assert totals["layers.layer_forward.train_preacts"] > 0
    # every layer's input gradient is a full array shaped like its input
    assert grads.layers[0].d_input.shape == x.shape
    assert grads.layers[1].d_input.shape == (4, 5, 4)
    assert totals["gradients.layer_backward.d_input_computed"] == (
        x.size + 4 * 5 * 4)


@pytest.mark.parametrize("mode", ("clip", "reparam"))
@pytest.mark.parametrize("variant", sorted(VARIANT_TYPES))
def test_oracle_agrees_with_every_variant(bench, variant, mode):
    policy = ConstraintPolicy(mode=mode)
    net = training.build_network(
        (8, 6), 2,
        [{"variant": variant, "k_h": 2, "k_w": 2, "activation": "tanh"},
         {"variant": variant, "k_h": 3, "k_w": 2, "out_channels": 3,
          "activation": "relu"}], policy=policy, seed=0)
    rng = make_rng(2)
    for layer in net.layers:  # channels differ, exponents off neutral
        for ewm in layer.ewms:
            for arr in payload_arrays(ewm):
                arr += rng.uniform(-0.3, 0.3, size=arr.shape)
    x = rng.normal(size=(4, 8, 6))
    assert bench.oracle_mismatches(net, x, make_rng(3)) == 0
