"""The benchmark's tracer wraps library functions by module attribute and
reads their arguments and results; a training step run under it must
still work and report no recomputed pre-activations."""

import sys
from pathlib import Path

import numpy as np
import pytest

from expconv import training
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
