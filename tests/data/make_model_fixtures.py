"""Write the saved-model fixtures that pin the EXPC file format.

Each fixture is a two-layer network trained for one epoch on a small
synthetic task, saved with ``save_model``, plus its ``forward_network``
probabilities on fixed windows (``model_probs.npz``). The files were
written once and are compared against by ``tests/test_model_format.py``,
which checks that each loads and re-saves to its own bytes and gives the
recorded probabilities within 1e-12; it does not retrain.
``tests/test_scripts.py`` runs this script into a temporary directory:
each file it writes must load and re-save to its own bytes, carry the
checked-in file's header and metadata bytes, and give probabilities within
1e-12 of ``model_probs.npz``.

A rerun is deterministic: two runs of the same code write the same bytes,
so comparing the output of two versions shows whether a change moved
training. A rerun does not reproduce the checked-in files: training's
summation order has changed since they were written, which moves every
file's parameters and probabilities by up to about 1.1e-13.

Usage: PYTHONPATH=src python tests/data/make_model_fixtures.py [OUT_DIR]
"""

import os
import sys

import numpy as np

from expconv.constraints import ConstraintPolicy
from expconv.dataset import gen_synthetic
from expconv.training import TrainConfig, build_network, forward_network, save_model, train

VARIANTS = ("standard", "elementwise", "row_shared", "col_shared",
            "bilinear", "full_matrix")
FIXTURES = [(variant, "clip") for variant in VARIANTS] + [
    ("elementwise", "reparam"), ("bilinear", "reparam")]
INPUT_SHAPE = (8, 5)


def fixture_name(variant: str, mode: str) -> str:
    return f"model_{variant}_{mode}.bin"


def build_fixture(variant: str, mode: str):
    """The trained network of one fixture."""
    policy = ConstraintPolicy(mode=mode)
    specs = [{"variant": variant, "k_h": 2, "k_w": 2, "activation": "tanh"},
             {"variant": variant, "k_h": 3, "k_w": 2, "out_channels": 2,
              "activation": "tanh"}]
    net = build_network(INPUT_SHAPE, 2, specs, policy=policy, seed=3)
    task = gen_synthetic(win_len=INPUT_SHAPE[0], channels=INPUT_SHAPE[1],
                         count=48, seed=5)
    config = TrainConfig(epochs=1, batch_size=16, learning_rate=0.05,
                         seed=7, policy=policy)
    net, _ = train(net, task, config)
    return net


def probe_windows() -> np.ndarray:
    return gen_synthetic(win_len=INPUT_SHAPE[0], channels=INPUT_SHAPE[1],
                         count=6, seed=11).windows


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    windows = probe_windows()
    probs = {}
    for variant, mode in FIXTURES:
        name = fixture_name(variant, mode)
        net = build_fixture(variant, mode)
        save_model(net, os.path.join(out_dir, name))
        probs[name] = forward_network(net, windows)
    np.savez(os.path.join(out_dir, "model_probs.npz"), windows=windows,
             **probs)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__))
