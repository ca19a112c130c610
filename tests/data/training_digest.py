"""Print two SHA-256 digests that pin the numerics of training and of the
gradient checks.

* ``training``: the saved ``model.bin`` bytes and the per-epoch history of
  36 networks, every variant under clip, project and reparam, each
  trained with Adam and with SGD. Every network has two layers (the
  second with three output channels) and trains for two epochs on a small
  synthetic task.
* ``gradcheck``: the ``to_text`` report of ``grad_check`` on every
  ``make_check_instance`` output (every variant x ``CHECK_KERNELS`` x
  seeds 0-49, 900 instances).

A change that is meant to leave the numerics alone must leave both
digests as they were; run the script before and after it and compare.

Usage: PYTHONPATH=src python tests/data/training_digest.py
"""

import hashlib
import json
import os
import tempfile

from expconv.constraints import ConstraintPolicy
from expconv.dataset import gen_synthetic
from expconv.gradients import CHECK_KERNELS, run_variant_checks
from expconv.layers import VARIANT_TYPES
from expconv.training import TrainConfig, build_network, save_model, train

INPUT_SHAPE = (8, 5)
MODES = ("clip", "project", "reparam")
OPTIMIZERS = ("adam", "sgd")


def training_digest() -> str:
    task = gen_synthetic(win_len=INPUT_SHAPE[0], channels=INPUT_SHAPE[1],
                         count=48, seed=5)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        for variant in sorted(VARIANT_TYPES):
            specs = [{"variant": variant, "k_h": 2, "k_w": 2,
                      "activation": "tanh"},
                     {"variant": variant, "k_h": 3, "k_w": 2,
                      "out_channels": 3, "activation": "tanh"}]
            for mode in MODES:
                policy = ConstraintPolicy(mode=mode)
                for optimizer in OPTIMIZERS:
                    net = build_network(INPUT_SHAPE, 2, specs, policy=policy,
                                        seed=3)
                    config = TrainConfig(epochs=2, batch_size=16,
                                         learning_rate=0.05,
                                         optimizer=optimizer, seed=7,
                                         policy=policy)
                    net, history = train(net, task.as_windowed(), config)
                    save_model(net, path)
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
                    digest.update(json.dumps(history, sort_keys=True)
                                  .encode("utf-8"))
    return digest.hexdigest()


def gradcheck_digest() -> str:
    digest = hashlib.sha256()
    for variant in sorted(VARIANT_TYPES):
        for report in run_variant_checks(variant, seeds=range(50),
                                         kernels=CHECK_KERNELS):
            digest.update(report.to_text().encode("utf-8"))
    return digest.hexdigest()


if __name__ == "__main__":
    print(f"training  {training_digest()}")
    print(f"gradcheck {gradcheck_digest()}")
