"""Print SHA-256 digests that pin the numerics of training and of the
gradient checks.

* one line per trained network: variant, mode, optimizer, the first 16
  hex digits of the digest of its ``model.bin`` bytes and per-epoch
  history, and its final loss, so a change that moves the numerics
  shows which networks moved and how far;
* ``training``: the same bytes of all 24 networks, every variant under
  clip and reparam, each trained with Adam and with SGD. Every network
  has two layers (the second with three output channels) and trains for
  two epochs on a small synthetic task.
* ``gradcheck``: the ``to_text`` report of ``grad_check`` on every
  ``make_check_instance`` output (every variant x ``CHECK_KERNELS`` x
  seeds 0-49, 900 instances).
* ``evaluate``: the ``forward_network`` probabilities of the 24 trained
  networks on a ``WindowedDataset`` of windows of 8 rows every 2 rows of
  one seeded 120 x 5 series (``WindowedDataset.from_series`` with stride
  2), so consecutive windows are evaluated over the rows they share.
* ``synthetic``: the windows, labels, threshold and margin of two
  ``gen_synthetic`` tasks, 240 windows of 40 x 52 (seed 5) and the task
  of ``configs/tiny_synth.json``.
* ``windows``: the train and test windows and labels that
  ``cli.build_datasets`` reads from a seeded plant-file set (fault ids 0,
  1 and 3) in a temporary directory, with windows of 20 rows every 20
  rows and of 40 rows every 10 rows (which drops the windows that
  straddle the fault onset).

A change that is meant to leave the numerics alone must leave every
digest as it was; run the script before and after it and compare.

Usage: PYTHONPATH=src python tests/data/training_digest.py
"""

import hashlib
import json
import os
import tempfile

import numpy as np

from expconv.cli import build_datasets
from expconv.constraints import ConstraintPolicy
from expconv.dataset import (
    N_VARIABLES,
    RawRun,
    WindowedDataset,
    gen_synthetic,
    run_filename,
    save_run_text,
)
from expconv.gradients import CHECK_KERNELS, run_variant_checks
from expconv.layers import VARIANT_TYPES
from expconv.numerics import make_rng
from expconv.training import (
    TrainConfig,
    build_network,
    forward_network,
    save_model,
    train,
)

INPUT_SHAPE = (8, 5)
MODES = ("clip", "reparam")
OPTIMIZERS = ("adam", "sgd")


def training_digest():
    """The digest of the 24 trainings, and the trained networks."""
    task = gen_synthetic(win_len=INPUT_SHAPE[0], channels=INPUT_SHAPE[1],
                         count=48, seed=5)
    digest = hashlib.sha256()
    nets = []
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
                    net, history = train(net, task, config)
                    save_model(net, path)
                    with open(path, "rb") as fh:
                        trained = fh.read() + json.dumps(
                            history, sort_keys=True).encode("utf-8")
                    digest.update(trained)
                    nets.append(net)
                    print(f"{variant:<12} {mode:<8} {optimizer:<5} "
                          f"{hashlib.sha256(trained).hexdigest()[:16]} "
                          f"final loss {history[-1]['loss']!r}")
    return digest.hexdigest(), nets


def gradcheck_digest() -> str:
    digest = hashlib.sha256()
    for variant in sorted(VARIANT_TYPES):
        for report in run_variant_checks(variant, seeds=range(50),
                                         kernels=CHECK_KERNELS):
            digest.update(report.to_text().encode("utf-8"))
    return digest.hexdigest()


def evaluate_digest(nets) -> str:
    series = make_rng(13).normal(size=(120, INPUT_SHAPE[1]))
    starts = np.arange(0, len(series) - INPUT_SHAPE[0] + 1, 2)
    labels = np.zeros(len(starts), dtype=np.int64)
    dataset = WindowedDataset.from_series(series, starts, labels,
                                          INPUT_SHAPE[0], 2)
    digest = hashlib.sha256()
    for net in nets:
        digest.update(forward_network(net, dataset).tobytes())
    return digest.hexdigest()


def synthetic_digest() -> str:
    config = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, os.pardir, "configs", "tiny_synth.json")
    with open(config) as fh:
        tiny = json.load(fh)["data"]["synthetic"]
    tiny.pop("train_fraction")
    digest = hashlib.sha256()
    for params in (dict(win_len=40, channels=52, exponent=2.0, noise=0.05,
                        count=240, seed=5), tiny):
        task = gen_synthetic(**params)
        digest.update(task.windows.tobytes() + task.labels.tobytes()
                      + np.float64([task.threshold, task.margin]).tobytes())
    return digest.hexdigest()


def windows_digest() -> str:
    rng = make_rng(17)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for fault_id, split, rows in ((0, "train", 250), (1, "train", 480),
                                      (3, "train", 480), (1, "test", 960),
                                      (3, "test", 960)):
            run = RawRun(rng.normal(loc=fault_id, size=(rows, N_VARIABLES)),
                         fault_id, split)
            save_run_text(run, os.path.join(tmp, run_filename(fault_id,
                                                              split)))
        for win_len, stride in ((20, 20), (40, 10)):
            train_ds, test_ds, _, _ = build_datasets({"data": {
                "path": tmp, "fault_ids": [3, 1], "win_len": win_len,
                "stride": stride}})
            for ds in (train_ds, test_ds):
                digest.update(ds.windows.tobytes() + ds.labels.tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    trained, nets = training_digest()
    print(f"training  {trained}")
    print(f"gradcheck {gradcheck_digest()}")
    print(f"evaluate  {evaluate_digest(nets)}")
    print(f"synthetic {synthetic_digest()}")
    print(f"windows   {windows_digest()}")
