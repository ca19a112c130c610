"""Print the minor page faults and the median time per call of three warm
passes on the plant workload's network (elementwise 3x3x8 on 40 x 52
windows, three classes):

* ``evaluate, 1 worker`` and ``evaluate, 2 workers``: ``evaluate`` on the
  test windows of four 960-row plant runs, 40 rows every 10 rows, with
  ``EVAL_WORKERS`` at 1 and at 2;
* ``step``: ``network_loss_grads`` on a batch of 32 windows, with one
  workspace held across the calls, as ``train`` holds it for an epoch.

The evaluations run first, so no step has yet moved the allocator's
thresholds.

Faults are the process's own ``ru_minflt`` (``resource.getrusage``) read
around each call. They depend on the allocator, its thresholds and what
else the process holds, so this is a script to compare two builds on one
host, not a test.

Usage: PYTHONPATH=src python tests/data/fault_probe.py [CALLS]
"""

import resource
import statistics
import sys
import time

from expconv import training
from expconv.dataset import (
    N_VARIABLES,
    TEST_ROWS,
    RawRun,
    make_windows,
    merge_windows,
)
from expconv.numerics import make_rng

WARM_UP = 5


def plant_test_set(n_runs=4):
    runs = [RawRun(make_rng(60 + k).normal(size=(TEST_ROWS, N_VARIABLES)),
                   k, "test") for k in range(n_runs)]
    test = merge_windows([make_windows(run, 40, 10) for run in runs])
    test.labels %= 3
    return test


def probe(name, call, calls):
    """Run ``call`` WARM_UP times, then ``calls`` times measured; print the
    median, least and most faults per call and the median milliseconds."""
    for _ in range(WARM_UP):
        call()
    faults, ms = [], []
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        call()
        ms.append(1e3 * (time.perf_counter() - t0))
        faults.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(f"{name:<20} faults/call median {statistics.median(faults):>7.0f}"
          f"  min {min(faults):>6}  max {max(faults):>6}"
          f"  ms median {statistics.median(ms):7.2f}")


def main(calls=20):
    net = training.build_network(
        (40, 52), 3, [{"variant": "elementwise", "k_h": 3, "k_w": 3,
                       "out_channels": 8}], seed=12)
    rng = make_rng(13)
    windows = rng.normal(size=(32, 40, 52))
    labels = rng.integers(0, 3, size=32)
    test = plant_test_set()
    for workers in (1, 2):
        training.EVAL_WORKERS = workers
        probe(f"evaluate, {workers} worker{'s' * (workers > 1)}",
              lambda: training.evaluate(net, test), calls)
    workspace = training.new_workspace(net)
    probe("step", lambda: training.network_loss_grads(
        net, windows, labels, workspace=workspace), calls)

if __name__ == "__main__":
    main(*map(int, sys.argv[1:2]))
