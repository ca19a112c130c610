"""Benchmark of expconv training and evaluation on plant-shaped windows.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plant_elementwise_train --seed 1 \\
        --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json. A run generates its
inputs from the seed, sets up several times, then repeats the workload's
operations for the given number of seconds and reports medians. Every
operation's outputs are checked. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports per-layer metrics from the traced ones, plus a
sweep over the six layer variants.

Times are in reference seconds: each operation's time is scaled by how
fast a fixed NumPy loop ran around it and after each of its training
batches (``bench.calibrate``), so that the shared host's drifting speed
cancels; the same figures in seconds as measured are printed as a comment
and kept in the record.

Each metric is printed as a line ``name value unit``; the last line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (environment, metrics and, when tracing, every span)
is written to ``.perfbench_out/`` in the checkout. The exit code is 0
when every check passed, 1 when one failed, and 2 when the sources to
benchmark are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    blas_threads = pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "expconv", "__init__.py")):
        print(f"perfbench: no expconv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench  # from this script's directory, which Python puts on the path

    args = parse_args(argv, sorted(bench.WORKLOADS))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    run = bench.Run(args.workload, args.seed, args.seconds,
                    bool(args.trace), work_dir)
    try:
        run.execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = run.per_layer() if args.trace else run.end_to_end(peak_mb)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    correct = run.failed == 0
    env = environment(blas_threads)
    measured = None if args.trace else run.end_to_end(peak_mb, raw=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "metrics": metrics,
              "as_measured": measured,
              "attempted": run.attempted, "failed": run.failed,
              "samples": run.samples, "ops": run.windows}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if run.tracer is not None:
        run.tracer.dump(os.path.join(OUT_DIR, f"{tag}-spans.json"))

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    if measured is not None:
        print(f"# in seconds as measured {json.dumps(measured)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
