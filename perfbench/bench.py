"""Workloads, timed operations and output checks of the expconv benchmark.

Every workload goes through the entry points that ``expconv train`` and
``expconv eval`` use: ``cli.load_config`` and ``cli.build_datasets`` for
set-up, then ``training.build_network`` or ``training.load_model``, and
``training.train``, ``training.evaluate`` and ``training.save_model``.
Functions are looked up on their modules at call time, so the tracer's
wrappers are what runs when tracing is on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import statistics
import sys
import time
import traceback

import numpy as np

from expconv import cli, constraints, gradients, layers, numerics, training
from expconv import AugmentSpec, ConstraintPolicy, TrainConfig

from plantgen import write_plant_files
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

WIN_LEN = 40
STRIDE = 10
# Two same-seed trainings are needed for the byte check; a traced run also
# needs an untraced cycle after the warm-up one to compare against.
MIN_CYCLES = 2
MIN_TRACED_CYCLES = 3
# Set-up and evaluation are short next to training, so each cycle repeats
# them; the throughputs are windows over the summed time of all operations.
SETUP_REPS = 3
ORACLE_SAMPLES = 16
ORACLE_TOL = 1e-9

# The host is shared and its speed drifts by tens of percent over seconds
# to minutes, moving every timing together. A fixed NumPy loop like the
# layers' own work (log, scale, exp, a small matrix product) is timed just
# before and just after each operation, and after every training batch
# inside it (time taken out of the operation's), and the operation's time
# is scaled by CALIB_REF_S over the mean of those timings: reference
# seconds, the time the operation would take on a host where the loop
# takes CALIB_REF_S.
CALIB_REF_S = 0.0025
CALIB_REPS = 10
_CALIB_RNG = np.random.default_rng(0)
_CALIB_X = 0.5 + _CALIB_RNG.random((32, WIN_LEN, 52))
_CALIB_W = _CALIB_RNG.random((52, 8))


def calibrate() -> float:
    """Seconds the fixed reference loop takes on the host right now."""
    t0 = time.perf_counter()
    for _ in range(CALIB_REPS):
        y = np.exp(np.log(_CALIB_X) * 1.3)
        y.reshape(-1, 52) @ _CALIB_W
    return time.perf_counter() - t0


SWEEP_VARIANTS = ("standard", "elementwise", "row_shared", "col_shared",
                  "bilinear", "full_matrix")
SWEEP_BATCH = 32
SWEEP_BUDGET_S = 0.25
SWEEP_MAX_REPS = 5


def _conv(variant: str, k: int, out_channels: int) -> dict:
    return {"variant": variant, "k_h": k, "k_w": k,
            "out_channels": out_channels, "activation": "tanh"}


# Why each workload exists is recorded in BENCHMARK.json. The fault ids
# only fix the class count; plantgen draws each fault's signature.
WORKLOADS = {
    "plant_elementwise_train": {
        "phase": "train",
        "fault_ids": [1, 2],
        "layers": [_conv("elementwise", 3, 8)],
        "constraints": {"mode": "clip"},
        "augment": [
            {"op": "flip_lr", "probability": 0.5},
            {"op": "exp_augment", "probability": 0.5,
             "granularity": "per_point", "lo": 0.8, "hi": 1.25},
        ],
        "train": {"epochs": 1, "batch_size": 32, "learning_rate": 0.003,
                  "optimizer": "adam"},
        "eval_reps": 4,
    },
    "synth_bilinear_stack_train": {
        "phase": "train",
        "synthetic": {"win_len": WIN_LEN, "channels": 52, "exponent": 2.0,
                      "noise": 0.05, "count": 240, "train_fraction": 0.6},
        "layers": [_conv("bilinear", 3, 1), _conv("full_matrix", 2, 4)],
        "constraints": {"mode": "reparam", "kind": "sigmoid"},
        "augment": [],
        "train": {"epochs": 1, "batch_size": 32, "learning_rate": 0.01,
                  "optimizer": "sgd"},
        "eval_reps": 4,
    },
    "plant_full_matrix_eval": {
        "phase": "eval",
        "train_cycles": 2,
        "fault_ids": [1, 2, 3],
        "layers": [_conv("full_matrix", 3, 8)],
        "constraints": {"mode": "clip"},
        "augment": [],
        "train": {"epochs": 1, "batch_size": 32, "learning_rate": 0.003,
                  "optimizer": "adam"},
        "eval_reps": 1,
    },
}


def make_config(workload: dict, seed: int, data_dir: str) -> dict:
    """The JSON run configuration ``expconv train`` would be given."""
    if "synthetic" in workload:
        data = {"synthetic": dict(workload["synthetic"], seed=seed)}
    else:
        data = {"path": data_dir, "fault_ids": workload["fault_ids"],
                "win_len": WIN_LEN, "stride": STRIDE}
    train = dict(workload["train"], seed=seed,
                 eval_every=workload["train"]["epochs"])
    return {"data": data, "model": {"layers": workload["layers"]},
            "constraints": workload["constraints"],
            "augment": workload["augment"], "train": train}


@dataclasses.dataclass
class Setup:
    cfg: dict
    train_ds: object
    test_ds: object
    n_classes: int
    channels: int
    policy: object
    net: object

    def fresh_network(self):
        return training.build_network(
            (self.train_ds.win_len, self.channels), self.n_classes,
            self.cfg["model"]["layers"], policy=self.policy,
            seed=self.cfg["train"]["seed"])

    def train_config(self) -> TrainConfig:
        t = self.cfg["train"]
        return TrainConfig(
            epochs=t["epochs"], batch_size=t["batch_size"],
            learning_rate=t["learning_rate"], optimizer=t["optimizer"],
            beta1=t["beta1"], beta2=t["beta2"], adam_eps=t["adam_eps"],
            seed=t["seed"], augments=tuple(AugmentSpec(**a)
                                           for a in self.cfg["augment"]),
            policy=self.policy, eval_every=t["eval_every"])


def set_up(cfg_path: str, model_path: str | None = None) -> Setup:
    """Config load, dataset build, then network build or model load."""
    cfg = cli.load_config(cfg_path)
    train_ds, test_ds, n_classes, channels = cli.build_datasets(cfg)
    policy = ConstraintPolicy(**cfg["constraints"])
    st = Setup(cfg, train_ds, test_ds, n_classes, channels, policy, None)
    st.net = (training.load_model(model_path) if model_path
              else st.fresh_network())
    return st


def eval_chunks(n: int) -> int:
    return math.ceil(n / training.EVAL_CHUNK)


# --------------------------------------------------------------------------
# Tracing: which module attributes are wrapped, and what each one counts.

def make_tracer() -> Tracer:
    tr = Tracer()

    def forward_counts(args, kwargs, out):
        params = args[1]
        counts = {"pow_ops_computed": 0 if params.variant == "standard"
                  else out.size * params.k_h * params.k_w}
        if tr.inside("training.network_loss_grads"):
            counts["train_preacts"] = out.size
        return counts

    for mod, attr in ((cli, "load_run"), (cli, "fit_normalize"),
                      (cli, "make_windows"), (cli, "gen_synthetic")):
        tr.wrap(mod, attr, f"dataset.{attr}")
    for attr in ("load_model", "save_model", "train", "evaluate",
                 "forward_network", "enforce_constraints"):
        tr.wrap(training, attr, f"training.{attr}")
    tr.wrap(training, "network_loss_grads", "training.network_loss_grads",
            lambda a, k, out: {"d_input_unused": np.asarray(a[1]).size})
    tr.wrap(training, "apply_pipeline", "augment.apply_pipeline")
    tr.wrap(training, "layer_forward", "layers.layer_forward", forward_counts)
    tr.wrap(training, "layer_backward", "gradients.layer_backward",
            lambda a, k, out: {"d_input_computed": out.d_input.size})
    for mod in (layers, gradients):
        tr.wrap(mod, "extract_patches", "numerics.extract_patches",
                lambda a, k, out: {"bytes_computed": out.nbytes})
    tr.wrap(gradients, "scatter_patch_grads", "gradients.scatter_patch_grads")
    # backward's own pre-activation pass: counted, timed as part of backward
    tr.wrap(gradients, "channel_preact", None,
            lambda a, k, out: {"preacts_recomputed": out.size})

    original_make = training.make_optimizer

    def make_optimizer(config):
        opt = original_make(config)
        step = opt.step

        def traced_step(pairs):
            with tr.span("training.optimizer_step"):
                return step(pairs)
        opt.step = traced_step
        return opt
    tr.patch(training, "make_optimizer", make_optimizer)
    return tr


TRACED_KEYS = (
    "dataset.load_run.s", "dataset.fit_normalize.s",
    "dataset.make_windows.s", "dataset.gen_synthetic.s",
    "training.load_model.s", "training.save_model.s",
    "augment.apply_pipeline.self_s", "augment.apply_pipeline.calls",
    "numerics.extract_patches.self_s", "numerics.extract_patches.calls",
    "numerics.extract_patches.bytes_computed",
    "layers.layer_forward.self_s", "layers.layer_forward.pow_ops_computed",
    "gradients.layer_backward.self_s", "gradients.scatter_patch_grads.self_s",
    "training.network_loss_grads.self_s", "training.optimizer_step.self_s",
    "training.enforce_constraints.self_s", "training.forward_network.self_s",
    "training.evaluate.s",
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_metrics(tr: Tracer) -> dict:
    typical = tr.typical()
    out = {key: float(typical.get(key, 0)) for key in TRACED_KEYS}
    out["gradients.forward_recompute_share"] = _share(
        typical.get("gradients.layer_backward.preacts_recomputed", 0),
        typical.get("layers.layer_forward.train_preacts", 0))
    out["gradients.d_input_unused_share"] = _share(
        typical.get("training.network_loss_grads.d_input_unused", 0),
        typical.get("gradients.layer_backward.d_input_computed", 0))
    return out


def variant_sweep(seed: int) -> dict:
    """Forward and backward time of one 3x3x8 layer per variant on a batch
    of 40x52 windows; pow counts and patch bytes are computed from shapes."""
    rng = numerics.make_rng(seed)
    x = rng.standard_normal((SWEEP_BATCH, WIN_LEN, 52))
    out = {}
    for variant in SWEEP_VARIANTS:
        net = training.build_network((WIN_LEN, 52), 3, [_conv(variant, 3, 8)],
                                     seed=seed)
        layer = net.layers[0]
        fmap = layers.layer_forward(x, layer)
        upstream = rng.standard_normal(fmap.shape)
        for key, fn in (("layers.layer_forward", lambda: layers.layer_forward(
                            x, layer)),
                        ("gradients.layer_backward",
                         lambda: gradients.layer_backward(x, layer, upstream))):
            times = []
            while not times or (sum(times) < SWEEP_BUDGET_S
                                and len(times) < SWEEP_MAX_REPS):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            out[f"{key}.{variant}.ms"] = 1e3 * statistics.median(times)
        out[f"layers.layer_forward.{variant}.pow_ops"] = (
            0 if variant == "standard" else fmap.size * layer.k_h * layer.k_w)
    out["numerics.extract_patches.sweep.bytes"] = (
        fmap.size // layer.out_channels * layer.k_h * layer.k_w * 8)
    return out


# --------------------------------------------------------------------------
# Output checks

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def within(value: float, ref: dict) -> bool:
    return math.isfinite(value) and abs(value - ref["value"]) <= ref["tolerance"]


def oracle_mismatches(net, windows: np.ndarray, rng) -> int:
    """Sampled feature-map entries of every layer that disagree with the
    single-receptive-field oracle ``layers.unit_forward``."""
    x = windows[rng.integers(len(windows), size=2)]
    bad = 0
    for layer, policy in zip(net.layers, net.policies):
        eff = dataclasses.replace(layer, ewms=[
            constraints.effective_payload(e, policy) for e in layer.ewms])
        fmap = layers.layer_forward(x, eff)
        for _ in range(ORACLE_SAMPLES):
            i, r, c, m = (int(rng.integers(n)) for n in fmap.shape)
            t0, c0 = r * eff.stride_t, c * eff.stride_c
            patch = x[i, t0:t0 + eff.k_h, c0:c0 + eff.k_w]
            pre = layers.unit_forward(patch, eff.weights[m],
                                      float(eff.biases[m]), eff.ewms[m])
            ref = float(layers.apply_activation(np.array(pre), eff.activation))
            if not abs(fmap[i, r, c, m] - ref) <= ORACLE_TOL * max(1.0, abs(ref)):
                bad += 1
        x = fmap[..., 0]
    return bad


# --------------------------------------------------------------------------
# The run

class Run:
    """One workload, one seed: inputs, timed cycles of operations, checks.

    A cycle is set-up, training and evaluation for the train workloads;
    for the eval workload it is set-up with ``load_model`` and evaluation,
    with the model trained and saved in the first ``train_cycles`` cycles.
    Set-up runs ``SETUP_REPS`` times and evaluation ``eval_reps`` times a
    cycle. Cycles repeat until the time budget is spent, so each operation
    is sampled across the whole run. With tracing, odd cycles are traced.
    """

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 work_dir: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = make_tracer() if trace else None
        self.reference = load_reference()[name]
        self.rng = numerics.make_rng(seed + 1)  # oracle sample positions
        self.attempted = 0
        self.failed = 0
        # per operation: set-up seconds, and (windows, seconds) of train
        # and eval, each in reference seconds and as measured
        self.samples = {"setup_s": [], "setup_s_raw": []}
        self.windows = {"train": [], "eval": [], "train_raw": [],
                        "eval_raw": []}
        self.op_times = {}  # (kind, traced) -> reference seconds per operation
        self.calibrations = None  # loop timings during the current operation
        enforce = training.enforce_constraints  # called once per batch

        def enforce_then_calibrate(net):
            enforce(net)
            if self.calibrations is not None:
                self.calibrations.append(calibrate())
        training.enforce_constraints = enforce_then_calibrate
        self.sweep = {}
        self.cfg_path = os.path.join(work_dir, "config.json")
        self.model_path = os.path.join(work_dir, "model.bin")
        self.copy_path = os.path.join(work_dir, "model_copy.bin")
        self.data_dir = os.path.join(work_dir, "plant")
        self.producer = None  # the eval workload's training set-up
        self.first_model = None
        self.first_eval = None
        self.train_accuracy = None

    # ------------------------------------------------------------------
    def op(self, kind: str, fn, steps: int, traced: bool):
        """One timed operation; returns (result, seconds, reference
        seconds), or Nones when it raised."""
        self.attempted += steps
        scope = (self.tracer.root(f"op.{kind}") if traced
                 else contextlib.nullcontext())
        before = calibrate()
        self.calibrations = []
        try:
            with scope:
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
        except Exception:  # one failed operation must not hide the others
            traceback.print_exc()
            self.failed += steps
            return None, None, None
        finally:
            inside, self.calibrations = self.calibrations, None
        dt -= sum(inside)
        host = statistics.fmean([before, *inside, calibrate()])
        ref_dt = dt * CALIB_REF_S / host
        self.op_times.setdefault((kind, traced), []).append(ref_dt)
        return result, dt, ref_dt

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def check_oracle(self, net, windows) -> None:
        bad = oracle_mismatches(net, windows, self.rng)
        self.check(bad == 0, f"{bad} feature-map entries differ from "
                             "layers.unit_forward")

    # ------------------------------------------------------------------
    def prepare_inputs(self) -> None:
        if "synthetic" not in self.workload:
            write_plant_files(self.data_dir, self.workload["fault_ids"],
                              self.seed)
        with open(self.cfg_path, "w") as fh:
            json.dump(make_config(self.workload, self.seed, self.data_dir), fh)

    def setup_op(self, traced: bool, model_path: str | None = None) -> Setup:
        for _ in range(SETUP_REPS):
            st, dt, ref_dt = self.op(
                "setup", lambda: set_up(self.cfg_path, model_path), 0, traced)
            if st is None:
                raise RuntimeError("set-up failed")
            self.samples["setup_s"].append(ref_dt)
            self.samples["setup_s_raw"].append(dt)
        return st

    def train_op(self, st: Setup, traced: bool):
        """Train a fresh network and save it; check loss, accuracy, the
        saved bytes and sampled feature-map entries."""
        tc = st.train_config()
        n = len(st.train_ds)
        steps = tc.epochs * math.ceil(n / tc.batch_size) + eval_chunks(
            len(st.test_ds))
        net = st.fresh_network()
        res, dt, ref_dt = self.op("train", lambda: training.train(
            net, st.train_ds, tc, eval_dataset=st.test_ds), steps, traced)
        if res is None:
            return None
        net, history = res
        self.windows["train"].append((n * tc.epochs, ref_dt))
        self.windows["train_raw"].append((n * tc.epochs, dt))
        self.op("save", lambda: training.save_model(net, self.model_path),
                0, traced)
        last = history[-1]
        ref = self.reference
        self.check(within(last["loss"], ref["final_loss"]),
                   f"final loss {last['loss']!r} outside {ref['final_loss']}")
        self.check(within(last["accuracy"], ref["accuracy"]),
                   f"accuracy {last['accuracy']!r} outside {ref['accuracy']}")
        self.train_accuracy = last["accuracy"]
        with open(self.model_path, "rb") as fh:
            blob = fh.read()
        if self.first_model is None:
            self.first_model = blob
        else:
            self.check(blob == self.first_model,
                       "same-seed training wrote a different model.bin")
        self.check_oracle(net, st.test_ds.windows)
        return net

    def eval_op(self, net, st: Setup, traced: bool) -> None:
        """Evaluate; the result must equal the final evaluation of the
        training that made the model, and every earlier evaluation."""
        res, dt, ref_dt = self.op(
            "eval", lambda: training.evaluate(net, st.test_ds),
            eval_chunks(len(st.test_ds)), traced)
        if res is None:
            return
        self.windows["eval"].append((len(st.test_ds), ref_dt))
        self.windows["eval_raw"].append((len(st.test_ds), dt))
        self.check(res.accuracy == self.train_accuracy,
                   f"evaluate accuracy {res.accuracy!r} != final training "
                   f"accuracy {self.train_accuracy!r}")
        signature = (res.confusion.tolist(), res.accuracy)
        if self.first_eval is None:
            self.first_eval = signature
        self.check(signature == self.first_eval,
                   "repeated evaluation of one model differs")

    def cycle(self, k: int, traced: bool) -> None:
        if self.workload["phase"] == "train":
            st = self.setup_op(traced)
            net = self.train_op(st, traced)
            if net is not None:
                for _ in range(self.workload["eval_reps"]):
                    self.eval_op(net, st, traced)
            return
        if k < self.workload["train_cycles"]:
            self.train_op(self.producer, False)
        st = self.setup_op(traced, self.model_path)
        if k == 0:
            training.save_model(st.net, self.copy_path)
            with open(self.copy_path, "rb") as fh:
                self.check(fh.read() == self.first_model,
                           "load_model/save_model round trip changed model.bin")
            self.check(len(st.test_ds) >= training.EVAL_CHUNK,
                       "test set smaller than one evaluation chunk")
        for _ in range(self.workload["eval_reps"]):
            self.eval_op(st.net, st, traced)
        self.check_oracle(st.net, st.test_ds.windows)

    def execute(self) -> None:
        self.prepare_inputs()
        deadline = time.perf_counter() + self.seconds
        if self.tracer is not None:
            self.sweep = variant_sweep(self.seed)
        if self.workload["phase"] == "eval":
            self.producer = set_up(self.cfg_path)
        train_cycles = self.workload.get("train_cycles")
        min_cycles = MIN_CYCLES if self.tracer is None else MIN_TRACED_CYCLES
        walls = {}  # cycle kind (trains or not) -> seconds
        k = 0
        while True:
            trains = train_cycles is None or k < train_cycles
            past = walls.get(trains) or [w for ws in walls.values() for w in ws]
            if k >= min_cycles and (
                    time.perf_counter() + statistics.median(past) > deadline):
                break
            t0 = time.perf_counter()
            self.cycle(k, self.tracer is not None and k % 2 == 1)
            walls.setdefault(trains, []).append(time.perf_counter() - t0)
            if k == 0:  # the first cycle warms up; keep it out of overhead
                self.op_times.clear()
            k += 1

    # ------------------------------------------------------------------
    def end_to_end(self, peak_mem_mb: float, raw: bool = False) -> dict:
        """Train and eval windows over the summed reference seconds of all
        their operations, the median set-up in reference seconds, and peak
        memory; ``raw`` gives the same from the times as measured."""
        suffix = "_raw" if raw else ""
        values = {}
        for kind in ("train", "eval"):
            ops = self.windows[kind + suffix]
            values[f"{kind}_windows_per_s"] = (sum(n for n, _ in ops)
                                               / sum(dt for _, dt in ops))
        values["setup_s"] = statistics.median(self.samples["setup_s" + suffix])
        values["peak_mem_mb"] = peak_mem_mb
        return values

    def overhead_share(self) -> float:
        """Traced over untraced time of the operation kinds run both ways."""
        kinds = {kind for kind, traced in self.op_times if traced}
        kinds &= {kind for kind, traced in self.op_times if not traced}
        traced = sum(statistics.median(self.op_times[k, True]) for k in kinds)
        plain = sum(statistics.median(self.op_times[k, False]) for k in kinds)
        return traced / plain - 1.0

    def per_layer(self) -> dict:
        values = traced_metrics(self.tracer)
        values.update(self.sweep)
        values["trace.overhead_share"] = self.overhead_share()
        values["failed_share"] = _share(self.failed, self.attempted)
        return values
