"""Command-line interface: config-driven batch runs.

Subcommands: gradcheck, train, eval, synth, augment. Every run is
configured by a JSON file validated against a strict schema (unknown
keys and non-finite numbers are errors), and the effective
configuration, defaults filled in and the --seed and --out overrides
applied, is echoed into the output directory so a run can be reproduced
from its own artifacts.

Exit codes: 0 success, 1 numeric or check failure (failed gradient
check, non-finite loss, feature map or exponent gradient, an optimizer
step that leaves a parameter non-finite, overflowing synthetic data or
exponent augmentation), 2 configuration or I/O problems.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

import jsonschema
import numpy as np

from .augment import (
    GRANULARITIES,
    OPS,
    AugmentSpec,
    apply_pipeline,
    private_streams,
)
from .constraints import KINDS, MODES, ConstraintPolicy
from .dataset import (
    DEFAULT_STRIDE,
    DEFAULT_WIN_LEN,
    FAULT_ONSET,
    N_VARIABLES,
    WindowedDataset,
    fit_normalize,
    gen_synthetic,
    load_run,
    make_windows,
    merge_windows,
    normalize_into,
    run_filename,
    save_windows_csv,
)
from .gradients import run_variant_checks
from .layers import ACTIVATIONS, VARIANT_TYPES
from .numerics import make_rng
from .training import (
    OPTIMIZERS,
    TrainConfig,
    build_network,
    evaluate,
    load_model,
    save_model,
    train,
    write_history_csv,
)


class ConfigError(Exception):
    """Configuration file problems; reported with field path, exit 2."""


_LAYER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["variant", "k_h", "k_w"],
    "properties": {
        "variant": {"enum": sorted(VARIANT_TYPES)},
        "k_h": {"type": "integer", "minimum": 1},
        "k_w": {"type": "integer", "minimum": 1},
        "stride_t": {"type": "integer", "minimum": 1},
        "stride_c": {"type": "integer", "minimum": 1},
        "out_channels": {"type": "integer", "minimum": 1},
        "activation": {"enum": sorted(ACTIVATIONS)},
    },
}

_AUGMENT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["op"],
    "properties": {
        "op": {"enum": sorted(OPS)},
        "probability": {"type": "number", "minimum": 0, "maximum": 1},
        "block_len": {"type": "integer", "minimum": 1},
        "granularity": {"enum": sorted(GRANULARITIES)},
        "lo": {"type": "number"},
        "hi": {"type": "number"},
        "seed": {"type": "integer", "minimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "fault_ids": {
                    "type": "array", "minItems": 1,
                    "items": {"type": "integer", "minimum": 0, "maximum": 21},
                },
                "win_len": {"type": "integer", "minimum": 1},
                "stride": {"type": "integer", "minimum": 1},
                "synthetic": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "win_len": {"type": "integer", "minimum": 1},
                        "channels": {"type": "integer", "minimum": 1},
                        "exponent": {"type": "number"},
                        "noise": {"type": "number", "minimum": 0},
                        "count": {"type": "integer", "minimum": 0},
                        "seed": {"type": "integer", "minimum": 0},
                        "margin_scale": {"type": "number",
                                         "exclusiveMinimum": 0},
                        "mag_lo": {"type": "number", "exclusiveMinimum": 0},
                        "mag_hi": {"type": "number", "exclusiveMinimum": 0},
                        "train_fraction": {"type": "number",
                                           "exclusiveMinimum": 0,
                                           "exclusiveMaximum": 1},
                    },
                },
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "layers": {"type": "array", "minItems": 1,
                           "items": _LAYER_SCHEMA},
            },
        },
        "constraints": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "v_min": {"type": "number"},
                "v_max": {"type": "number"},
                "mode": {"enum": sorted(MODES)},
                "kind": {"enum": sorted(KINDS)},
            },
        },
        "augment": {"type": "array", "items": _AUGMENT_SCHEMA},
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 0},
                "batch_size": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "optimizer": {"enum": sorted(OPTIMIZERS)},
                "beta1": {"type": "number"},
                "beta2": {"type": "number"},
                "adam_eps": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "eval_every": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}


def _defaults_of(section: str, instance) -> dict:
    """The schema keys of a config section, valued as in ``instance``."""
    return {key: getattr(instance, key)
            for key in CONFIG_SCHEMA["properties"][section]["properties"]}


DEFAULTS = {
    "data": {"win_len": DEFAULT_WIN_LEN, "stride": DEFAULT_STRIDE},
    "model": {
        "layers": [{"variant": "elementwise", "k_h": 2, "k_w": 2,
                    "out_channels": 1, "activation": "tanh"}],
    },
    "constraints": _defaults_of("constraints", ConstraintPolicy()),
    "augment": [],
    "train": _defaults_of("train", TrainConfig()),
    "output": {"dir": "out"},
}


def _merge_defaults(defaults, user):
    """Defaults overridden by user values; nested dicts merge, lists and
    scalars replace."""
    if not isinstance(user, dict) or not isinstance(defaults, dict):
        return copy.deepcopy(user)
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        if key in merged:
            merged[key] = _merge_defaults(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


# jsonschema counts an integral float such as 8.0 as an "integer"; the
# config's integer fields take ints only
_ConfigValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: type(value) is int))
_VALIDATOR = _ConfigValidator(CONFIG_SCHEMA)


def load_config(path) -> dict:
    """Parse, schema-validate, default-fill and cross-check a config file.

    The constraints, augment and train sections are also built once, so a
    value their constructors reject fails every command before it writes
    anything. ``NaN``, ``Infinity`` and numbers too large for a float are
    rejected while parsing."""
    def finite(token: str) -> float:
        if not math.isfinite(value := float(token)):
            raise ConfigError(f"{path}: non-finite number {token}")
        return value

    def integer(token: str) -> int:
        finite(token)  # an integer literal too large for a float too
        return int(token)

    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=finite, parse_int=integer,
                            parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON (line {exc.lineno}, col {exc.colno}): "
            f"{exc.msg}") from exc
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        where = ".".join(str(p) for p in error.absolute_path) or "(top level)"
        raise ConfigError(f"{path}: {where}: {error.message}")
    cfg = _merge_defaults(DEFAULTS, raw)
    data = cfg["data"]
    if ("path" in data) == ("synthetic" in data):
        raise ConfigError(
            f"{path}: data must have exactly one of 'path' or 'synthetic'")
    if "path" in data and "fault_ids" not in data:
        raise ConfigError(f"{path}: data.path requires data.fault_ids")
    _train_config_from(cfg)
    return cfg


def _checked(section: str, build):
    """``build()``, with a TypeError or ValueError it raises reported as a
    ConfigError naming the config section."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _train_config_from(cfg: dict) -> TrainConfig:
    """The constraints, augment and train sections built into one
    TrainConfig, which carries the policy and the augment specs."""
    policy = _checked("constraints",
                      lambda: ConstraintPolicy(**cfg["constraints"]))
    augments = _checked("augment", lambda: tuple(
        AugmentSpec(**entry) for entry in cfg["augment"]))
    return _checked("train", lambda: TrainConfig(
        **cfg["train"], augments=augments, policy=policy))


def _synthetic_task(s: dict):
    """The task a data.synthetic section describes; keys it leaves out take
    ``gen_synthetic``'s defaults."""
    try:
        return gen_synthetic(**{k: v for k, v in s.items()
                                if k != "train_fraction"})
    except RuntimeError as exc:  # the margin cannot be met
        raise ConfigError(f"data.synthetic: {exc}") from exc


def _class_windows(runs: list, stats, fault_ids: list, win_len: int,
                   stride: int) -> WindowedDataset:
    """The windows of every run, merged, with fault ids remapped to class
    indices (positions in the sorted ``fault_ids``). Each run is
    normalized into its slice of the merged series, so no normalized copy
    of a run is held beside it."""
    ds = merge_windows(make_windows(run, win_len, stride) for run in runs)
    slices = np.split(ds.series, np.cumsum([run.rows for run in runs])[:-1])
    for run, rows in zip(runs, slices):  # views of the series
        normalize_into(run, stats, rows)
    ds.labels = np.searchsorted(fault_ids, ds.labels)
    return ds


def build_datasets(cfg: dict):
    """(train windows, test windows or None, n_classes, channels).

    Plant-file mode loads d{NN}.dat / d{NN}_te.dat for the configured
    fault ids, normalizes with statistics fit on the training files only,
    and remaps fault ids to contiguous class indices (normal is always
    class 0). Test files that give no window (each holds the fault onset)
    are a ConfigError. Synthetic mode generates one task and splits it by
    train_fraction.
    """
    data = cfg["data"]
    if "synthetic" in data:
        s = data["synthetic"]
        task = _synthetic_task(s)
        frac = s.get("train_fraction", 2.0 / 3.0)
        n_train = int(round(frac * len(task)))
        win_len = task.win_len
        train_ds = WindowedDataset(task.windows[:n_train],
                                   task.labels[:n_train], win_len, win_len)
        test_ds = WindowedDataset(task.windows[n_train:],
                                  task.labels[n_train:], win_len, win_len)
        return train_ds, (test_ds if len(test_ds) else None), 2, task.channels

    root = data["path"]
    fault_ids = sorted(set(data["fault_ids"]) | {0})
    win_len, stride = data["win_len"], data["stride"]

    train_runs = [load_run(os.path.join(root, run_filename(fid, "train")),
                           fid, "train") for fid in fault_ids]
    stats = fit_normalize(train_runs)
    train_ds = _class_windows(train_runs, stats, fault_ids, win_len, stride)
    del train_runs  # their rows are normalized into train_ds.series
    test_paths = [(fid, os.path.join(root, run_filename(fid, "test")))
                  for fid in fault_ids]
    test_runs = [load_run(path, fid, "test") for fid, path in test_paths
                 if os.path.exists(path)]
    test_ds = (_class_windows(test_runs, stats, fault_ids, win_len, stride)
               if test_runs else None)
    if test_ds is not None and not len(test_ds):
        raise ConfigError(
            f"data: the test files give no window: every window of win_len "
            f"{win_len} cut every stride {stride} rows holds the fault onset "
            f"at row {FAULT_ONSET}, and those are dropped")
    return train_ds, test_ds, len(fault_ids), N_VARIABLES


def _echo_config(args, cfg: dict, seeded: dict | None = None) -> str:
    """Write the config to ``config.json`` in the output directory and
    return that directory. The overrides are folded into the config first,
    --seed into ``seeded`` (the section whose seed the command uses) and
    --out into ``output.dir``, so the echoed file reproduces the run."""
    if seeded is not None and args.seed is not None:
        seeded["seed"] = args.seed
    if args.out:
        cfg["output"]["dir"] = args.out
    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


# --------------------------------------------------------------------------
# Commands

def cmd_gradcheck(args) -> int:
    if args.config:
        load_config(args.config)  # validated for side effects only
    variants = (sorted(VARIANT_TYPES) if args.variant == "all"
                else [args.variant])
    base = args.seed if args.seed is not None else 0
    seeds = range(base, base + args.checks)
    failed = 0
    worst = 0.0
    for variant in variants:
        reports = run_variant_checks(variant, seeds=seeds, tol=args.tol)
        for report in reports:
            worst = max(worst, report.max_rel_err)
            if not report.passed:
                failed += 1
                print(report.to_text())
        status = ("pass" if all(r.passed for r in reports) else "FAIL")
        print(f"{variant:<14} {len(reports)} checks  "
              f"max_rel_err {max(r.max_rel_err for r in reports):.3e}  "
              f"{status}")
    print(f"total: {'FAIL' if failed else 'pass'} "
          f"(worst relative error {worst:.3e}, tolerance {args.tol:g})")
    return 1 if failed else 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out_dir = _echo_config(args, cfg, cfg["train"])
    tc = _train_config_from(cfg)
    train_ds, test_ds, n_classes, channels = build_datasets(cfg)
    net = build_network((train_ds.win_len, channels), n_classes,
                        cfg["model"]["layers"], policy=tc.policy,
                        seed=tc.seed)
    net, history = train(net, train_ds, tc, eval_dataset=test_ds)
    write_history_csv(history, os.path.join(out_dir, "metrics.csv"),
                      n_classes)
    save_model(net, os.path.join(out_dir, "model.bin"))
    if history:
        last = history[-1]
        print(f"trained {tc.epochs} epochs, final loss {last['loss']:.6f}, "
              f"accuracy {last.get('accuracy', float('nan')):.4f}")
    else:
        print("trained 0 epochs")
    print(f"wrote {out_dir}/metrics.csv and {out_dir}/model.bin")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    out_dir = _echo_config(args, cfg)
    train_ds, test_ds, n_classes, _ = build_datasets(cfg)
    target = test_ds if test_ds is not None else train_ds
    net = load_model(args.model)
    if net.n_classes != n_classes:
        raise ConfigError(
            f"model has {net.n_classes} classes, data has {n_classes}")
    metrics = evaluate(net, target)
    print(f"accuracy    {metrics.accuracy:.4f}")
    print(f"false_alarm {metrics.false_alarm:.4f}")
    for k, rate in enumerate(metrics.detection):
        print(f"detection[{k}] {rate:.4f}")
    print("confusion (rows = true):")
    for row in metrics.confusion:
        print("  " + " ".join(f"{v:6d}" for v in row))
    import csv

    with open(os.path.join(out_dir, "eval.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["accuracy", "false_alarm"]
                        + [f"det_{k}" for k in range(n_classes)])
        writer.writerow([repr(metrics.accuracy), repr(metrics.false_alarm)]
                        + [repr(float(v)) for v in metrics.detection])
    print(f"wrote {out_dir}/eval.csv")
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    if "synthetic" not in cfg["data"]:
        raise ConfigError("synth requires a data.synthetic section")
    out_dir = _echo_config(args, cfg, cfg["data"]["synthetic"])
    task = _synthetic_task(cfg["data"]["synthetic"])
    save_windows_csv(task.as_windowed(), os.path.join(out_dir, "dataset.csv"))
    print(f"generated {len(task)} windows "
          f"(exponent {task.exponent}, noise {task.noise}, "
          f"threshold {task.threshold:.6f}, margin {task.margin:.6f})")
    print(f"wrote {out_dir}/dataset.csv")
    return 0


def cmd_augment(args) -> int:
    cfg = load_config(args.config)
    out_dir = _echo_config(args, cfg, cfg["train"])
    tc = _train_config_from(cfg)
    train_ds, _, _, _ = build_datasets(cfg)
    rng = make_rng(tc.seed)
    streams = private_streams(tc.augments)
    windows = train_ds.windows
    augmented = np.stack([apply_pipeline(w, tc.augments, rng, streams)
                          for w in windows]) if len(windows) else windows
    out_ds = WindowedDataset(augmented, train_ds.labels,
                             train_ds.win_len, train_ds.stride)
    save_windows_csv(out_ds, os.path.join(out_dir, "augmented.csv"))
    print(f"augmented {len(out_ds)} windows with {len(tc.augments)} specs "
          f"(seed {tc.seed})")
    print(f"wrote {out_dir}/augmented.csv")
    return 0


# --------------------------------------------------------------------------
# Entry point

def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _positive_finite(text: str) -> float:
    """An argparse type: a finite float greater than 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # reported as any other unusable tolerance
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expconv",
        description="Exponent-weighted convolution experiments: gradient "
                    "checks, training, evaluation, data generation.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="override the configured seed (>= 0)")
    common.add_argument("--out", default=None,
                        help="override the configured output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="verify analytic gradients against finite "
                            "differences")
    p.add_argument("--variant", default="all",
                   choices=["all"] + sorted(VARIANT_TYPES))
    p.add_argument("--tol", type=_positive_finite, default=1e-6,
                   help="relative-error tolerance, finite and > 0 "
                        "(default 1e-6)")
    p.add_argument("--checks", type=_int_at_least(1), default=10,
                   help="seeds per variant and kernel shape (default 10)")
    p.set_defaults(func=cmd_gradcheck)

    for name, func, extra in (
            ("train", cmd_train, "train a model and write metrics + model"),
            ("eval", cmd_eval, "evaluate a saved model"),
            ("synth", cmd_synth, "generate a synthetic dataset"),
            ("augment", cmd_augment, "write augmented windows")):
        p = sub.add_parser(name, parents=[common], help=extra)
        if name == "eval":
            p.add_argument("--model", required=True,
                           help="path to a saved model file")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "gradcheck" and not args.config:
        print("error: --config is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a configured size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
