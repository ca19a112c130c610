"""Acceptance sweep: the eight headline guarantees of the package, each
asserted at its stated tolerance and runtime budget, with one printed
pass/fail line per criterion (run pytest with -s to see the lines for
passing criteria)."""

import json
import time

import numpy as np

from expconv import cli
from expconv.augment import draw_exponents, flip_bidirectional, flip_blockwise, flip_lr
from expconv.constraints import (
    ConstraintPolicy,
    effective_payload,
    forward_gap,
    init_exponents,
    payload_arrays,
    reparam_forward,
    reparam_invert,
)
from expconv.dataset import (
    FAULT_ONSET,
    N_VARIABLES,
    RawRun,
    WindowedDataset,
    apply_normalize,
    fit_normalize,
    gen_synthetic,
    load_run,
    make_windows,
    run_filename,
    save_run_text,
)
from expconv.gradients import run_variant_checks
from expconv.layers import (
    ColShared,
    LayerParams,
    RowShared,
    Standard,
    layer_forward,
    unit_elementwise,
    unit_full,
    unit_bilinear,
    unit_forward,
)
from expconv.numerics import kron, make_rng, vec
from expconv.training import (
    TrainConfig,
    _Adam,
    build_network,
    enforce_constraints,
    evaluate,
    network_param_arrays,
    train,
)

NONLINEAR_VARIANTS = ("elementwise", "row_shared", "col_shared",
                      "bilinear", "full_matrix")
ALL_VARIANTS = ("standard",) + NONLINEAR_VARIANTS


def _criterion(num: int, description: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {description} | {detail}")
    assert passed, f"criterion {num}: {description} | {detail}"


def _signed_logspace(rng, shape, lo, hi):
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), size=shape))
    signs = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return mags * signs


def test_criterion_1_reduction_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = make_rng(seed)
        x = _signed_logspace(rng, (6, 5), 1e-3, 10.0)
        weights = rng.normal(size=(1, 2, 2))
        bias = rng.normal(size=1)
        base = LayerParams(weights, bias, [Standard()],
                           activation="identity")
        ref = layer_forward(x, base)
        for variant in NONLINEAR_VARIANTS:
            layer = LayerParams(weights, bias,
                                [init_exponents(variant, 2, 2)],
                                activation="identity")
            worst = max(worst, float(np.max(np.abs(layer_forward(x, layer)
                                                   - ref))))
    elapsed = time.perf_counter() - start
    _criterion(
        1, "all five variants reduce to the standard layer at init",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |diff| {worst:.3e} (tol 1e-12), {elapsed:.2f} s (< 5 s)")


def test_criterion_2_formula_equivalence():
    start = time.perf_counter()
    worst_explog = 0.0
    shared_exact = True
    worst_kron = 0.0
    for seed in range(50):
        rng = make_rng(1000 + seed)
        # power-sum route vs an exp(log) route computed right here
        x = rng.uniform(0.5, 3.0, size=(2, 3))
        w1 = rng.normal(size=(2, 3))
        b = float(rng.normal())
        w2 = rng.uniform(-1.5, 2.5, size=(2, 3))
        power_sum = unit_elementwise(x, w1, b, w2)
        exp_log = float(np.sum(w1 * np.exp(w2 * np.log(x))) + b)
        worst_explog = max(worst_explog, abs(power_sum - exp_log))
        # shared forms equal the expanded elementwise form exactly
        row = rng.uniform(-1.5, 2.5, size=2)
        col = rng.uniform(-1.5, 2.5, size=3)
        xs = _signed_logspace(rng, (2, 3), 0.5, 3.0)
        if unit_forward(xs, w1, b, RowShared(row)) != unit_elementwise(
                xs, w1, b, np.tile(row[:, None], (1, 3))):
            shared_exact = False
        if unit_forward(xs, w1, b, ColShared(col)) != unit_elementwise(
                xs, w1, b, np.tile(col[None, :], (2, 1))):
            shared_exact = False
        # bilinear mixing equals the full matrix built from its Kronecker
        x3 = _signed_logspace(rng, (3, 3), 0.5, 2.0)
        w3 = rng.normal(size=(3, 3))
        row_mix = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        col_mix = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        bilinear = unit_bilinear(x3, w3, b, row_mix, col_mix)
        full = unit_full(vec(x3), vec(w3), b, kron(col_mix.T, row_mix))
        worst_kron = max(worst_kron, abs(bilinear - full))
    elapsed = time.perf_counter() - start
    _criterion(
        2, "power-sum, exp-log, shared and Kronecker routes agree",
        worst_explog <= 1e-12 and shared_exact and worst_kron <= 1e-10
        and elapsed < 5.0,
        f"explog diff {worst_explog:.3e} (tol 1e-12), shared exact "
        f"{shared_exact}, kron diff {worst_kron:.3e} (tol 1e-10), "
        f"{elapsed:.2f} s (< 5 s)")


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    failed = 0
    total = 0
    for variant in ALL_VARIANTS:
        reports = run_variant_checks(variant, seeds=range(50), tol=1e-6)
        total += len(reports)
        for report in reports:
            worst = max(worst, report.max_rel_err)
            failed += 0 if report.passed else 1
    elapsed = time.perf_counter() - start
    _criterion(
        3, "analytic gradients match central finite differences",
        failed == 0 and elapsed < 60.0,
        f"{total} checks (6 variants x 3 kernels x 50 seeds), "
        f"worst rel err {worst:.3e} (tol 1e-6, h=1e-5), "
        f"{elapsed:.1f} s (< 60 s)")


def test_criterion_4_constraint_enforcement():
    start = time.perf_counter()
    v_min, v_max = -2.0, 4.0
    specs = [{"variant": "elementwise", "k_h": 2, "k_w": 2},
             {"variant": "bilinear", "k_h": 2, "k_w": 2}]
    all_bounded = True
    clamped = 0  # optimizer steps that left a stored exponent outside
    for m, mode in ((0, "clip"), (2, "reparam")):
        policy = ConstraintPolicy(v_min=v_min, v_max=v_max, mode=mode,
                                  kind="sigmoid")
        net = build_network((6, 4), 2, specs, policy=policy, seed=4000 + m)
        rng = make_rng(5000 + m)
        optimizer = _Adam(lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
        payloads = [arr for layer in net.layers for ewm in layer.ewms
                    for arr in payload_arrays(ewm)]
        for _ in range(1000):
            pairs = [(arr, rng.standard_normal(arr.shape))
                     for arr in network_param_arrays(net)]
            optimizer.step(pairs)
            if mode == "clip":
                clamped += int(any(arr.min() < v_min or arr.max() > v_max
                                   for arr in payloads))
            enforce_constraints(net)
        for layer, pol in zip(net.layers, net.policies):
            for ewm in layer.ewms:
                for arr in payload_arrays(effective_payload(ewm, pol)):
                    if arr.min() < v_min or arr.max() > v_max:
                        all_bounded = False

    grid = np.linspace(-100.0, 100.0, 10_000)
    min_gap = np.inf
    worst_rt = 0.0
    for kind in ("sigmoid", "tanh", "hard_sigmoid"):
        policy = ConstraintPolicy(v_min=v_min, v_max=v_max, mode="reparam",
                                  kind=kind)
        min_gap = min(min_gap,
                      float(np.min(forward_gap(grid[:-1], grid[1:], policy))))
        targets = np.linspace(v_min + 1e-9, v_max - 1e-9, 10_000)
        back = reparam_forward(reparam_invert(targets, policy), policy)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - targets))))
    elapsed = time.perf_counter() - start
    _criterion(
        4, "exponents stay in [-2, 4] under all modes; maps monotone "
           "and surjective",
        all_bounded and clamped > 0 and min_gap > 0.0
        and worst_rt <= 1e-9 and elapsed < 30.0,
        f"1000 Adam steps x 2 modes bounded ({clamped} steps needed "
        f"clamping), min forward gap {min_gap:.3e} over 10^4 points, "
        f"round-trip err {worst_rt:.3e}, {elapsed:.1f} s (< 30 s)")


def test_criterion_5_exponent_recovery():
    start = time.perf_counter()
    exponents = []
    wins = 0
    nl_accs = []
    st_accs = []
    for s in range(20):
        task = gen_synthetic(win_len=8, channels=4, exponent=2.0,
                             noise=0.05, count=240, seed=1000 + s)
        train_ds = WindowedDataset(task.windows[:160], task.labels[:160],
                                   win_len=8, stride=8)
        test_ds = WindowedDataset(task.windows[160:], task.labels[160:],
                                  win_len=8, stride=8)
        config = TrainConfig(epochs=60, batch_size=16, learning_rate=1e-2,
                             seed=3000 + s, eval_every=60)
        accs = {}
        for variant in ("elementwise", "standard"):
            spec = [{"variant": variant, "k_h": 1, "k_w": 1,
                     "activation": "identity"}]
            net = build_network((8, 4), 2, spec, seed=2000 + s)
            net, _ = train(net, train_ds, config)
            accs[variant] = evaluate(net, test_ds).accuracy
            if variant == "elementwise":
                exponents.append(float(net.layers[0].ewms[0]
                                       .exponents[0, 0]))
        nl_accs.append(accs["elementwise"])
        st_accs.append(accs["standard"])
        wins += int(accs["elementwise"] >= accs["standard"])
    median_w = float(np.median(exponents))
    mean_nl = float(np.mean(nl_accs))
    mean_st = float(np.mean(st_accs))
    elapsed = time.perf_counter() - start
    _criterion(
        5, "trained exponent recovers the generator and beats the "
           "matched linear baseline",
        1.8 <= median_w <= 2.2 and mean_nl >= mean_st and elapsed < 600.0,
        f"median exponent {median_w:.3f} (target [1.8, 2.2]), accuracy "
        f"{mean_nl:.4f} vs {mean_st:.4f} (per-seed wins {wins}/20), "
        f"{elapsed:.1f} s (< 600 s)")


def test_criterion_6_augmentation_suite():
    start = time.perf_counter()
    flips_ok = True
    multiset_ok = True
    for seed in range(50):
        x = make_rng(seed).normal(size=(9, 4))
        for flip in (flip_lr, flip_bidirectional,
                     lambda a: flip_blockwise(a, 3),
                     lambda a: flip_blockwise(a, 4)):
            once = flip(x)
            if not np.array_equal(flip(once), x):
                flips_ok = False
            if sorted(once.ravel()) != sorted(x.ravel()):
                multiset_ok = False
    draws = draw_exponents((100_000, 1), "per_row", -2.0, 4.0,
                           make_rng(777))
    in_range = bool(draws.min() >= -2.0 and draws.max() <= 4.0)
    se = (4.0 - (-2.0)) / np.sqrt(12.0) / np.sqrt(draws.size)
    mean_err = abs(float(draws.mean()) - 1.0)
    per_row = draw_exponents((40, 6), "per_row", -2.0, 4.0, make_rng(778))
    broadcast = np.broadcast_to(per_row, (40, 6))
    rows_constant = bool(np.all(broadcast == broadcast[:, :1]))
    elapsed = time.perf_counter() - start
    _criterion(
        6, "flips are exact involutions; exponent draws uniform on "
           "[-2, 4]",
        flips_ok and multiset_ok and in_range and mean_err <= 3 * se
        and rows_constant and elapsed < 10.0,
        f"involutions {flips_ok}, multiset {multiset_ok}, 10^5 draws in "
        f"range {in_range}, |mean-1| {mean_err:.4f} <= {3 * se:.4f}, "
        f"per_row constant {rows_constant}, {elapsed:.2f} s (< 10 s)")


def test_criterion_7_ingestion_protocol(tmp_path):
    start = time.perf_counter()
    rng = make_rng(9000)
    normal = RawRun(rng.normal(size=(500, N_VARIABLES)), 0, "train")
    faulty = RawRun(rng.normal(loc=0.3, size=(480, N_VARIABLES)), 1, "train")
    test = RawRun(rng.normal(loc=0.3, size=(960, N_VARIABLES)), 1, "test")
    save_run_text(normal, tmp_path / run_filename(0, "train"))
    save_run_text(faulty, tmp_path / run_filename(1, "train"))
    save_run_text(test, tmp_path / run_filename(1, "test"))
    np.savetxt(tmp_path / "d02_te.dat", test.matrix.T, fmt="%.17g")

    shapes_ok = (
        load_run(tmp_path / "d01.dat", 1, "train").matrix.shape == (480, 52)
        and load_run(tmp_path / "d01_te.dat", 1, "test").matrix.shape
        == (960, 52))
    fixed = load_run(tmp_path / "d02_te.dat", 2, "test")
    orientation_ok = (fixed.matrix.shape == (960, 52)
                      and np.array_equal(fixed.matrix, test.matrix))
    short = tmp_path / "short.dat"
    np.savetxt(short, np.zeros((479, N_VARIABLES)))
    enforced = False
    try:
        load_run(short, 1, "train")
    except ValueError:
        try:
            load_run(short, 1, "test")
        except ValueError:
            enforced = True

    loaded_test = load_run(tmp_path / "d01_te.dat", 1, "test")
    coarse = make_windows(loaded_test, win_len=20, stride=20)
    counts_ok = (len(coarse) == 48
                 and int(np.sum(coarse.labels == 0)) == 8
                 and int(np.sum(coarse.labels == 1)) == 40)
    fine = make_windows(loaded_test, win_len=40, stride=10)
    starts = range(0, 960 - 40 + 1, 10)
    expect_normal = sum(1 for s in starts if s + 40 <= FAULT_ONSET)
    expect_fault = sum(1 for s in starts if s >= FAULT_ONSET)
    counts_ok = counts_ok and (
        len(fine) == expect_normal + expect_fault
        and int(np.sum(fine.labels == 0)) == expect_normal == 13
        and int(np.sum(fine.labels == 1)) == expect_fault == 77)

    train_runs = [load_run(tmp_path / "d00.dat", 0, "train"),
                  load_run(tmp_path / "d01.dat", 1, "train")]
    stats = fit_normalize(train_runs)
    stacked = np.concatenate([apply_normalize(r, stats).matrix
                              for r in train_runs])
    mean_err = float(np.max(np.abs(stacked.mean(axis=0))))
    std_err = float(np.max(np.abs(stacked.std(axis=0) - 1.0)))
    elapsed = time.perf_counter() - start
    _criterion(
        7, "plant-run ingestion enforces shapes and the onset label rule",
        shapes_ok and orientation_ok and enforced and counts_ok
        and mean_err <= 1e-10 and std_err <= 1e-10 and elapsed < 5.0,
        f"shapes {shapes_ok}, orientation fix {orientation_ok}, counts "
        f"{counts_ok}, mean err {mean_err:.2e}, std err {std_err:.2e}, "
        f"{elapsed:.2f} s (< 5 s)")


def test_criterion_8_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    cfg = {
        "data": {"synthetic": {"win_len": 8, "channels": 4,
                               "exponent": 2.0, "noise": 0.05,
                               "count": 120, "seed": 5,
                               "train_fraction": 0.67}},
        "model": {"layers": [{"variant": "elementwise", "k_h": 2,
                              "k_w": 2, "activation": "tanh"}]},
        "augment": [{"op": "flip_lr", "probability": 0.5}],
        "train": {"epochs": 5, "batch_size": 16, "learning_rate": 0.003,
                  "seed": 11},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(cfg))
    codes = [cli.main(["train", "--config", str(config_path),
                       "--out", str(tmp_path / sub)]) for sub in ("a", "b")]
    model_same = (tmp_path / "a" / "model.bin").read_bytes() \
        == (tmp_path / "b" / "model.bin").read_bytes()
    metrics_same = (tmp_path / "a" / "metrics.csv").read_text() \
        == (tmp_path / "b" / "metrics.csv").read_text()
    elapsed = time.perf_counter() - start
    _criterion(
        8, "identical config and seed give byte-identical artifacts",
        codes == [0, 0] and model_same and metrics_same and elapsed < 120.0,
        f"exit codes {codes}, model bytes equal {model_same}, metrics "
        f"equal {metrics_same}, {elapsed:.1f} s (< 120 s)")
