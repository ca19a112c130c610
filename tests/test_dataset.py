"""Run ingestion, normalization, onset-aware windowing, the synthetic
two-class generator, and the CSV window cache."""

import hashlib
import json
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expconv import dataset
from expconv.dataset import (
    FAULT_ONSET,
    FAULTY_TRAIN_ROWS,
    N_VARIABLES,
    SPLITS,
    TEST_ROWS,
    NormStats,
    RawRun,
    SyntheticTask,
    WindowedDataset,
    apply_normalize,
    energy_feature,
    fit_normalize,
    gen_synthetic,
    load_run,
    load_windows_csv,
    make_windows,
    merge_windows,
    run_filename,
    save_run_text,
    save_windows_csv,
)
from expconv.numerics import make_rng, signed_pow


def fake_run(seed, rows, fault_id=1, split="train"):
    matrix = make_rng(seed).normal(size=(rows, N_VARIABLES))
    return RawRun(matrix, fault_id=fault_id, split=split)


class TestRunTypes:
    def test_width_enforced(self):
        with pytest.raises(ValueError):
            RawRun(np.zeros((10, 51)), fault_id=0, split="train")

    def test_fault_id_range(self):
        with pytest.raises(ValueError):
            RawRun(np.zeros((10, N_VARIABLES)), fault_id=22, split="train")

    def test_split_checked(self):
        with pytest.raises(ValueError):
            RawRun(np.zeros((10, N_VARIABLES)), fault_id=0, split="valid")

    def test_norm_stats_require_positive_std(self):
        with pytest.raises(ValueError):
            NormStats(np.zeros(3), np.array([1.0, 0.0, 1.0]))

    def test_windowed_alignment(self):
        with pytest.raises(ValueError):
            WindowedDataset(np.zeros((4, 5, 2)), np.zeros(3), win_len=5,
                            stride=5)


class TestFilenames:
    def test_train_and_test_names(self):
        assert run_filename(0, "train") == "d00.dat"
        assert run_filename(7, "train") == "d07.dat"
        assert run_filename(13, "test") == "d13_te.dat"


class TestLoadRun:
    def test_round_trip(self, tmp_path):
        run = fake_run(0, FAULTY_TRAIN_ROWS)
        path = tmp_path / run_filename(1, "train")
        save_run_text(run, path)
        back = load_run(path, fault_id=1, split="train")
        np.testing.assert_array_equal(back.matrix, run.matrix)
        assert back.matrix.shape == (480, 52)

    def test_test_run_shape(self, tmp_path):
        run = fake_run(1, TEST_ROWS, fault_id=3, split="test")
        path = tmp_path / run_filename(3, "test")
        save_run_text(run, path)
        back = load_run(path, fault_id=3, split="test")
        assert back.matrix.shape == (960, 52)

    def test_transposed_file_auto_fixed(self, tmp_path):
        matrix = make_rng(2).normal(size=(TEST_ROWS, N_VARIABLES))
        path = tmp_path / "d04_te.dat"
        np.savetxt(path, matrix.T, fmt="%.17g")  # stored as 52 x 960
        back = load_run(path, fault_id=4, split="test")
        assert back.matrix.shape == (960, 52)
        np.testing.assert_array_equal(back.matrix, matrix)

    def test_faulty_train_row_count_enforced(self, tmp_path):
        run = RawRun(np.zeros((479, N_VARIABLES)), fault_id=1, split="train")
        path = tmp_path / "d01.dat"
        save_run_text(run, path)
        with pytest.raises(ValueError, match="480"):
            load_run(path, fault_id=1, split="train")

    def test_test_row_count_enforced(self, tmp_path):
        run = RawRun(np.zeros((959, N_VARIABLES)), fault_id=1, split="train")
        path = tmp_path / "d01_te.dat"
        save_run_text(run, path)
        with pytest.raises(ValueError, match="960"):
            load_run(path, fault_id=1, split="test")

    def test_normal_train_any_length(self, tmp_path):
        run = fake_run(3, 500, fault_id=0)
        path = tmp_path / "d00.dat"
        save_run_text(run, path)
        assert load_run(path, fault_id=0, split="train").rows == 500

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "d01.dat"
        path.write_text("1.0 2.0 not_a_number\n")
        with pytest.raises(ValueError, match="could not parse"):
            load_run(path, fault_id=1, split="train")

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "d01.dat"
        np.savetxt(path, np.zeros((10, 40)))
        with pytest.raises(ValueError, match="neither dimension"):
            load_run(path, fault_id=1, split="train")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_entry_named_where_the_file_holds_it(self, tmp_path,
                                                             token):
        # stored as 52 x 960, so the entry's row and column are those of
        # the file, before the transpose
        lines = [" ".join(["0.5"] * TEST_ROWS)] * N_VARIABLES
        row = lines[2].split()
        row[6] = token
        lines[2] = " ".join(row)
        path = tmp_path / "d04_te.dat"
        path.write_text("\n".join(lines) + "\n")
        value = float(token)
        with pytest.raises(ValueError) as err:
            load_run(path, fault_id=4, split="test")
        assert str(err.value) == (f"{path}: non-finite value {value} at "
                                  "row 3, column 7")

    @pytest.mark.parametrize("text", ["", "\n\n", "# comment only\n"])
    def test_empty_file_rejected_without_a_warning(self, tmp_path, text):
        path = tmp_path / "d00.dat"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data"):
                load_run(path, fault_id=0, split="train")


class TestNormalization:
    def test_fit_then_apply_standardizes(self):
        runs = [fake_run(s, FAULTY_TRAIN_ROWS) for s in range(3)]
        stats = fit_normalize(runs)
        stacked = np.concatenate(
            [apply_normalize(r, stats).matrix for r in runs])
        assert np.max(np.abs(stacked.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(stacked.std(axis=0) - 1.0)) <= 1e-10

    def test_population_std_used(self):
        run = fake_run(4, 100)
        stats = fit_normalize([run])
        np.testing.assert_allclose(stats.std, run.matrix.std(axis=0, ddof=0),
                                   rtol=0, atol=0)

    def test_zero_variance_column_rejected(self):
        matrix = make_rng(5).normal(size=(50, N_VARIABLES))
        matrix[:, 17] = 2.5
        with pytest.raises(ValueError, match="17"):
            fit_normalize([RawRun(matrix, fault_id=0, split="train")])

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            fit_normalize([])

    @pytest.mark.parametrize("values", [(1e308, -1e308), (1e308, 1e308),
                                        (-1e308, -1e308)])
    def test_non_finite_statistics_rejected(self, values):
        # the variance (or the sum) overflows: an error naming the
        # column, not a warning and a column normalized to -0.0
        matrix = make_rng(5).normal(size=(50, N_VARIABLES))
        matrix[[3, 9], 21] = values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"non-finite mean or std in columns: "
                                     r"\[21\]"):
                fit_normalize([RawRun(matrix, fault_id=0, split="train")])

    def test_value_overflowing_when_normalized_rejected(self):
        stats = NormStats(np.zeros(N_VARIABLES), np.full(N_VARIABLES, 0.5))
        matrix = np.zeros((TEST_ROWS, N_VARIABLES))
        matrix[200, 4] = -1e308
        run = RawRun(matrix, fault_id=2, split="test")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                apply_normalize(run, stats)
        assert str(err.value) == ("test run of fault 2: value -1e+308 at "
                                  "row 201, column 5 is not finite once "
                                  "normalized")

    def test_stats_fit_on_train_do_not_center_test(self):
        train = fake_run(6, 200)
        test = fake_run(7, TEST_ROWS, split="test")
        stats = fit_normalize([train])
        out = apply_normalize(test, stats)
        # different draw, so the test split keeps a nonzero mean
        assert np.max(np.abs(out.matrix.mean(axis=0))) > 1e-3


class TestMakeWindows:
    def test_train_windows_all_fault_labeled(self):
        run = fake_run(8, FAULTY_TRAIN_ROWS, fault_id=5)
        ds = make_windows(run, win_len=40, stride=40)
        assert len(ds) == 12
        assert np.all(ds.labels == 5)

    def test_whole_run_single_window(self):
        run = fake_run(9, 100, fault_id=2)
        ds = make_windows(run, win_len=100, stride=7)
        assert len(ds) == 1
        np.testing.assert_array_equal(ds.windows[0], run.matrix)

    def test_onset_rule_counts_without_straddlers(self):
        run = fake_run(10, TEST_ROWS, fault_id=9, split="test")
        ds = make_windows(run, win_len=20, stride=20)
        assert len(ds) == 48
        assert int(np.sum(ds.labels == 0)) == 8
        assert int(np.sum(ds.labels == 9)) == 40

    def test_onset_rule_drops_straddlers(self):
        run = fake_run(11, TEST_ROWS, fault_id=2, split="test")
        ds = make_windows(run, win_len=40, stride=10)
        starts = range(0, TEST_ROWS - 40 + 1, 10)
        normal = sum(1 for s in starts if s + 40 <= FAULT_ONSET)
        faulty = sum(1 for s in starts if s >= FAULT_ONSET)
        assert normal == 13 and faulty == 77
        assert len(ds) == normal + faulty  # 3 straddlers dropped from 93
        assert int(np.sum(ds.labels == 0)) == normal
        assert int(np.sum(ds.labels == 2)) == faulty

    def test_label_rule_exhaustive(self):
        run = fake_run(12, TEST_ROWS, fault_id=1, split="test")
        for win_len, stride in [(17, 3), (40, 10), (31, 31)]:
            ds = make_windows(run, win_len=win_len, stride=stride)
            total = len(range(0, TEST_ROWS - win_len + 1, stride))
            starts = range(0, TEST_ROWS - win_len + 1, stride)
            dropped = sum(1 for s in starts
                          if s < FAULT_ONSET < s + win_len)
            assert len(ds) + dropped == total

    def test_window_contents_match_run(self):
        run = fake_run(13, 60, fault_id=3)
        ds = make_windows(run, win_len=20, stride=10)
        np.testing.assert_array_equal(ds.windows[2], run.matrix[20:40])
        window, label = ds[2]
        assert label == 3

    def test_win_len_longer_than_run(self):
        with pytest.raises(ValueError):
            make_windows(fake_run(14, 30), win_len=31, stride=1)

    def test_merge_concatenates(self):
        a = make_windows(fake_run(15, 60, fault_id=1), win_len=20, stride=20)
        b = make_windows(fake_run(16, 60, fault_id=2), win_len=20, stride=20)
        merged = merge_windows([a, b])
        assert len(merged) == len(a) + len(b)
        np.testing.assert_array_equal(merged.labels,
                                      np.concatenate([a.labels, b.labels]))

    def test_merge_rejects_mixed_lengths(self):
        a = make_windows(fake_run(17, 60), win_len=20, stride=20)
        b = make_windows(fake_run(18, 60), win_len=30, stride=30)
        with pytest.raises(ValueError):
            merge_windows([a, b])


    def test_merge_rejects_mixed_strides(self):
        a = make_windows(fake_run(20, 60), win_len=20, stride=5)
        b = make_windows(fake_run(21, 60), win_len=20, stride=2)
        with pytest.raises(ValueError, match="strides differ: 5 and 2"):
            merge_windows([a, b])

    def test_merge_rejects_mixed_channel_counts(self):
        a = WindowedDataset(np.zeros((2, 4, 3)), [0, 0], 4, 4)
        b = WindowedDataset(np.zeros((2, 4, 4)), [0, 0], 4, 4)
        with pytest.raises(ValueError, match="channel counts differ: 3 and 4"):
            merge_windows([a, b])


class TestSeries:
    """A dataset holds its rows once, as a series and window starts."""

    def test_make_windows_keeps_the_run_as_its_series(self):
        run = fake_run(22, TEST_ROWS, fault_id=2, split="test")
        ds = make_windows(run, win_len=40, stride=10)
        assert ds.series is run.matrix
        starts = np.arange(0, TEST_ROWS - 40 + 1, 10)
        assert ds.starts.tolist() == starts[(starts + 40 <= FAULT_ONSET)
                                            | (starts >= FAULT_ONSET)].tolist()

    def test_merge_joins_the_series(self):
        runs = [fake_run(23, 60), fake_run(24, 90, fault_id=2)]
        parts = [make_windows(run, win_len=20, stride=10) for run in runs]
        merged = merge_windows(parts)
        np.testing.assert_array_equal(
            merged.series, np.concatenate([run.matrix for run in runs]))
        assert merged.starts.tolist() == parts[0].starts.tolist() + (
            parts[1].starts + 60).tolist()
        np.testing.assert_array_equal(
            merged.windows, np.concatenate([p.windows for p in parts]))

    def test_continuing_windows_are_held_back_to_back(self):
        # a window array says nothing of where its windows were cut, so
        # windows that share rows are held as they are given
        series = make_rng(25).normal(size=(70, 3))
        windows = series[np.arange(0, 31, 10)[:, None] + np.arange(40)]
        ds = WindowedDataset(windows, np.zeros(4, dtype=int), 40, 10)
        np.testing.assert_array_equal(ds.series, windows.reshape(160, 3))
        assert ds.starts.tolist() == [0, 40, 80, 120]
        np.testing.assert_array_equal(ds.windows, windows)

    @pytest.mark.parametrize("stride", [8, 3])
    def test_windows_sharing_no_rows_keep_their_array(self, stride):
        # with stride 3 they could share rows, but do not
        windows = make_rng(26).normal(size=(5, 8, 3))
        ds = WindowedDataset(windows, np.zeros(5, dtype=int), 8, stride)
        assert np.shares_memory(ds.series, windows)
        assert ds.starts.tolist() == [0, 8, 16, 24, 32]
        np.testing.assert_array_equal(ds.windows, windows)

    def test_edited_and_nan_windows_keep_rows_of_their_own(self):
        series = make_rng(27).normal(size=(80, 3))
        windows = series[np.arange(0, 41, 5)[:, None] + np.arange(40)]
        windows[2, -1, 0] += 1.0  # window 3 no longer continues window 2
        windows[5, 15, 1] = np.nan  # window 5 neither continues nor is
        ds = WindowedDataset(windows, np.zeros(9, dtype=int), 40, 5)
        assert ds.starts.tolist() == list(range(0, 360, 40))
        assert len(ds.series) == 360
        np.testing.assert_array_equal(ds.windows, windows)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_stride_below_1_rejected(self, stride):
        with pytest.raises(ValueError,
                           match=f"stride must be >= 1, got {stride}"):
            WindowedDataset(np.zeros((2, 5, 3)), np.zeros(2), 5, stride)


def per_window_make_windows(run, win_len, stride):
    """Windowing as it cut one window at a time: the oracle of the
    single index."""
    if win_len < 1 or stride < 1:
        raise ValueError("win_len and stride must be >= 1")
    if win_len > run.rows:
        raise ValueError(
            f"win_len {win_len} exceeds run length {run.rows}")
    windows = []
    labels = []
    for start in range(0, run.rows - win_len + 1, stride):
        end = start + win_len  # exclusive
        if run.split == "test":
            if end <= FAULT_ONSET:
                label = 0
            elif start >= FAULT_ONSET:
                label = run.fault_id
            else:
                continue  # straddles the onset
        else:
            label = run.fault_id
        windows.append(run.matrix[start:end])
        labels.append(label)
    if windows:
        stacked = np.stack(windows)
    else:
        stacked = np.zeros((0, win_len, run.matrix.shape[1]))
    return WindowedDataset(stacked, np.asarray(labels, dtype=np.int64),
                           win_len=win_len, stride=stride)


def windowing(make, run, win_len, stride):
    """The windows' shape, dtype and bytes and the labels a windowing
    gives, or the error it raises."""
    try:
        ds = make(run, win_len, stride)
    except ValueError as exc:
        return str(exc)
    return (ds.windows.shape, ds.windows.dtype, ds.windows.tobytes(),
            ds.labels.dtype, ds.labels.tobytes(), ds.win_len, ds.stride)


class TestWindowIndex:
    @given(rows=st.integers(1, 400), win_len=st.integers(-1, 420),
           stride=st.integers(-1, 60), split=st.sampled_from(SPLITS),
           fault_id=st.integers(0, dataset.MAX_FAULT_ID),
           seed=st.integers(0, 2**16))
    @example(rows=200, win_len=170, stride=50, split="test", fault_id=3,
             seed=0)  # the one window straddles the onset: none are left
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_one_window_at_a_time(self, rows, win_len, stride,
                                                split, fault_id, seed):
        run = fake_run(seed, rows, fault_id=fault_id, split=split)
        assert windowing(make_windows, run, win_len, stride) == \
            windowing(per_window_make_windows, run, win_len, stride)

    def test_every_test_window_dropped(self):
        run = fake_run(19, 200, fault_id=3, split="test")
        ds = make_windows(run, win_len=170, stride=50)
        assert ds.windows.shape == (0, 170, N_VARIABLES)
        assert ds.labels.dtype == np.int64 and len(ds) == 0


class TestSyntheticTask:
    def test_energy_feature_hand_value(self):
        assert energy_feature(np.array([[2.0, -3.0]]), 2.0) == -5.0

    def test_noiseless_task_exactly_separable(self):
        task = gen_synthetic(win_len=6, channels=3, exponent=2.0, noise=0.0,
                             count=80, seed=21)
        feats = np.array([energy_feature(w, task.exponent)
                          for w in task.windows])
        assert np.all(feats[task.labels == 0] <= task.threshold - task.margin)
        assert np.all(feats[task.labels == 1] >= task.threshold + task.margin)

    def test_labels_balanced(self):
        task = gen_synthetic(count=50, seed=22)
        assert int(task.labels.sum()) == 25
        np.testing.assert_array_equal(task.labels[:4], [0, 1, 0, 1])

    def test_deterministic_by_seed(self):
        a = gen_synthetic(count=30, seed=23)
        b = gen_synthetic(count=30, seed=23)
        np.testing.assert_array_equal(a.windows, b.windows)
        assert a.threshold == b.threshold and a.margin == b.margin

    def test_noise_perturbs_but_keeps_labels(self):
        clean = gen_synthetic(count=30, seed=24, noise=0.0)
        noisy = gen_synthetic(count=30, seed=24, noise=0.05)
        np.testing.assert_array_equal(clean.labels, noisy.labels)
        assert not np.array_equal(clean.windows, noisy.windows)
        assert np.max(np.abs(clean.windows - noisy.windows)) < 0.5

    def test_magnitudes_within_requested_band_when_noiseless(self):
        task = gen_synthetic(count=40, seed=25, noise=0.0,
                             mag_lo=0.2, mag_hi=3.0)
        mags = np.abs(task.windows)
        assert mags.min() >= 0.2 and mags.max() <= 3.0

    @pytest.mark.parametrize("field, value", [
        ("noise", 1e308), ("exponent", 1e308), ("mag_hi", 1e200)])
    def test_overflow_raises_naming_the_parameter(self, field, value):
        # the pilot features (exponent, mag_hi) or the noisy windows (noise)
        # leave the float64 range
        with pytest.raises(FloatingPointError,
                           match=re.escape(f"{field}={value:g}")):
            gen_synthetic(win_len=6, channels=3, count=30, seed=28,
                          **{field: value})

    def test_impossible_margin_exhausts_budget(self):
        with pytest.raises(RuntimeError, match="budget"):
            gen_synthetic(count=2, seed=26, margin_scale=100.0)

    def test_as_windowed(self):
        task = gen_synthetic(win_len=5, channels=2, count=10, seed=27)
        ds = task.as_windowed()
        assert isinstance(ds, WindowedDataset)
        assert ds.windows.shape == (10, 5, 2)
        assert ds.win_len == 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic(noise=-0.1)
        with pytest.raises(ValueError):
            gen_synthetic(mag_lo=0.0)
        for sizes in ({"win_len": 0}, {"channels": 0}):
            with pytest.raises(ValueError, match="must be >= 1"):
                gen_synthetic(**sizes)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [
        "exponent", "noise", "margin_scale", "mag_lo", "mag_hi"])
    def test_non_finite_parameter_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            gen_synthetic(count=4, **{field: value})

    @pytest.mark.parametrize("sizes", [
        {"win_len": 10**13}, {"count": 10**14}])
    def test_unallocatable_size_raises_memory_error(self, sizes):
        # hundreds of TiB, refused at once without allocating anything
        with pytest.raises(MemoryError):
            gen_synthetic(**{"win_len": 8, "channels": 4, **sizes})


def per_candidate_gen_synthetic(win_len, channels, exponent, noise, count,
                                seed, margin_scale, mag_lo, mag_hi):
    """The generator as it drew one candidate window at a time: the oracle
    of the block draws."""
    def draw(rng):
        mags = np.exp(rng.uniform(np.log(mag_lo), np.log(mag_hi),
                                  size=(win_len, channels)))
        signs = np.where(rng.uniform(size=(win_len, channels)) < 0.5,
                         -1.0, 1.0)
        return signs * mags

    rng = make_rng(seed)
    pilot = np.array([energy_feature(draw(rng), exponent)
                      for _ in range(256)])
    threshold = float(np.median(pilot))
    margin = float(margin_scale * pilot.std())
    if margin <= 0:
        raise ValueError("degenerate feature distribution (zero spread)")
    windows = np.zeros((count, win_len, channels))
    labels = np.zeros(count, dtype=np.int64)
    for i in range(count):
        target = i % 2
        for _ in range(dataset.ENERGY_REJECT_BUDGET):
            cand = draw(rng)
            f = energy_feature(cand, exponent)
            if target == 0 and f <= threshold - margin:
                break
            if target == 1 and f >= threshold + margin:
                break
        else:
            raise RuntimeError(
                f"rejection budget exhausted for class {target}; "
                "margin_scale too aggressive for these task parameters")
        windows[i] = cand
        labels[i] = target
    if noise > 0 and count > 0:
        windows = windows + noise * rng.standard_normal(windows.shape)
    return windows, labels, threshold, margin


def outcome(generate, **params):
    """The bytes a generator emits, or the error it raises."""
    try:
        out = generate(**params)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(out, SyntheticTask):
        out = out.windows, out.labels, out.threshold, out.margin
    windows, labels, threshold, margin = out
    return (windows.shape, windows.tobytes(), labels.tobytes(),
            np.float64(threshold).tobytes(), np.float64(margin).tobytes())


def task_digest(task) -> str:
    return hashlib.sha256(task.windows.tobytes()
                          + task.labels.tobytes()).hexdigest()[:16]


TINY_SYNTH = (Path(__file__).resolve().parents[1] / "configs"
              / "tiny_synth.json")


class TestBlockDraws:
    @given(win_len=st.integers(1, 12), channels=st.integers(1, 12),
           count=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(-3.0, 4.0),
           margin_scale=st.floats(0.01, 3.0),
           mag_lo=st.floats(0.01, 2.0), spread=st.floats(1.01, 100.0),
           noise=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
           budget=st.sampled_from([1, 2, 3, dataset.ENERGY_REJECT_BUDGET]))
    @settings(max_examples=80, deadline=None)
    def test_same_bytes_as_one_candidate_at_a_time(
            self, win_len, channels, count, seed, exponent, margin_scale,
            mag_lo, spread, noise, budget):
        params = dict(win_len=win_len, channels=channels, exponent=exponent,
                      noise=noise, count=count, seed=seed,
                      margin_scale=margin_scale, mag_lo=mag_lo,
                      mag_hi=mag_lo * spread)
        # small budgets run out often: then both raise for the same class,
        # and a window accepted at the budget's last candidate is kept
        with mock.patch.object(dataset, "ENERGY_REJECT_BUDGET", budget):
            assert outcome(gen_synthetic, **params) == \
                outcome(per_candidate_gen_synthetic, **params)

        windows, feats = dataset._candidate_block(
            make_rng(seed), 3, win_len, channels, exponent,
            np.log(mag_lo), np.log(mag_lo * spread))
        assert feats.tolist() == [energy_feature(w, exponent)
                                  for w in windows]

    def test_exhausted_budget_raises_for_the_same_class(self):
        params = dict(win_len=1, channels=1, exponent=2.0, noise=0.0,
                      count=3, seed=4, margin_scale=3.0, mag_lo=0.2,
                      mag_hi=3.0)
        want = outcome(per_candidate_gen_synthetic, **params)
        assert want[0] is RuntimeError and "budget" in want[1]
        assert outcome(gen_synthetic, **params) == want

    @pytest.mark.parametrize("params, digest", [
        (dict(win_len=40, channels=52, exponent=2.0, noise=0.05, count=240,
              seed=5), "e200eddf6646550c"),
        ("tiny_synth", "e90c60d0833be64e")])
    def test_stream_is_pinned(self, params, digest):
        if params == "tiny_synth":
            params = json.loads(TINY_SYNTH.read_text())["data"]["synthetic"]
            params.pop("train_fraction")
        assert task_digest(gen_synthetic(**params)) == digest

    def test_peak_memory_stays_near_the_output(self):
        gen_synthetic(win_len=4, channels=3, count=4, seed=1)
        tracemalloc.start()
        try:
            task = gen_synthetic(win_len=40, channels=52, exponent=2.0,
                                 noise=0.05, count=240, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * task.windows.nbytes + 2 * 2**20


# the shape line and series header of a version-2 cache of three rows of
# two channels and two windows of two rows
V2 = "# version=2 win_len=2 channels=2 stride=1 rows=3 windows=2\nc0,c1\n"


class TestWindowsCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        task = gen_synthetic(win_len=4, channels=3, count=12, seed=30)
        ds = task.as_windowed()
        path = tmp_path / "cache.csv"
        save_windows_csv(ds, path)
        back = load_windows_csv(path)
        np.testing.assert_array_equal(back.windows, ds.windows)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert (back.win_len, back.stride) == (ds.win_len, ds.stride)

    def test_header_layout(self, tmp_path):
        # the series once, then a start and a label per window
        ds = make_windows(fake_run(31, 60, fault_id=1), win_len=20, stride=10)
        path = tmp_path / "cache.csv"
        save_windows_csv(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("# version=2 win_len=20 channels=52 stride=10 "
                            "rows=60 windows=5")
        assert lines[1] == ",".join(f"c{j}" for j in range(52))
        assert lines[62] == "start,label"
        assert lines[63:] == [f"{s},1" for s in range(0, 41, 10)]

    def test_plant_round_trip_gives_back_the_dataset(self, tmp_path):
        runs = [fake_run(34, TEST_ROWS, fault_id=2, split="test"),
                fake_run(35, 250), fake_run(36, 480, fault_id=3)]
        ds = merge_windows(make_windows(run, win_len=40, stride=10)
                           for run in runs)
        path = tmp_path / "cache.csv"
        save_windows_csv(ds, path)
        back = load_windows_csv(path)
        for name in ("series", "starts", "labels"):
            want, got = getattr(ds, name), getattr(back, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert (back.win_len, back.stride) == (40, 10)

    def test_missing_shape_line_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,v0\n0,1.0\n")
        with pytest.raises(ValueError, match="shape comment"):
            load_windows_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("# win_len=1 channels=2\nlabel,v0,v1\n0,1.0,2.0\n", 1),
        ("# win_len=1 channels=2 stride=0\nlabel,v0,v1\n", 1),
        ("# win_len=1 channels=2 stride=1\nlabel,v0,v1\n0,1.0,2.0\n"
         "1,3.0\n", 4),
        ("# win_len=1 channels=2 stride=1\nlabel,v0,v1\n0,1.0,x\n", 3),
        ("# win_len=1 channels=2 stride=1\nlabel,v0\n0,1.0,2.0\n", 2),
        ("# version=3 win_len=1 channels=2 stride=1 rows=0 windows=0\n", 1),
        (V2 + "0.0,1.0\n1.0,2.0\n2.0\nstart,label\n", 5),
        (V2 + "0.0,1.0\n1.0,2.0\nstart,label\n", 5),
        (V2 + "0.0,1.0\n1.0,2.0\n2.0,3.0\nlabel,start\n", 6),
        (V2 + "0.0,1.0\n1.0,2.0\n2.0,3.0\nstart,label\n-1,1\n1,0\n", 7),
        (V2 + "0.0,1.0\n1.0,2.0\n2.0,3.0\nstart,label\n0,1\n1\n", 8),
        (V2 + "0.0,1.0\n1.0,2.0\n2.0,3.0\nstart,label\n0,1\n1.5,1\n", 8),
        (V2 + "0.0,1.0\n1.0,2.0\n2.0,3.0\nstart,label\n0,1\n2,0\n", 8),
        (V2 + "0.0,1.0\n1.0,2.0\n2.0,3.0\nstart,label\n0,1\n", 8),
        (V2 + "0.0,1.0\n1.0,2.0\n2.0,3.0\nstart,label\n0,1\n1,0\n"
         "1,1\n", 9)])
    def test_malformed_cache_names_path_and_line(self, tmp_path, text,
                                                 line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: line {line}: "):
            load_windows_csv(path)

    def test_row_major_flattening(self, tmp_path):
        # a series line is a row of the window, its channels in order
        windows = np.arange(12.0).reshape(1, 3, 4)
        ds = WindowedDataset(windows, np.array([1]), win_len=3, stride=3)
        path = tmp_path / "cache.csv"
        save_windows_csv(ds, path)
        data_line = path.read_text().splitlines()[2]
        assert data_line.split(",") == ["0.0", "1.0", "2.0", "3.0"]
        back = load_windows_csv(path)
        np.testing.assert_array_equal(back.windows, windows)


class TestSignedPowConsistency:
    def test_energy_uses_signed_powers(self):
        window = make_rng(33).normal(size=(4, 3))
        want = float(np.sum(signed_pow(window, 1.7)))
        assert energy_feature(window, 1.7) == want
