"""End-to-end command-line behavior: config validation with the strict
schema, exit codes, artifact files, seed overrides, and reproducibility
from the echoed configuration."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from expconv import cli
from expconv.constraints import ConstraintPolicy
from expconv.dataset import (
    N_VARIABLES,
    RawRun,
    load_windows_csv,
    run_filename,
    save_run_text,
)
from expconv.numerics import make_rng
from expconv.training import build_network, load_model, save_model

FIXTURE_DIR = Path(__file__).parent / "data"


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "data": {"synthetic": {"win_len": 6, "channels": 3, "exponent": 2.0,
                               "noise": 0.05, "count": 90, "seed": 7,
                               "train_fraction": 0.67}},
        "model": {"layers": [{"variant": "elementwise", "k_h": 2, "k_w": 2,
                              "activation": "tanh"}]},
        "train": {"epochs": 3, "batch_size": 16, "learning_rate": 0.003,
                  "seed": 0},
        "output": {"dir": str(tmp_path / "out")},
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def make_plant_fixtures(root, fault_id=1, normal_rows=300, seed=0):
    rng = make_rng(seed)
    runs = [
        RawRun(rng.normal(size=(normal_rows, N_VARIABLES)), 0, "train"),
        RawRun(rng.normal(loc=0.5, size=(480, N_VARIABLES)), fault_id,
               "train"),
        RawRun(rng.normal(loc=0.5, size=(960, N_VARIABLES)), fault_id,
               "test"),
    ]
    save_run_text(runs[0], root / run_filename(0, "train"))
    save_run_text(runs[1], root / run_filename(fault_id, "train"))
    save_run_text(runs[2], root / run_filename(fault_id, "test"))


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_config(tmp_path, logging={"level": "info"})
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "logging" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            train={"epochs": 1, "momentum": 0.9})
        assert cli.main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "train" in err and "momentum" in err

    def test_invalid_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"data": \n}')
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["train", "--config",
                         str(tmp_path / "absent.json")]) == 2

    def test_config_flag_required(self, capsys):
        assert cli.main(["train"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_data_needs_exactly_one_source(self, tmp_path, capsys):
        both = write_config(
            tmp_path, data={"path": "/tmp/x", "fault_ids": [1],
                            "synthetic": {"count": 10}})
        assert cli.main(["train", "--config", str(both)]) == 2
        neither = write_config(tmp_path, name="n.json", data={"win_len": 8})
        assert cli.main(["train", "--config", str(neither)]) == 2

    def test_path_mode_requires_fault_ids(self, tmp_path):
        path = write_config(tmp_path, data={"path": "/tmp/x"})
        assert cli.main(["train", "--config", str(path)]) == 2

    def test_bad_enum_value(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            model={"layers": [{"variant": "cubic", "k_h": 1, "k_w": 1}]})
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "variant" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [
        ("constraints", {"v_min": 2.0}),  # the bounds must straddle 1
        ("train", {"beta1": 1.0}),
        ("augment", [{"op": "exp_augment", "lo": 3.0, "hi": 1.0}]),
    ])
    def test_checks_past_the_schema_exit_2(self, tmp_path, capsys, section,
                                           value):
        path = write_config(tmp_path, **{section: value})
        assert cli.main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"config error: {section}: ")


def integer_fields(schema, path=()):
    """Every path the config schema types "integer"; array items at 0."""
    if schema.get("type") == "integer":
        return [path]
    if "properties" in schema:
        return [found for key, sub in schema["properties"].items()
                for found in integer_fields(sub, path + (key,))]
    if "items" in schema:
        return integer_fields(schema["items"], path + (0,))
    return []


def set_field(cfg, path, value):
    """Write ``value`` at ``path``, creating missing sections and one-item
    lists on the way (an augment entry gets its required op)."""
    node = cfg
    for key, nxt in zip(path, path[1:]):
        if isinstance(key, int):
            node = node[key]
        elif isinstance(nxt, int):
            node = node.setdefault(key, [{"op": "flip_lr"} if key == "augment"
                                         else {}])
        else:
            node = node.setdefault(key, {})
    node[path[-1]] = value


INTEGER_FIELDS = integer_fields(cli.CONFIG_SCHEMA)


class TestIntegerFields:
    def test_every_section_is_covered(self):
        assert {p[0] for p in INTEGER_FIELDS} == {"data", "model", "augment",
                                                  "train"}
        assert len(INTEGER_FIELDS) >= 19

    @pytest.mark.parametrize("command", ["train", "synth"])
    @pytest.mark.parametrize("value", [8.0, 1e308])
    @pytest.mark.parametrize(
        "path", INTEGER_FIELDS,
        ids=[".".join(map(str, p)) for p in INTEGER_FIELDS])
    def test_float_in_integer_field_exits_2(self, tmp_path, capsys, path,
                                            value, command):
        cfg_path = write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        set_field(cfg, path, value)
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert ".".join(map(str, path)) in err and "integer" in err

    def test_integers_still_accepted(self, tmp_path):
        path = write_config(tmp_path, train={"epochs": 1, "batch_size": 16})
        assert cli.main(["train", "--config", str(path)]) == 0


class TestGradcheckCommand:
    def test_single_variant_passes(self, capsys):
        rc = cli.main(["gradcheck", "--variant", "elementwise",
                       "--checks", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "elementwise" in out and "total: pass" in out

    def test_zero_tolerance_fails(self, capsys):
        rc = cli.main(["gradcheck", "--variant", "standard",
                       "--checks", "1", "--tol", "0"])
        assert rc == 1
        assert "total: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("checks", ["0", "-3"])
    def test_non_positive_checks_rejected(self, capsys, checks):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--variant", "standard",
                      "--checks", checks])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--checks" in err and "must be >= 1" in err

    def test_malformed_config_beats_checks(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert cli.main(["gradcheck", "--config", str(path)]) == 2

    def test_seed_shifts_check_seeds(self, capsys):
        a = cli.main(["gradcheck", "--variant", "standard", "--checks", "2",
                      "--seed", "0"])
        b = cli.main(["gradcheck", "--variant", "standard", "--checks", "2",
                      "--seed", "123"])
        assert a == 0 and b == 0


class TestTrainCommand:
    def test_writes_artifacts_and_history_rows(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["train", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "model.bin").exists()
        assert (out_dir / "config.json").exists()
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # header + one row per epoch
        assert "trained 3 epochs" in capsys.readouterr().out

    def test_deterministic_across_runs(self, tmp_path):
        path = write_config(tmp_path)
        for sub in ("a", "b"):
            assert cli.main(["train", "--config", str(path),
                             "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "model.bin").read_bytes() \
            == (tmp_path / "b" / "model.bin").read_bytes()
        assert (tmp_path / "a" / "metrics.csv").read_text() \
            == (tmp_path / "b" / "metrics.csv").read_text()

    def test_echoed_config_reproduces_run(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["train", "--config", str(path),
                         "--out", str(tmp_path / "a"), "--seed", "9"]) == 0
        echoed = tmp_path / "a" / "config.json"
        replay = json.loads(echoed.read_text())
        replay["output"]["dir"] = str(tmp_path / "b")
        (tmp_path / "replay.json").write_text(json.dumps(replay))
        assert cli.main(["train", "--config",
                         str(tmp_path / "replay.json")]) == 0
        assert (tmp_path / "a" / "model.bin").read_bytes() \
            == (tmp_path / "b" / "model.bin").read_bytes()

    def test_seed_override_changes_model(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["train", "--config", str(path), "--seed", "1",
                  "--out", str(tmp_path / "a")])
        cli.main(["train", "--config", str(path), "--seed", "2",
                  "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "model.bin").read_bytes() \
            != (tmp_path / "b" / "model.bin").read_bytes()
        echoed = json.loads((tmp_path / "a" / "config.json").read_text())
        assert echoed["train"]["seed"] == 1

    @pytest.mark.parametrize("layer, strides", [
        ({"stride": 2}, (2, 2)),
        ({"stride": 2, "stride_t": 1}, (1, 2)),
    ])
    def test_stride_shorthand(self, tmp_path, layer, strides):
        path = write_config(
            tmp_path, train={"epochs": 1, "seed": 0},
            model={"layers": [{"variant": "elementwise", "k_h": 2, "k_w": 2,
                               **layer}]})
        assert cli.main(["train", "--config", str(path)]) == 0
        trained = load_model(tmp_path / "out" / "model.bin").layers[0]
        assert (trained.stride_t, trained.stride_c) == strides

    def test_plant_file_mode(self, tmp_path):
        make_plant_fixtures(tmp_path)
        path = write_config(
            tmp_path,
            data={"path": str(tmp_path), "fault_ids": [1],
                  "win_len": 40, "stride": 40},
            train={"epochs": 1, "batch_size": 8, "learning_rate": 0.001,
                   "seed": 0})
        assert cli.main(["train", "--config", str(path)]) == 0
        net = load_model(tmp_path / "out" / "model.bin")
        assert net.n_classes == 2
        assert net.input_shape == (40, 52)


class TestEvalCommand:
    def test_zero_epoch_model_near_chance(self, tmp_path, capsys):
        path = write_config(tmp_path, train={"epochs": 0, "seed": 0})
        assert cli.main(["train", "--config", str(path)]) == 0
        model = tmp_path / "out" / "model.bin"
        rc = cli.main(["eval", "--config", str(path), "--model", str(model),
                       "--out", str(tmp_path / "eval_out")])
        assert rc == 0
        out = capsys.readouterr().out
        acc = float([l for l in out.splitlines()
                     if l.startswith("accuracy")][0].split()[1])
        assert 0.3 <= acc <= 0.7  # untrained two-class net sits near 1/2
        eval_csv = (tmp_path / "eval_out" / "eval.csv").read_text()
        assert eval_csv.splitlines()[0] == "accuracy,false_alarm,det_0,det_1"

    def test_class_count_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["train", "--config", str(path)]) == 0
        model = tmp_path / "out" / "model.bin"
        make_plant_fixtures(tmp_path, fault_id=1)
        rng = make_rng(5)
        save_run_text(RawRun(rng.normal(size=(480, 52)), 2, "train"),
                      tmp_path / run_filename(2, "train"))
        three_class = write_config(
            tmp_path, name="three.json",
            data={"path": str(tmp_path), "fault_ids": [1, 2],
                  "win_len": 40, "stride": 40})
        rc = cli.main(["eval", "--config", str(three_class),
                       "--model", str(model)])
        assert rc == 2
        assert "classes" in capsys.readouterr().err

    def check_non_finite_eval_exits_1(self, tmp_path, capsys, variant, k):
        # bounds wide enough that the overflowing exponent is a valid one
        net = build_network((6, 3), 2, [{"variant": variant, "k_h": k,
                                         "k_w": k, "activation": "tanh"}],
                            policy=ConstraintPolicy(v_max=500.0))
        layer = net.layers[0]
        if variant == "standard":
            layer.weights[:] = 1e308
        else:
            layer.weights[:] = 1.0
            layer.ewms[0].exponents[:] = 400.0
        model = tmp_path / "model.bin"
        save_model(net, model)
        path = write_config(
            tmp_path,
            data={"synthetic": {"win_len": 6, "channels": 3, "count": 30,
                                "mag_lo": 10.0, "mag_hi": 20.0}})
        rc = cli.main(["eval", "--config", str(path), "--model", str(model)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "layer 0" in err and "non-finite" in err

    @pytest.mark.filterwarnings("error")  # an overflow warning would fail
    def test_overflowing_feature_map_exits_1(self, tmp_path, capsys):
        self.check_non_finite_eval_exits_1(tmp_path, capsys, "elementwise", 1)

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would fail
    @pytest.mark.parametrize("variant, k", [
        ("elementwise", 2),  # +inf and -inf powers in one mixed-sign patch
        ("standard", 1),     # an overflowing filter product
    ])
    def test_non_finite_filter_product_exits_1(self, tmp_path, capsys,
                                               variant, k):
        self.check_non_finite_eval_exits_1(tmp_path, capsys, variant, k)

    def test_non_integer_size_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, train={"epochs": 0, "seed": 0})
        assert cli.main(["train", "--config", str(path)]) == 0
        model = tmp_path / "out" / "model.bin"
        blob = model.read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        meta = blob[16:16 + meta_len].replace(b'"stride_t":1',
                                              b'"stride_t":1.0')
        model.write_bytes(blob[:8] + struct.pack("<Q", len(meta)) + meta
                          + blob[16 + meta_len:])
        capsys.readouterr()
        rc = cli.main(["eval", "--config", str(path), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "stride_t" in err

    def test_exponent_outside_bounds_exits_2(self, tmp_path, capsys):
        model = tmp_path / "model.bin"
        blob = (FIXTURE_DIR / "model_elementwise_clip.bin").read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        meta = blob[16:16 + meta_len].replace(b'"v_max":4.0', b'"v_max":1.05')
        model.write_bytes(blob[:8] + struct.pack("<Q", len(meta)) + meta
                          + blob[16 + meta_len:])
        path = write_config(tmp_path)
        rc = cli.main(["eval", "--config", str(path), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "layer 0: stored exponents" in err

    @pytest.mark.parametrize("name, value", [("head_w", np.nan),
                                             ("head_b", np.inf)])
    def test_non_finite_head_exits_2(self, tmp_path, capsys, name, value):
        net = build_network((6, 3), 2, [{"variant": "elementwise", "k_h": 2,
                                         "k_w": 2, "activation": "tanh"}])
        getattr(net, name)[0] = value
        model = tmp_path / "model.bin"
        save_model(net, model)
        path = write_config(tmp_path)
        rc = cli.main(["eval", "--config", str(path), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(model) in err and f"{name} contains non-finite" in err

    def test_missing_model_file(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["eval", "--config", str(path),
                         "--model", str(tmp_path / "no.bin")]) == 2


class TestSynthCommand:
    def test_writes_dataset_with_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["synth", "--config", str(path), "--seed", "11",
                  "--out", str(tmp_path / "a")])
        cli.main(["synth", "--config", str(path), "--seed", "11",
                  "--out", str(tmp_path / "b")])
        cli.main(["synth", "--config", str(path), "--seed", "12",
                  "--out", str(tmp_path / "c")])
        a = (tmp_path / "a" / "dataset.csv").read_text()
        assert a == (tmp_path / "b" / "dataset.csv").read_text()
        assert a != (tmp_path / "c" / "dataset.csv").read_text()
        ds = load_windows_csv(tmp_path / "a" / "dataset.csv")
        assert ds.windows.shape == (90, 6, 3)

    def test_empty_task_keeps_its_shape(self, tmp_path):
        path = write_config(tmp_path, data={"synthetic": {
            "count": 0, "win_len": 12, "channels": 5}})
        assert cli.main(["synth", "--config", str(path),
                         "--out", str(tmp_path / "a")]) == 0
        text = (tmp_path / "a" / "dataset.csv").read_text()
        assert text.startswith("# win_len=12 channels=5 stride=12\n")
        ds = load_windows_csv(tmp_path / "a" / "dataset.csv")
        assert ds.windows.shape == (0, 12, 5) and ds.stride == 12

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_unsatisfiable_margin_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, data={"synthetic": {
            "win_len": 6, "channels": 3, "count": 4, "margin_scale": 50}})
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "margin_scale" in err

    def test_requires_synthetic_section(self, tmp_path):
        make_plant_fixtures(tmp_path)
        path = write_config(tmp_path,
                            data={"path": str(tmp_path), "fault_ids": [1]})
        assert cli.main(["synth", "--config", str(path)]) == 2


class TestAugmentCommand:
    def test_zero_probability_outputs_inputs(self, tmp_path):
        path = write_config(
            tmp_path,
            augment=[{"op": "flip_lr", "probability": 0.0},
                     {"op": "exp_augment", "probability": 0.0}])
        assert cli.main(["augment", "--config", str(path)]) == 0
        out = load_windows_csv(tmp_path / "out" / "augmented.csv")
        train_ds, _, _, _ = cli.build_datasets(
            cli.load_config(str(path)))
        np.testing.assert_array_equal(out.windows, train_ds.windows)
        np.testing.assert_array_equal(out.labels, train_ds.labels)

    def test_deterministic_under_seed(self, tmp_path):
        path = write_config(
            tmp_path,
            augment=[{"op": "exp_augment", "probability": 1.0,
                      "lo": 0.5, "hi": 1.5}])
        cli.main(["augment", "--config", str(path), "--seed", "3",
                  "--out", str(tmp_path / "a")])
        cli.main(["augment", "--config", str(path), "--seed", "3",
                  "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "augmented.csv").read_text() \
            == (tmp_path / "b" / "augmented.csv").read_text()

    def test_augment_actually_changes_windows(self, tmp_path):
        path = write_config(
            tmp_path,
            augment=[{"op": "flip_lr", "probability": 1.0}])
        assert cli.main(["augment", "--config", str(path)]) == 0
        out = load_windows_csv(tmp_path / "out" / "augmented.csv")
        train_ds, _, _, _ = cli.build_datasets(cli.load_config(str(path)))
        np.testing.assert_array_equal(out.windows,
                                      train_ds.windows[:, ::-1, :])

    def test_private_seed_draws_differ_between_windows(self, tmp_path):
        path = write_config(
            tmp_path,
            augment=[{"op": "exp_augment", "probability": 1.0, "seed": 5,
                      "granularity": "per_channel", "lo": 0.5, "hi": 1.5}])
        assert cli.main(["augment", "--config", str(path)]) == 0
        out = load_windows_csv(tmp_path / "out" / "augmented.csv")
        train_ds, _, _, _ = cli.build_datasets(cli.load_config(str(path)))
        log_in = np.log(np.abs(train_ds.windows))
        powers = np.log(np.abs(out.windows)) / log_in
        # each window has one power per channel; read it off the entry
        # whose magnitude is farthest from 1
        far = np.argmax(np.abs(log_in), axis=1, keepdims=True)
        per_window = np.take_along_axis(powers, far, axis=1)[:, 0]
        assert not np.allclose(per_window[0], per_window[1], atol=1e-3)


class TestBundledConfig:
    def test_tiny_synth_config_trains(self, tmp_path):
        cfg = json.loads((Path(__file__).parent.parent / "configs"
                          / "tiny_synth.json").read_text())
        cfg["output"]["dir"] = str(tmp_path / "out")
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + cfg["train"]["epochs"]
