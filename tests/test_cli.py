"""End-to-end command-line behavior: config validation with the strict
schema, exit codes, artifact files, seed overrides, and reproducibility
from the echoed configuration."""

import contextlib
import copy
import io
import json
import os
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expconv import cli, training
from expconv.augment import AugmentSpec
from expconv.constraints import ConstraintPolicy
from expconv.dataset import (
    N_VARIABLES,
    RawRun,
    apply_normalize,
    fit_normalize,
    load_windows_csv,
    run_filename,
    save_run_text,
)
from expconv.numerics import make_rng
from expconv.training import (
    TrainConfig,
    build_network,
    forward_network,
    load_model,
    save_model,
)

FIXTURE_DIR = Path(__file__).parent / "data"
MODEL_FIXTURES = sorted(p.name for p in FIXTURE_DIR.glob("model_*.bin"))


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


def make_plant_fixtures(root, fault_id=1, normal_rows=300, seed=0,
                        scale=1.0):
    rng = make_rng(seed)
    runs = [
        RawRun(rng.normal(scale=scale, size=(normal_rows, N_VARIABLES)), 0,
               "train"),
        RawRun(rng.normal(loc=0.5, scale=scale, size=(480, N_VARIABLES)),
               fault_id, "train"),
        RawRun(rng.normal(loc=0.5, scale=scale, size=(960, N_VARIABLES)),
               fault_id, "test"),
    ]
    save_run_text(runs[0], root / run_filename(0, "train"))
    save_run_text(runs[1], root / run_filename(fault_id, "train"))
    save_run_text(runs[2], root / run_filename(fault_id, "test"))


TINY_SYNTH = json.loads(
    (Path(__file__).parent.parent / "configs" / "tiny_synth.json").read_text())
SECTION_FIELDS = {
    "constraints": sorted(cli.DEFAULTS["constraints"]),
    "train": sorted(cli.DEFAULTS["train"]),
    "augment": sorted(cli._AUGMENT_SCHEMA["properties"]),
}
ENUM_NAMES = ["clip", "reparam", "project", "sigmoid", "tanh", "adam", "sgd",
              "flip_lr", "exp_augment", "per_row", "per_point"]


def section_rejected(section, entry) -> bool:
    """Whether the constructor of a config section rejects it, defaults
    filled in as the CLI fills them."""
    make = {"constraints": ConstraintPolicy, "train": TrainConfig,
            "augment": AugmentSpec}[section]
    try:
        make(**(entry if section == "augment"
                else {**cli.DEFAULTS[section], **entry}))
    except (TypeError, ValueError):
        return True
    return False


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

    def test_schema_is_a_valid_schema(self):
        # load_config builds its validator once and does not re-check it
        cli._ConfigValidator.check_schema(cli.CONFIG_SCHEMA)

    @pytest.mark.parametrize("command", ["train", "eval", "synth", "augment",
                                         "gradcheck"])
    def test_negative_seed_exits_2_first(self, tmp_path, capsys, command):
        path = write_config(tmp_path)
        argv = [command, "--config", str(path), "--seed", "-1"]
        if command == "eval":
            argv += ["--model", str(tmp_path / "absent.bin")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "must be >= 0, got -1" in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["train", "eval", "synth", "augment"])
    def test_project_mode_rejected(self, tmp_path, capsys, command):
        path = write_config(tmp_path, constraints={"mode": "project"})
        argv = [command, "--config", str(path)]
        if command == "eval":
            argv += ["--model", str(tmp_path / "absent.bin")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "constraints.mode: 'project' is not one of" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "synth", "augment"])
    def test_overflowing_augment_range_fails_every_command_first(
            self, tmp_path, command):
        # both bounds are finite, but Generator.uniform cannot draw from a
        # range whose width overflows
        path = write_config(tmp_path, augment=[
            {"op": "exp_augment", "lo": -1e308, "hi": 1e308}])
        argv = [command, "--config", str(path)]
        if command == "eval":
            argv += ["--model", str(tmp_path / "absent.bin")]
        code, err = run_quietly(argv)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: augment: hi - lo must be finite")
        assert not (tmp_path / "out").exists()

    @given(field=st.sampled_from([(section, key) for section, keys
                                  in SECTION_FIELDS.items() for key in keys]),
           value=st.one_of(st.none(), st.booleans(), st.integers(),
                           st.floats(), st.text(max_size=4),
                           st.sampled_from(ENUM_NAMES)))
    @settings(max_examples=20, deadline=None)
    def test_rejected_sections_fail_every_command_first(self, field, value):
        # a value the section's constructor rejects ends every command
        # with exit 2 and one stderr line, before config.json is written
        section, key = field
        cfg = copy.deepcopy(TINY_SYNTH)
        entry = cfg[section][0] if section == "augment" else cfg[section]
        entry[key] = value
        assume(section_rejected(section, entry))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            for command in ("train", "eval", "synth", "augment"):
                out = Path(tmp) / command
                argv = [command, "--config", str(path), "--out", str(out)]
                if command == "eval":
                    argv += ["--model", str(Path(tmp) / "absent.bin")]
                code, err = run_quietly(argv)
                assert code == 2, (command, err)
                assert len(err.splitlines()) == 1
                assert err.startswith("config error: ")
                assert not out.exists()


def typed_fields(schema, types, path=()):
    """Every path the config schema gives one of ``types``; array items
    at 0."""
    if schema.get("type") in types:
        return [path]
    if "properties" in schema:
        return [found for key, sub in schema["properties"].items()
                for found in typed_fields(sub, types, path + (key,))]
    if "items" in schema:
        return typed_fields(schema["items"], types, path + (0,))
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


INTEGER_FIELDS = typed_fields(cli.CONFIG_SCHEMA, ("integer",))
NUMBER_FIELDS = typed_fields(cli.CONFIG_SCHEMA, ("integer", "number"))


def run_quietly(argv):
    """``cli.main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


class TestIntegerFields:
    def test_every_section_is_covered(self):
        assert {p[0] for p in INTEGER_FIELDS} == {"data", "model", "augment",
                                                  "train"}
        assert len(INTEGER_FIELDS) >= 18

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


class TestNonFiniteNumbers:
    def test_number_fields_of_every_section_are_covered(self):
        assert {p[0] for p in NUMBER_FIELDS} == {"data", "model", "augment",
                                                 "constraints", "train"}

    @pytest.mark.parametrize(
        "path", NUMBER_FIELDS,
        ids=[".".join(map(str, p)) for p in NUMBER_FIELDS])
    def test_fails_every_command_first(self, tmp_path, path):
        # a NaN or an infinity in any number field ends every command with
        # exit 2 and one stderr line, before config.json is written
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg_path = tmp_path / "nonfinite.json"
        for value in (float("nan"), float("inf"), float("-inf")):
            set_field(cfg, path, value)
            cfg_path.write_text(json.dumps(cfg))
            for command in ("train", "eval", "synth", "augment"):
                out = tmp_path / command
                argv = [command, "--config", str(cfg_path), "--out", str(out)]
                if command == "eval":
                    argv += ["--model", str(tmp_path / "absent.bin")]
                code, err = run_quietly(argv)
                assert code == 2, (command, value, err)
                assert len(err.splitlines()) == 1
                assert err.startswith(f"config error: {cfg_path}: "
                                      "non-finite number ")
                assert not out.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                       "1e400", pytest.param(
                                           "1" + "0" * 400,
                                           id="integer-1e400")])
    def test_message_names_the_token(self, tmp_path, capsys, token):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace('"noise": 0.05',
                                                 f'"noise": {token}'))
        assert cli.main(["synth", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: non-finite number {token}\n")


def schema_paths(schema, path=()):
    """Every path to a property of the config schema, sections included;
    array items at 0."""
    paths = [path] if path else []
    for key, sub in schema.get("properties", {}).items():
        paths += schema_paths(sub, path + (key,))
    if "items" in schema:
        paths += schema_paths(schema["items"], path + (0,))
    return paths


MUTATED_PATHS = [p for p in schema_paths(cli.CONFIG_SCHEMA)
                 if p[0] in ("data", "model", "output")]
DELETE = object()


class TestSingleFieldMutations:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """A one-epoch config with a relative output directory, and the
        model it trains."""
        root = tmp_path_factory.mktemp("base")
        cfg = json.loads(write_config(root, train={
            "epochs": 1, "batch_size": 16, "seed": 0}).read_text())
        cfg["output"]["dir"] = "out"
        path = root / "config.json"
        path.write_text(json.dumps(cfg))
        out = root / "out"
        assert run_quietly(["train", "--config", str(path),
                            "--out", str(out)])[0] == 0
        return cfg, out / "model.bin"

    @given(path=st.sampled_from(MUTATED_PATHS),
           value=st.one_of(st.just(DELETE), st.none(), st.booleans(),
                           st.integers(-2, 40), st.floats(),
                           st.text(alphabet="ab", max_size=3),
                           st.sampled_from(ENUM_NAMES + ["elementwise"]),
                           st.lists(st.integers(0, 3), max_size=2)))
    @settings(max_examples=20, deadline=None)
    def test_every_exit_is_documented(self, base, path, value):
        # a data, model or output field set to any value, or deleted, ends
        # each command with exit 0, 1 or 2, and one stderr line unless 0
        cfg, model = copy.deepcopy(base[0]), base[1]
        if value is not DELETE:
            set_field(cfg, path, value)
        else:
            node = cfg
            with contextlib.suppress(KeyError, IndexError, TypeError):
                for key in path[:-1]:
                    node = node[key]
                del node[path[-1]]
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # a relative output.dir lands in tmp
            try:
                Path("config.json").write_text(json.dumps(cfg))
                for argv in (["train"], ["eval", "--model", str(model)],
                             ["synth"]):
                    code, err = run_quietly(argv + ["--config", "config.json"])
                    assert code in (0, 1, 2), (argv, code, err)
                    assert code == 0 or len(err.splitlines()) == 1, (argv,
                                                                     err)
            finally:
                os.chdir(cwd)


PLANT_FILES = ("d00.dat", "d01.dat", "d01_te.dat")
FILE_MUTATIONS = ("nan", "inf", "-inf", "1e308", "-1e308", "1.5x", "drop",
                  "add", "empty")


def mutate_run_file(text, mutation, row, col):
    """A run file's text with one entry set to ``mutation``, its row
    ``row`` dropped or repeated, or all of it gone."""
    if mutation == "empty":
        return ""
    lines = text.splitlines(keepends=True)
    if mutation == "drop":
        del lines[row]
    elif mutation == "add":
        lines.insert(row, lines[row])
    else:
        tokens = lines[row].split()
        tokens[col] = mutation
        lines[row] = " ".join(tokens) + "\n"
    return "".join(lines)


def run_recording_warnings(argv):
    """``run_quietly(argv)`` and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_quietly(argv)
    return code, err, [str(w.message) for w in caught]


class TestPlantFileMutations:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """The texts of a tiny plant-file set, a one-epoch config that
        reads it, and the model that config trains."""
        root = tmp_path_factory.mktemp("plant")
        # a std near 0.5, so 1e308 in the test file overflows normalized
        make_plant_fixtures(root, normal_rows=60, scale=0.5)
        cfg = json.loads(write_config(
            root, data={"path": str(root), "fault_ids": [1], "win_len": 40,
                        "stride": 40},
            train={"epochs": 1, "batch_size": 16, "seed": 0}).read_text())
        assert run_quietly(["train", "--config", str(root / "config.json"),
                            "--out", str(root / "out")])[0] == 0
        texts = {name: (root / name).read_text() for name in PLANT_FILES}
        return texts, cfg, root / "out" / "model.bin"

    def run_mutated(self, base, root, name, mutation, row, col):
        """Each of ``train`` and ``eval`` on the set written to ``root``
        with one file mutated: (command, exit code, stderr, warnings)."""
        texts, cfg, model = base
        for file, text in texts.items():
            if file == name:
                text = mutate_run_file(text, mutation, row, col)
            Path(root, file).write_text(text)
        path = Path(root, "config.json")
        path.write_text(json.dumps({**cfg, "data": {**cfg["data"],
                                                    "path": str(root)}}))
        return [(argv[0], *run_recording_warnings(
                    argv + ["--config", str(path), "--out",
                            str(Path(root, argv[0]))]))
                for argv in (["train"], ["eval", "--model", str(model)])]

    @given(name=st.sampled_from(PLANT_FILES),
           mutation=st.sampled_from(FILE_MUTATIONS),
           row=st.integers(0, 59), col=st.integers(0, N_VARIABLES - 1))
    @example(name="d01.dat", mutation="1e308", row=7, col=30)
    @example(name="d00.dat", mutation="empty", row=0, col=0)
    @settings(max_examples=20, deadline=None)
    def test_every_exit_is_documented(self, base, name, mutation, row, col):
        # one entry or row of one file mutated, or the file emptied: each
        # command exits 0, 1 or 2, with one stderr line unless 0 and no
        # NumPy warning
        with tempfile.TemporaryDirectory() as root:
            for command, code, err, caught in self.run_mutated(
                    base, root, name, mutation, row, col):
                assert code in (0, 1, 2), (command, code, err)
                assert code == 0 or len(err.splitlines()) == 1, (command,
                                                                 err)
                assert not caught, (command, caught)

    @pytest.mark.parametrize("name, mutation, message", [
        ("d01.dat", "1e308", "non-finite mean or std in columns: [30]"),
        ("d01.dat", "-1e308", "non-finite mean or std in columns: [30]"),
        ("d00.dat", "empty", "{root}/d00.dat: file holds no data"),
        ("d01.dat", "nan", "{root}/d01.dat: non-finite value nan at row 8, "
                           "column 31"),
        ("d01_te.dat", "1e308", "test run of fault 1: value 1e+308 at "
                                "row 8, column 31 is not finite once "
                                "normalized")],
        ids=["1e308-train", "-1e308-train", "empty", "nan", "1e308-test"])
    def test_bad_values_exit_2_with_one_line(self, base, tmp_path, name,
                                              mutation, message):
        message = message.format(root=tmp_path)
        for command, code, err, caught in self.run_mutated(
                base, tmp_path, name, mutation, 7, 30):
            assert (code, err, caught) == (2, f"error: {message}\n", []), \
                command


class TestGradcheckCommand:
    def test_single_variant_passes(self, capsys):
        rc = cli.main(["gradcheck", "--variant", "elementwise",
                       "--checks", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "elementwise" in out and "total: pass" in out

    def test_tolerance_below_the_error_fails(self, capsys):
        rc = cli.main(["gradcheck", "--variant", "standard",
                       "--checks", "1", "--tol", "1e-300"])
        assert rc == 1
        assert "total: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        # none of these can tell a correct gradient from a wrong one
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--variant", "standard", "--checks", "1",
                      "--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--tol: must be finite and > 0, got {tol}" in err

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

    def test_evaluation_failure_names_the_epoch(self, tmp_path):
        # 1e308 is finite once normalized by its column's std of about 1,
        # but overflows layer 0 when the test set is evaluated
        make_plant_fixtures(tmp_path, normal_rows=60)
        test_file = tmp_path / "d01_te.dat"
        test_file.write_text(mutate_run_file(test_file.read_text(), "1e308",
                                             301, 5))
        path = write_config(
            tmp_path, data={"path": str(tmp_path), "fault_ids": [1],
                            "win_len": 40, "stride": 40},
            train={"epochs": 1, "batch_size": 16, "seed": 0})
        code, err, caught = run_recording_warnings(["train", "--config",
                                                    str(path)])
        assert (code, err, caught) == (
            1, "numeric failure: layer 0: feature map contains non-finite "
               "values while evaluating after epoch 0\n", [])
        assert not (tmp_path / "out" / "model.bin").exists()

    def test_test_files_without_a_window_exit_2_before_training(
            self, tmp_path):
        # the one window of 200 rows a 960-row test run gives every 1000
        # rows holds the fault onset, so it is dropped
        make_plant_fixtures(tmp_path)
        path = write_config(
            tmp_path, data={"path": str(tmp_path), "fault_ids": [1],
                            "win_len": 200, "stride": 1000},
            train={"epochs": 3, "batch_size": 16, "seed": 0})
        model = tmp_path / "model.bin"
        save_model(build_network((200, N_VARIABLES), 2,
                                 [{"variant": "elementwise", "k_h": 2,
                                   "k_w": 2}]), model)
        want = ("config error: data: the test files give no window: every "
                "window of win_len 200 cut every stride 1000 rows holds the "
                "fault onset at row 160, and those are dropped\n")
        for argv in (["train"], ["eval", "--model", str(model)]):
            assert run_quietly(argv + ["--config", str(path)]) == (2, want)
        assert not (tmp_path / "out" / "metrics.csv").exists()
        assert not (tmp_path / "out" / "model.bin").exists()

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

    def test_eval_worker_count_keeps_the_artifacts(self, tmp_path,
                                                   monkeypatch):
        path = write_config(tmp_path)  # 30 test windows: several chunks
        for workers in (1, 2):
            monkeypatch.setattr(training, "EVAL_WORKERS", workers)
            assert cli.main(["train", "--config", str(path),
                             "--out", str(tmp_path / str(workers))]) == 0
        for name in ("model.bin", "metrics.csv"):
            assert (tmp_path / "1" / name).read_bytes() \
                == (tmp_path / "2" / name).read_bytes()

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
        ({"stride_t": 2, "stride_c": 2}, (2, 2)),
        ({"stride_c": 2}, (1, 2)),
    ])
    def test_layer_strides(self, tmp_path, layer, strides):
        path = write_config(
            tmp_path, train={"epochs": 1, "seed": 0},
            model={"layers": [{"variant": "elementwise", "k_h": 2, "k_w": 2,
                               **layer}]})
        assert cli.main(["train", "--config", str(path)]) == 0
        trained = load_model(tmp_path / "out" / "model.bin").layers[0]
        assert (trained.stride_t, trained.stride_c) == strides

    def test_stride_is_not_a_layer_key(self, tmp_path, capsys):
        # a layer's strides are spelled stride_t and stride_c only
        path = write_config(
            tmp_path, model={"layers": [{"variant": "elementwise", "k_h": 2,
                                         "k_w": 2, "stride": 2}]})
        assert cli.main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "model.layers.0" in err and "'stride'" in err
        assert not (tmp_path / "out").exists()

    def test_schema_layer_keys_are_build_networks(self):
        assert set(cli._LAYER_SCHEMA["properties"]) == set(
            training.LAYER_KEYS)

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

    def test_fault_ids_become_class_indices(self, tmp_path):
        # a class is the fault id's position among the sorted ids, normal
        # (0) first
        make_plant_fixtures(tmp_path, fault_id=4)
        save_run_text(RawRun(make_rng(5).normal(size=(480, N_VARIABLES)), 2,
                             "train"), tmp_path / run_filename(2, "train"))
        path = write_config(
            tmp_path, data={"path": str(tmp_path), "fault_ids": [4, 2],
                            "win_len": 40, "stride": 40})
        train_ds, test_ds, n_classes, _ = cli.build_datasets(
            cli.load_config(str(path)))
        assert n_classes == 3
        assert train_ds.labels.dtype == test_ds.labels.dtype == np.int64
        assert train_ds.labels.tolist() == [0] * 7 + [1] * 12 + [2] * 12
        assert test_ds.labels.tolist() == [0] * 4 + [2] * 20


    @pytest.mark.parametrize("mode", ["clip", "reparam"])
    def test_overflowing_step_exits_1_at_its_batch(self, tmp_path, capsys,
                                                   mode):
        # lr * grad overflows in the first step; under clip the clamp
        # makes the exponents finite again but not the weights
        path = write_config(
            tmp_path,
            data={"synthetic": {"win_len": 8, "channels": 4, "count": 64,
                                "seed": 1, "mag_hi": 1000.0}},
            model={"layers": [{"variant": "elementwise", "k_h": 2, "k_w": 2,
                               "activation": "identity"}]},
            constraints={"mode": mode},
            train={"epochs": 2, "batch_size": 16, "seed": 0,
                   "optimizer": "sgd", "learning_rate": 1e308})
        assert cli.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == ("numeric failure: optimizer step left non-finite "
                       "parameters at epoch 0, batch 0\n")


def write_four_runs(root) -> tuple:
    """A 480-row training run and a 960-row test run for each of fault
    ids 0-3, as perfbench's plant_full_matrix_eval reads them, and the
    config of 40-row windows every 10 rows over them."""
    rng = make_rng(42)
    runs = []
    for fid in range(4):
        for split, rows in (("train", 480), ("test", 960)):
            runs.append(RawRun(rng.normal(loc=0.1 * fid,
                                          size=(rows, N_VARIABLES)),
                               fid, split))
            save_run_text(runs[-1], root / run_filename(fid, split))
    return runs, {"data": {"path": str(root), "fault_ids": [1, 2, 3],
                           "win_len": 40, "stride": 10}}


class TestPlantDatasets:
    def test_each_normalized_row_is_held_once(self, tmp_path):
        runs, cfg = write_four_runs(tmp_path)
        train_ds, test_ds, _, _ = cli.build_datasets(cfg)
        stats = fit_normalize([run for run in runs if run.split == "train"])
        for ds, split, n in ((train_ds, "train", 4 * 45),
                             (test_ds, "test", 4 * 90)):
            np.testing.assert_array_equal(ds.series, np.concatenate(
                [apply_normalize(run, stats).matrix for run in runs
                 if run.split == split]))
            assert len(ds) == n

    def test_set_up_peak_stays_near_the_run_rows(self, tmp_path):
        # windows of 40 rows every 10 held each row four times: a traced
        # peak of 16.6 MiB for 2.3 MiB of run rows; with each run
        # normalized into its slice of the merged series, 3.9 MiB
        runs, cfg = write_four_runs(tmp_path)
        cli.build_datasets(cfg)  # warm up lazy set-up outside the measurement
        tracemalloc.start()
        try:
            cli.build_datasets(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        run_bytes = sum(run.matrix.nbytes for run in runs)
        assert peak < 2.0 * run_bytes, (peak, run_bytes)


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

    def test_plant_eval_prints_the_pinned_metrics(self, tmp_path, capsys):
        # windows of 40 rows every 10 rows, evaluated over their union; the
        # lines are those printed when every window ran on its own
        make_plant_fixtures(tmp_path)
        path = write_config(
            tmp_path,
            data={"path": str(tmp_path), "fault_ids": [1], "win_len": 40,
                  "stride": 10},
            model={"layers": [{"variant": "elementwise", "k_h": 3,
                               "k_w": 3, "out_channels": 2,
                               "activation": "tanh"}]},
            train={"epochs": 2, "batch_size": 16, "learning_rate": 0.01,
                   "seed": 0})
        assert cli.main(["train", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(path), "--model",
                         str(tmp_path / "out" / "model.bin")]) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "accuracy    0.8444",
            "false_alarm 1.0000",
            "detection[0] 0.0000",
            "detection[1] 0.9870",
            "confusion (rows = true):",
            "       0     13",
            "       1     76",
        ]

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

    def check_non_finite_eval_exits_1(self, tmp_path, capsys, monkeypatch,
                                      variant, k):
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
        test_ds = cli.build_datasets(cli.load_config(path))[1]
        assert len(test_ds) > training.EVAL_CHUNK  # both workers get chunks
        for workers in (1, 2):
            monkeypatch.setattr(training, "EVAL_WORKERS", workers)
            rc = cli.main(["eval", "--config", str(path),
                           "--model", str(model)])
            assert rc == 1, workers
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, (workers, err)
            assert "layer 0" in err and "non-finite" in err, (workers, err)

    @pytest.mark.filterwarnings("error")  # an overflow warning would fail
    def test_overflowing_feature_map_exits_1(self, tmp_path, capsys,
                                             monkeypatch):
        self.check_non_finite_eval_exits_1(tmp_path, capsys, monkeypatch,
                                           "elementwise", 1)

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would fail
    @pytest.mark.parametrize("variant, k", [
        ("elementwise", 2),  # +inf and -inf powers in one mixed-sign patch
        ("standard", 1),     # an overflowing filter product
    ])
    def test_non_finite_filter_product_exits_1(self, tmp_path, capsys,
                                               monkeypatch, variant, k):
        self.check_non_finite_eval_exits_1(tmp_path, capsys, monkeypatch,
                                           variant, k)

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

    def test_non_finite_bound_in_model_exits_2(self, tmp_path, capsys):
        model = tmp_path / "model.bin"
        blob = (FIXTURE_DIR / "model_elementwise_clip.bin").read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        meta = blob[16:16 + meta_len].replace(b'"v_min":-2.0',
                                              b'"v_min":-Infinity')
        model.write_bytes(blob[:8] + struct.pack("<Q", len(meta)) + meta
                          + blob[16 + meta_len:])
        path = write_config(tmp_path)
        rc = cli.main(["eval", "--config", str(path), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(model) in err and "bounds must be finite" in err

    def test_bool_bound_in_model_exits_2(self, tmp_path, capsys):
        # JSON false is not a bound, although Python compares it as 0
        model = tmp_path / "model.bin"
        blob = (FIXTURE_DIR / "model_elementwise_clip.bin").read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        meta = blob[16:16 + meta_len].replace(b'"v_min":-2.0',
                                              b'"v_min":false')
        model.write_bytes(blob[:8] + struct.pack("<Q", len(meta)) + meta
                          + blob[16 + meta_len:])
        path = write_config(tmp_path)
        rc = cli.main(["eval", "--config", str(path), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(model) in err and "v_min must be a number" in err

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

    @given(name=st.sampled_from(MODEL_FIXTURES), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_metadata_key_edit_exits_2(self, name, data):
        # every key a dict of the metadata holds is read, and no other
        blob = (FIXTURE_DIR / name).read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        meta = json.loads(blob[16:16 + meta_len])
        dicts = [meta] + [d for layer in meta["layers"]
                          for d in (layer, layer["policy"])]
        entry = dicts[data.draw(st.integers(0, len(dicts) - 1))]
        if data.draw(st.booleans()):
            del entry[data.draw(st.sampled_from(sorted(entry)))]
        else:
            key = data.draw(st.text(min_size=1, max_size=8)
                            .filter(lambda k: k not in entry))
            entry[key] = data.draw(st.one_of(st.none(), st.integers(),
                                             st.text(max_size=4)))
        meta = json.dumps(meta).encode()
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "model.bin"
            model.write_bytes(blob[:8] + struct.pack("<Q", len(meta)) + meta
                              + blob[16 + meta_len:])
            with pytest.raises(ValueError):
                load_model(model)
            path = write_config(Path(tmp))
            code, err = run_quietly(["eval", "--config", str(path),
                                     "--model", str(model)])
        assert code == 2
        assert len(err.splitlines()) == 1 and str(model) in err

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
        assert text.startswith("# version=2 win_len=12 channels=5 stride=12 "
                               "rows=0 windows=0\n")
        ds = load_windows_csv(tmp_path / "a" / "dataset.csv")
        assert ds.windows.shape == (0, 12, 5) and ds.stride == 12

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_unsatisfiable_margin_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, data={"synthetic": {
            "win_len": 6, "channels": 3, "count": 4, "margin_scale": 50}})
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "margin_scale" in err

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("field, value", [
        ("noise", 1e308), ("exponent", 1e308), ("mag_hi", 1e200)])
    def test_overflowing_task_exits_1(self, tmp_path, capsys, command, field,
                                      value):
        path = write_config(tmp_path, data={"synthetic": {
            "win_len": 6, "channels": 3, "count": 30, field: value}})
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{field}=" in err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_requires_synthetic_section(self, tmp_path):
        make_plant_fixtures(tmp_path)
        path = write_config(tmp_path,
                            data={"path": str(tmp_path), "fault_ids": [1]})
        assert cli.main(["synth", "--config", str(path)]) == 2


@pytest.mark.parametrize("command, section, value", [
    ("synth", "data", {"synthetic": {"win_len": 10**13, "channels": 4}}),
    ("synth", "data", {"synthetic": {"count": 10**14}}),
    ("train", "model", {"layers": [{"variant": "elementwise", "k_h": 2,
                                    "k_w": 2, "out_channels": 10**13}]})])
def test_unallocatable_size_exits_2(tmp_path, capsys, command, section,
                                    value):
    # hundreds of TiB, which NumPy refuses at once without allocating
    path = write_config(tmp_path, **{section: value})
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: out of memory: ")


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

    def test_output_evaluates_as_window_by_window(self, tmp_path):
        # the input windows share rows; the flipped ones are held back to
        # back, so each runs on its own
        make_plant_fixtures(tmp_path)
        path = write_config(
            tmp_path,
            data={"path": str(tmp_path), "fault_ids": [1], "win_len": 40,
                  "stride": 10},
            augment=[{"op": "flip_lr", "probability": 0.5}])
        assert cli.main(["augment", "--config", str(path)]) == 0
        out = load_windows_csv(tmp_path / "out" / "augmented.csv")
        assert out.stride == 10
        net = build_network(out.windows.shape[1:], 2,
                            [{"variant": "elementwise", "k_h": 3, "k_w": 3,
                              "activation": "tanh"}], seed=3)
        assert out.starts.tolist() == list(range(0, 40 * len(out), 40))
        np.testing.assert_allclose(
            forward_network(net, out),
            np.stack([forward_network(net, w) for w in out.windows]),
            rtol=1e-12, atol=0)

    def test_echoed_config_reproduces_seeded_run(self, tmp_path):
        path = write_config(
            tmp_path,
            augment=[{"op": "exp_augment", "probability": 1.0,
                      "lo": 0.5, "hi": 1.5}])
        assert cli.main(["augment", "--config", str(path), "--seed", "5",
                         "--out", str(tmp_path / "a")]) == 0
        echoed = json.loads((tmp_path / "a" / "config.json").read_text())
        assert echoed["train"]["seed"] == 5
        echoed["output"]["dir"] = str(tmp_path / "b")
        (tmp_path / "replay.json").write_text(json.dumps(echoed))
        assert cli.main(["augment", "--config",
                         str(tmp_path / "replay.json")]) == 0
        assert (tmp_path / "a" / "augmented.csv").read_bytes() \
            == (tmp_path / "b" / "augmented.csv").read_bytes()

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


    @pytest.mark.parametrize("command", ["augment", "train"])
    def test_overflowing_exp_augment_exits_1(self, tmp_path, capsys,
                                             command):
        path = write_config(
            tmp_path,
            augment=[{"op": "exp_augment", "probability": 1.0,
                      "granularity": "per_point", "lo": 700, "hi": 800}])
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "per_point exponents in [700, 800]" in err
        if command == "train":  # reported as a failing step is
            assert re.search(r"at epoch \d+, batch \d+$", err.strip())
        assert not list((tmp_path / "out").glob("*.csv"))


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
