"""The scripts under ``tests/data`` that compare two builds, the code-line
count and the page-fault probe, call package internals
(``new_workspace``, ``network_loss_grads(workspace=)``); they must still
run and print their labelled lines. The model-fixture generator, the one
writer of the format fixtures, must still write files that load, re-save
to themselves and match the checked-in ones."""

import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

from expconv.training import load_model, save_model

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def run_script(name, *args):
    """Run ``tests/data/<name>`` with ``src`` on the path; its exit status
    and stdout lines."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "data" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_code_lines_counts_every_module():
    rows = [line.split() for line in run_script("code_lines.py")]
    modules = sorted(p.name for p in (ROOT / "src" / "expconv").glob("*.py"))
    assert [name for name, _ in rows] == modules + ["total"]
    counts = [int(count) for _, count in rows]
    assert counts[-1] == sum(counts[:-1]) > 0


def test_fault_probe_reads_its_three_passes():
    lines = run_script("fault_probe.py", "1")
    number = r"\s+(\d+(?:\.\d+)?)"
    reading = re.compile(rf"(.+?)\s+faults/call median{number}\s+min{number}"
                         rf"\s+max{number}\s+ms median{number}$")
    matches = [reading.match(line) for line in lines]
    assert all(matches), lines
    assert [m[1] for m in matches] == ["evaluate, 1 worker",
                                       "evaluate, 2 workers", "step"]


def test_fixture_generator_writes_the_format_fixtures(tmp_path):
    run_script("make_model_fixtures.py", str(tmp_path))
    names = sorted(p.name for p in tmp_path.glob("model_*.bin"))
    assert names == sorted(p.name for p in DATA.glob("model_*.bin"))
    assert len(names) == 8
    written = np.load(tmp_path / "model_probs.npz")
    recorded = np.load(DATA / "model_probs.npz")
    np.testing.assert_array_equal(written["windows"], recorded["windows"])
    for name in names:
        blob = (tmp_path / name).read_bytes()
        save_model(load_model(tmp_path / name), tmp_path / "resaved.bin")
        assert (tmp_path / "resaved.bin").read_bytes() == blob
        # magic, version, metadata length and metadata: training moves
        # only the tensors, by summation order
        header = 16 + struct.unpack_from("<Q", blob, 8)[0]
        assert blob[:header] == (DATA / name).read_bytes()[:header]
        np.testing.assert_allclose(written[name], recorded[name], rtol=0,
                                   atol=1e-12)
