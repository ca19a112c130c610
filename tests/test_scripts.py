"""The scripts under ``tests/data`` that compare two builds, the code-line
count and the page-fault probe, call package internals
(``new_workspace``, ``network_loss_grads(workspace=)``); they must still
run and print their labelled lines. The model-fixture generator, the one
writer of the format fixtures, must still write files that load, re-save
to themselves and match the checked-in ones. The numerics digest must
print its recorded lines on the host they were recorded on."""

import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expconv.training import load_model, save_model

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# The five summary lines of training_digest.py. They hold only with the
# NumPy build, BLAS build and CPU of DIGEST_HOST, since another of each may
# round differently. A change that moves the numerics on purpose records
# its new lines here.
DIGESTS = {
    "training": "fc48b9973b2982ca9672b5be5d52e39abba7f5db4d8440c19851a6d65b922fb9",
    "gradcheck": "62a3f5e523a7e5f700bab6d9e432d7b067ba473370a558daa9c4eda1d7330e3d",
    "evaluate": "422ab4971465ba18e0224ffbd6edb24bdbb35c57eead51b883e9b93df460df54",
    "synthetic": "9401f1efb62198a099de895f7fd21f76869b568d9b85243d14af87658576129d",
    "windows": "c1161a760621c34dbb055def7bc92a144e7aadafebe248bd2ec101cca1e5a584",
}
DIGEST_HOST = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
               "cpu": "Intel(R) Xeon(R) Processor"}


def host() -> dict:
    """This host's NumPy version, BLAS build and CPU model name."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cpu": cpu}


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


def test_training_digest_is_pinned():
    differences = [f"{key} {have!r}, recorded on {DIGEST_HOST[key]!r}"
                   for key, have in host().items() if have != DIGEST_HOST[key]]
    if differences:
        pytest.skip("digests recorded on another host: "
                    + "; ".join(differences))
    summary = dict(line.split() for line in
                   run_script("training_digest.py")[-len(DIGESTS):])
    assert summary == DIGESTS
