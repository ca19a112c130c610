"""The scripts under ``tests/data`` that compare two builds, the code-line
count and the page-fault probe, call package internals
(``new_workspace``, ``network_loss_grads(workspace=)``); they must still
run and print their labelled lines."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
