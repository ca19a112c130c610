"""Seeded generator of plant-run files in the layout the loader reads.

Each file holds 52 process variables as whitespace-delimited text:

* ``d00.dat``: normal operation, 500 samples, stored variables-by-samples
  (52 x 500), so the loader's transpose path runs;
* ``d00_te.dat``: normal operation, 960 samples;
* ``d{NN}.dat``: fault NN for all 480 samples;
* ``d{NN}_te.dat``: 960 samples, normal until sample 160, then fault NN.

Variables are AR(1) series around a per-variable level and scale. A fault
shifts the level of its own subset of variables by 1.5 to 3 standard
deviations, so windows are separable, windows straddling the onset in a
test run are dropped by the loader, and the same seed writes the same
bytes.
"""

from __future__ import annotations

import os

import numpy as np

N_VARIABLES = 52
NORMAL_TRAIN_ROWS = 500
FAULTY_TRAIN_ROWS = 480
TEST_ROWS = 960
FAULT_ONSET = 160
FAULT_VARIABLES = 6
AR_COEF = 0.7


def _series(rng: np.random.Generator, rows: int) -> np.ndarray:
    noise = rng.standard_normal((rows, N_VARIABLES))
    out = np.empty_like(noise)
    out[0] = noise[0]
    innovation = np.sqrt(1.0 - AR_COEF * AR_COEF)
    for t in range(1, rows):
        out[t] = AR_COEF * out[t - 1] + innovation * noise[t]
    return out


def write_plant_files(root: str, fault_ids, seed: int) -> None:
    """Write d00.dat, d00_te.dat and one train/test pair per fault id."""
    rng = np.random.Generator(np.random.PCG64(seed))
    level = rng.normal(0.0, 5.0, N_VARIABLES)
    scale = np.exp(rng.uniform(np.log(0.5), np.log(3.0), N_VARIABLES))
    shifts = {}
    for fid in fault_ids:
        cols = rng.choice(N_VARIABLES, FAULT_VARIABLES, replace=False)
        shift = np.zeros(N_VARIABLES)
        shift[cols] = (rng.choice([-1.0, 1.0], FAULT_VARIABLES)
                       * rng.uniform(1.5, 3.0, FAULT_VARIABLES))
        shifts[fid] = shift

    def run(rows: int, shift=None, onset: int = 0) -> np.ndarray:
        z = _series(rng, rows)
        if shift is not None:
            z[onset:] += shift
        return level + scale * z

    def save(name: str, matrix: np.ndarray) -> None:
        np.savetxt(os.path.join(root, name), matrix, fmt="%.8e")

    os.makedirs(root, exist_ok=True)
    save("d00.dat", run(NORMAL_TRAIN_ROWS).T)
    save("d00_te.dat", run(TEST_ROWS))
    for fid in fault_ids:
        save(f"d{fid:02d}.dat", run(FAULTY_TRAIN_ROWS, shifts[fid]))
        save(f"d{fid:02d}_te.dat", run(TEST_ROWS, shifts[fid], FAULT_ONSET))
