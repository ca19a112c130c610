"""Saved-model fixtures written by ``tests/data/make_model_fixtures.py``:
loading and re-saving each must reproduce the file byte for byte, and
the loaded network must give the recorded probabilities. A same-run save
and load cannot catch a change that reorders payload tensors on both
sides (say, swapped bilinear mixes); files written once can."""

from pathlib import Path

import numpy as np
import pytest

from expconv.training import forward_network, load_model, save_model

DATA = Path(__file__).resolve().parent / "data"
FIXTURES = sorted(p.name for p in DATA.glob("model_*.bin"))


def test_every_variant_has_a_fixture():
    assert len(FIXTURES) == 8
    for variant in ("standard", "elementwise", "row_shared", "col_shared",
                    "bilinear", "full_matrix"):
        assert f"model_{variant}_clip.bin" in FIXTURES
    assert {"model_elementwise_reparam.bin",
            "model_bilinear_reparam.bin"} <= set(FIXTURES)


@pytest.mark.parametrize("name", FIXTURES)
def test_resave_reproduces_fixture(tmp_path, name):
    net = load_model(DATA / name)
    save_model(net, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_loaded_probabilities_match(name):
    recorded = np.load(DATA / "model_probs.npz")
    probs = forward_network(load_model(DATA / name), recorded["windows"])
    np.testing.assert_allclose(probs, recorded[name], rtol=0, atol=1e-12)
