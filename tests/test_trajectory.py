"""Float64 trajectory oracle: two short training runs in float64, each
trainable tensor projected onto 32 random directions of its own, seeded by
its name, and compared with the values in `trajectory_float64.json`: the
same tensors (by name and shape), and the sum of their projections to 1e-12
relative in L2. A tensor added or removed changes only its own entry.

In float64 a change that only reorders rounding stays near 1e-15 after
these runs, while a small change of logic (a `layer_norm` eps of 1.01e-5
for 1e-5) reads 3e-4 and more, so the test tells the two apart where the
float32 digests of `tools/train_digest.py` cannot. A change that moves the
logic on purpose rewrites the file and says why:

    PYTHONPATH=src python3 tests/test_trajectory.py
"""

import json
import os
import zlib

import numpy as np
import pytest

from tinyalm.config import Config
from tinyalm.data import gen_dataset
from tinyalm.model import Model
from tinyalm.optim import AdamW
from tinyalm.params import seeded_rng
from tinyalm.train import run_training

from test_acceptance import C5_RECIPE, C6_EXPERIMENT

REFERENCE = os.path.join(os.path.dirname(__file__), "trajectory_float64.json")
RUNS = {"c5": (C5_RECIPE, 30), "c6": (C6_EXPERIMENT, 20)}
N_DIRECTIONS = 32


def projections(name: str) -> dict:
    """The run's trainables after its steps, as {"name (shape)": the tensor
    on N_DIRECTIONS directions drawn from a generator keyed by its name}."""
    over, steps = RUNS[name]
    cfg = Config(**over, dtype="float64")
    model = Model(cfg)
    run_training(model, AdamW(model.store, cfg), gen_dataset(cfg, 0, 32),
                 stop_after=steps)
    proj = {}
    for key, t in model.store.trainable_items():
        assert t.data.dtype == np.float64
        rng = seeded_rng(2100, zlib.crc32(key.encode()))
        proj[f"{key} {t.shape}"] = (rng.standard_normal((N_DIRECTIONS, t.size))
                                    @ t.data.ravel())
    return proj


def total(proj: dict) -> np.ndarray:
    """The sum of the entries' projections, in key order."""
    return np.sum([proj[key] for key in sorted(proj)], axis=0)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_float64_trajectory_matches_reference(name):
    with open(REFERENCE) as f:
        ref = {key: np.array(p) for key, p in json.load(f)[name].items()}
    got = projections(name)
    assert sorted(got) == sorted(ref)
    dist = np.linalg.norm(total(got) - total(ref)) / np.linalg.norm(total(ref))
    assert dist <= 1e-12, f"{name}: relative L2 distance {dist:.3e}"


if __name__ == "__main__":
    with open(REFERENCE, "w") as f:
        json.dump({name: {key: p.tolist() for key, p in projections(name).items()}
                   for name in sorted(RUNS)}, f, indent=1)
        f.write("\n")
