"""Spread of the criterion-6 score gap under 1-ulp initial perturbations.

Trains `C6_EXPERIMENT` of tests/test_acceptance.py (the with-lambda run)
once from the initial model as is, then K = 24 times, each from the initial
model with half of its nonzero trainable entries moved up by one ulp
(`np.nextafter`), the half drawn from `default_rng(k)` for k = 1..K. The
unperturbed gap checks that the harness reproduces criterion 6's run. Prints
each run's signal-minus-noise score gap, then the minimum and median of the
perturbed ones. A change to the numerics quotes its spread next to the
parent's; at K = 12, two commits' counts of gaps below 0.05 differed by a
single draw. About 25-30 s per run on one core of a 2-vCPU host, some 12
minutes in all, so it stays outside the test suite. Run from the root of
the checkout:

    PYTHONPATH=src python3 tools/c6_spread.py
"""

from __future__ import annotations

import os
import statistics
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from test_acceptance import C6_EXPERIMENT  # noqa: E402

from tinyalm.config import Config  # noqa: E402
from tinyalm.data import gen_dataset  # noqa: E402
from tinyalm.model import Model  # noqa: E402
from tinyalm.optim import AdamW  # noqa: E402
from tinyalm.train import evaluate, run_training  # noqa: E402

K = 24


def perturb(model: Model, seed: int):
    """Move a random half of the nonzero trainable entries up by one ulp."""
    rng = np.random.default_rng(seed)
    for _, t in model.store.trainable_items():
        pick = (rng.random(t.shape) < 0.5) & (t.data != 0)
        t.data[pick] = np.nextafter(t.data[pick], np.inf)


def gap(seed: int) -> float:
    """Score gap of the with-lambda C6 run; seed 0 leaves the init as is."""
    cfg = Config(**C6_EXPERIMENT)
    model = Model(cfg)
    if seed:
        perturb(model, seed)
    records = gen_dataset(cfg, 0, 32)
    run_training(model, AdamW(model.store, cfg), records)
    return evaluate(model, records)["score_gap_signal_minus_noise"]


def main() -> int:
    print(f"unperturbed gap {gap(0):.4f}", flush=True)
    gaps = []
    for k in range(1, K + 1):
        gaps.append(gap(k))
        print(f"perturbation {k:2d} gap {gaps[-1]:.4f}", flush=True)
    print(f"min {min(gaps):.4f} median {statistics.median(gaps):.4f} "
          f"over {len(gaps)} perturbations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
