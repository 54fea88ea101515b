"""Memory of one training step: what its tape keeps, and the step's peak.

Trains perfbench's `train-default` and `train-wide` workloads (their
configs, seed-1 data, 32 records) for 5 warm-up steps, then runs one more
step under `tracemalloc` and prints, for each workload:

- the bytes of the arrays reachable from the tape when `Tape.backward`
  starts, that is after the forward: node inputs, outputs and the state of
  the backward closures, each base array counted once, and the model's
  parameters left out, since they live on without the tape;
- the traced peak of that step above its start, leaving out what the count
  above allocates.

Run it from the root of a checkout, say a parent and a change, and compare:

    PYTHONPATH=src python3 tools/step_memory.py
"""

from __future__ import annotations

import os
import sys
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workload import WORKLOADS  # noqa: E402

from tinyalm.autodiff import Tape, Tensor  # noqa: E402
from tinyalm.config import Config  # noqa: E402
from tinyalm.data import gen_dataset  # noqa: E402
from tinyalm.model import Model  # noqa: E402
from tinyalm.optim import AdamW  # noqa: E402
from tinyalm.train import batch_indices, train_step  # noqa: E402

NAMES = ("train-default", "train-wide")
WARMUP_STEPS = 5
MIB = 1 << 20


def base_of(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def reachable_bytes(roots, skip=frozenset()) -> int:
    """Bytes of the distinct base arrays reachable from roots through
    tuples, lists, Tensors' data and function closures; bases whose id is
    in skip are not counted."""
    seen, counted, total = set(), set(skip), 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = base_of(obj)
            if id(base) not in counted:
                counted.add(id(base))
                total += base.nbytes
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return total


def measure(name: str, warmup: int = WARMUP_STEPS) -> tuple:
    """(traced peak of the step after `warmup` above its start, bytes its
    tape keeps after the forward) for the workload."""
    wl = WORKLOADS[name]
    cfg = Config(**wl.config)
    records = gen_dataset(cfg, 1, wl.n_records)
    model = Model(cfg)
    opt = AdamW(model.store, cfg)

    def step(i):
        train_step(model, opt, [records[j] for j in
                                batch_indices(i, cfg.batch_size, len(records))], i)

    for i in range(warmup):
        step(i)
    params = frozenset(id(base_of(t.data)) for _, t in model.store.items())
    real_backward = Tape.backward
    seen = {}

    def backward(tape, root):
        seen["forward_peak"] = tracemalloc.get_traced_memory()[1]
        seen["kept"] = reachable_bytes(tape.nodes, params)
        tracemalloc.reset_peak()  # drop what the count allocated
        real_backward(tape, root)

    Tape.backward = backward
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step(warmup)
        peak = max(seen["forward_peak"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        Tape.backward = real_backward
    return peak - start, seen["kept"]


def main() -> int:
    for name in NAMES:
        peak, kept = measure(name)
        print(f"{name} step {WARMUP_STEPS + 1}: traced peak {peak / MIB:.3f} MiB "
              f"above its start; tape keeps {kept / MIB:.3f} MiB after the forward",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
