"""Digests of short training runs, to tell whether a change moves training bits.

Trains perfbench's `train-default` workload for 60 steps and its
`train-wide` workload for 15, each on seed-1 data (32 records) with the
benchmark's batch order. For each it prints the last loss and a sha256
(first 16 hex digits) of the per-step losses (float64), of the trained
parameters plus the AdamW moments, of the greedy tokens of the first 16
records, and of the logits at those records' supervised positions (after
60 default steps every greedy decode is a lone EOS, so the tokens alone
say little). The next line digests the `decode` workload: the untrained
default model's greedy tokens of 64 records of the workload's seed-1 data,
with the last-position logits of every decoder call they took. The last
two lines are the sha256 of a checkpoint saved after 6 `train-default` steps
and of its bytes from the step field to the end, which leave out the header's
config text and fingerprint: a change to the config namespace moves only the
first, a change to a tensor both. Run it from the root of two checkouts, say
a parent and a change, and compare the lines:

    PYTHONPATH=src python3 tools/train_digest.py

With `--float64 OTHER` it prints instead, for each run of
tests/test_trajectory.py (`c5` and `c6`, trained in float64), the relative
L2 distance between the summed projections of the trainable tensors that
this checkout and the checkout at OTHER both hold (same name and shape),
with their count. Each side runs in a subprocess with its own `src` and
`tests` on the path. A change that keeps every bit reads 0, one that only
reorders rounding 1e-15 or less, and a change of logic 1e-4 and more:

    PYTHONPATH=src python3 tools/train_digest.py --float64 ../parent

Both checkouts must project per tensor, as every commit from f5702f3 on
does; against an older one the tool says so and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workload import DECODE_SEED_BASE, WORKLOADS  # noqa: E402

from tinyalm.checkpoint import save_checkpoint  # noqa: E402
from tinyalm.config import Config, dump_config  # noqa: E402
from tinyalm.data import gen_dataset  # noqa: E402
from tinyalm.model import Model  # noqa: E402
from tinyalm.optim import AdamW  # noqa: E402
from tinyalm.train import batch_indices, train_step  # noqa: E402

RUNS = (("train-default", 60), ("train-wide", 15))
N_DECODED = 16
N_DECODE_RECORDS = 64
CHECKPOINT_STEPS = 6


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def trained(name: str, steps: int):
    """(config, records, model, optimizer, per-step losses) after `steps`
    steps of the workload on its seed-1 data."""
    wl = WORKLOADS[name]
    cfg = Config(**wl.config)
    records = gen_dataset(cfg, 1, wl.n_records)
    model = Model(cfg)
    opt = AdamW(model.store, cfg)
    losses = []
    for i in range(steps):
        batch = [records[j] for j in batch_indices(i, cfg.batch_size, len(records))]
        losses.append(train_step(model, opt, batch, i)["L"])
    return cfg, records, model, opt, losses


def digest(name: str, steps: int) -> list:
    cfg, records, model, opt, losses = trained(name, steps)
    state = []
    for key, t in model.store.trainable_items():
        state += [t.data, opt.m[key], opt.v[key]]
    tokens = [model.greedy_decode(r) for r in records[:N_DECODED]]
    logits = []
    for lo in range(0, N_DECODED, cfg.batch_size):
        out = model.forward_batch(records[lo:lo + cfg.batch_size], None,
                                  compute_saclm=False)
        logits.append(out.logits.data[out.seq.loss_mask > 0])
    return [f"{name} steps {steps} last loss {losses[-1]:.9f}",
            f"{name} losses sha256 {sha(np.array(losses, dtype=np.float64))}",
            f"{name} weights+moments sha256 {sha(*state)}",
            f"{name} greedy tokens sha256 "
            f"{sha(np.array([t for row in tokens for t in row + [-1]]))}",
            f"{name} supervised logits sha256 {sha(*logits)}"]


def decode_digest() -> str:
    cfg = Config(**WORKLOADS["decode"].config)
    records = gen_dataset(cfg, DECODE_SEED_BASE + 1, N_DECODE_RECORDS)
    model = Model(cfg)
    forward = model.decoder.forward
    logits = []

    def keep_logits(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits.append(out.data[:, -1])
        return out

    model.decoder.forward = keep_logits
    tokens = [t for r in records for t in model.greedy_decode(r) + [-1]]
    return (f"decode records {N_DECODE_RECORDS} tokens+logits sha256 "
            f"{sha(np.array(tokens), *logits)}")


def checkpoint_digest(steps: int = CHECKPOINT_STEPS) -> str:
    cfg, _, model, opt, _ = trained("train-default", steps)
    text = dump_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train-default.ckpt")
        save_checkpoint(path, model.store, opt, steps, text)
        with open(path, "rb") as f:
            body = f.read()
    # magic, version, fingerprint and config length come before the text
    step_at = 4 + 4 + 64 + 4 + len(text.encode())
    return (f"train-default checkpoint after {steps} steps sha256 "
            f"{hashlib.sha256(body).hexdigest()[:16]}\n"
            f"train-default checkpoint after {steps} steps from the step field "
            f"sha256 {hashlib.sha256(body[step_at:]).hexdigest()[:16]}")


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# a run's projections are null where they are one array, not one per tensor
PROJECT = ("import json\nfrom test_trajectory import RUNS, projections\n"
           "runs = {n: projections(n) for n in sorted(RUNS)}\n"
           "print(json.dumps({n: {k: p.tolist() for k, p in r.items()}"
           " if isinstance(r, dict) else None for n, r in runs.items()}))")
KEYED_SINCE = "f5702f3"  # the first commit whose projections are keyed by tensor


class UnkeyedProjections(Exception):
    """A checkout's trajectory projections are not keyed by tensor name."""


def trajectory_projections(root: str) -> dict:
    """{run: {"name (shape)": projection}} of tests/test_trajectory.py,
    computed by the checkout at root in a subprocess."""
    path = os.pathsep.join(os.path.join(root, d) for d in ("src", "tests"))
    out = subprocess.run([sys.executable, "-c", PROJECT], check=True,
                         stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    runs = json.loads(out)
    if any(run is None for run in runs.values()):
        raise UnkeyedProjections(
            f"{root}: tests/test_trajectory.py projects each run to one array, "
            f"not one per tensor; both checkouts must be at or after {KEYED_SINCE}")
    return {name: {key: np.array(p) for key, p in run.items()}
            for name, run in runs.items()}


def float64_distances(other: str) -> list:
    there = trajectory_projections(other)  # first, so an old OTHER fails fast
    here = trajectory_projections(ROOT)
    lines = []
    for name in sorted(here):
        common = sorted(here[name].keys() & there[name].keys())
        a, b = (np.sum([side[name][key] for key in common], axis=0)
                for side in (here, there))
        lines.append(f"{name} float64 trajectory relative L2 distance over "
                     f"{len(common)} common tensors to {other} "
                     f"{np.linalg.norm(a - b) / np.linalg.norm(b):.3e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--float64", metavar="OTHER",
                        help="root of the checkout to compare float64 trajectories with")
    args = parser.parse_args(argv)
    if args.float64:
        if not os.path.isfile(os.path.join(args.float64, "tests", "test_trajectory.py")):
            parser.error(f"--float64: no tests/test_trajectory.py under {args.float64}")
        try:
            print("\n".join(float64_distances(args.float64)))
        except UnkeyedProjections as err:
            print(f"train_digest: {err}", file=sys.stderr)
            return 2
        return 0
    for name, steps in RUNS:
        print("\n".join(digest(name, steps)), flush=True)
    print(decode_digest(), flush=True)
    print(checkpoint_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
