"""In-process A/B timing of two checkouts on perfbench's three workloads.

Loads PARENT's and CHANGE's `src/tinyalm` into this one process, under the
module names `tinyalm_parent` and `tinyalm_change`, and for each side a copy
of this checkout's perfbench/workload.py bound to that side's package. So
both sides build perfbench's workloads with its own configs, record counts
and set-up code, on seed SEED. Each round times, per workload and side, one
set-up and then perfbench's op loop: WARMUP_OPS untimed ops, then OPS timed
train_steps or greedy decodes (decodes checked by perfbench's oracle). The
sides alternate which runs first, parent first in even rounds. Both share
the process, its heap and its set-up mode, so the per-process effects that
make separate benchmark processes differ fall on both.

Prints, per workload and measure (set-up ms; the round's median op ms), the
parent's median and quartiles over rounds, the change's median, the rounds
in which the change was faster, and a two-sided sign-test p over the rounds
without a tie. It is evidence beside the BENCH files, not in place of them.
One process, no threads, every BLAS thread variable set to 1:

    python3 tools/ab.py ../parent ../change --rounds 30
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import os
import statistics
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
sys.path.insert(0, PERFBENCH)  # workload.py imports run and tracer
from run import THREAD_VARS, WORKLOADS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
OPS = {"train": 5, "decode": 20}  # timed ops per round and side
SEED = 1


def load_side(side: str, root: str):
    """perfbench/workload.py as module `workload_<side>`, with every
    `tinyalm` name it imports bound to root's src/tinyalm, loaded as
    package `tinyalm_<side>`."""
    pkg_dir = os.path.join(root, "src", "tinyalm")
    if not os.path.isfile(os.path.join(pkg_dir, "__init__.py")):
        raise FileNotFoundError(f"{root}: no src/tinyalm/__init__.py")
    name = f"tinyalm_{side}"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("checkpoint", "config", "data", "model", "optim", "train"):
        importlib.import_module(f"{name}.{sub}")

    # while workload.py (and the tracer it imports) load, `tinyalm` is this side
    own = {k: m for k, m in sys.modules.items() if k.startswith("tinyalm")}
    sys.modules.pop("tracer", None)
    for k, m in list(sys.modules.items()):
        if k == name or k.startswith(name + "."):
            sys.modules["tinyalm" + k[len(name):]] = m
    try:
        spec = importlib.util.spec_from_file_location(
            f"workload_{side}", os.path.join(PERFBENCH, "workload.py"))
        workload = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workload)
    finally:
        for k in [k for k in sys.modules if k == "tinyalm" or k.startswith("tinyalm.")]:
            del sys.modules[k]
        sys.modules.update(own)
    return workload


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of `wins` against `losses`, ties left out."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def run_round(workload, name: str, workdir: str) -> tuple:
    """(set-up ms, median op ms, failed ops) of one set-up and op loop."""
    wl = workload.WORKLOADS[name]
    s = workload.set_up(wl, SEED, workdir)
    p = workload.run_pass(s, OPS[wl.kind], 0.0)
    return s.times["setup_s"] * 1e3, statistics.median(p.times_ms), p.failed


def summary(name: str, measure: str, parent: list, change: list) -> str:
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    return (f"{name:13s} {measure:8s} {pm:9.3f} ({q1:.3f}-{q3:.3f}) {cm:9.3f} "
            f"{cm / pm:7.3f} {wins:3d}/{len(parent):<3d} {sign_test_p(wins, losses):9.2g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    try:
        sides = {"parent": load_side("parent", args.parent),
                 "change": load_side("change", args.change)}
    except FileNotFoundError as err:
        ap.error(str(err))

    times = {(n, side): [] for n in WORKLOADS for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    with tempfile.TemporaryDirectory(prefix="tinyalm-ab-") as workdir:
        for r in range(args.rounds):
            for name in WORKLOADS:
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    setup_ms, op_ms, n_failed = run_round(sides[side], name, workdir)
                    times[name, side].append((setup_ms, op_ms))
                    failed[side] += n_failed

    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(f"ab parent {args.parent} change {args.change} rounds {args.rounds} seed {SEED}")
    print(f"env python {sys.version.split()[0]} numpy {np.__version__} {threads}")
    print(f"ops per round and side: {OPS['train']} train steps or {OPS['decode']} "
          f"decodes, after {sides['parent'].WARMUP_OPS} untimed")
    print(f"{'workload':13s} {'measure':8s} {'parent ms (quartiles)':>27s} "
          f"{'change ms':>9s} {'ratio':>7s} {'faster':>7s} {'sign p':>9s}")
    for name in WORKLOADS:
        for i, measure in enumerate(("setup", "op")):
            print(summary(name, measure, *([t[i] for t in times[name, side]]
                                            for side in SIDES)))
    print(f"failed ops: parent {failed['parent']} change {failed['change']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
