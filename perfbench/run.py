"""tinyalm benchmark launcher.

Run from the root of a tinyalm checkout:

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 25 --trace 0

Each workload runs in a single process of its own (perfbench/workload.py),
one after another, with every BLAS/OpenMP thread variable set to 1 before
NumPy is imported and the checkout's src/ on PYTHONPATH. `--workload all`
runs the three workloads in turn. The last line of standard output is the
result of the (last) workload as one JSON object.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-default", "train-wide", "decode")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMEOUT_S = 175


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tinyalm benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "tinyalm" / "__init__.py").is_file():
        print("perfbench: no src/tinyalm here; run from the root of a tinyalm "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREAD_VARS})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            code = subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {name} exceeded {TIMEOUT_S} s", file=sys.stderr)
            return 1
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
