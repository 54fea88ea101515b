"""One workload of the tinyalm benchmark, in a process of its own.

run.py starts this file with every BLAS/OpenMP thread variable set to 1 and
the checkout's `src/` on PYTHONPATH, before this interpreter imports NumPy.
It prints a report (environment, then every metric by name and unit with its
sample count) and, as its last line, the result as one JSON object.

With `--trace 0` the timed ops run untraced and the end-to-end metrics are
reported. With `--trace 1` the same ops run twice from a fresh set-up, once
untraced and once under a Tracer; the per-module metrics come from the traced
pass, and the two passes must produce bit-identical losses (or tokens).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from time import perf_counter

import numpy as np

from tinyalm import Config
from tinyalm.checkpoint import load_checkpoint, save_checkpoint
from tinyalm.config import dump_config
from tinyalm.data import gen_dataset
from tinyalm.model import Model
from tinyalm.optim import AdamW
from tinyalm.train import TrainAbort, batch_indices, train_step

from run import THREAD_VARS
from tracer import BUCKETS, FORWARD_SPANS, Tracer

WARMUP_OPS = 3       # untimed ops before the timed ones
SETUP_REPS = 5       # set-ups per run; setup_s is their median
DECODE_SEED_BASE = 1_000_000  # decode data seed = base + --seed, unused by training


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str             # "train" or "decode"
    config: dict          # Config overrides
    n_records: int        # records trained on, or decoded in turn
    min_ops_per_s: float  # timed ops a run makes at least, per second of --seconds


WORKLOADS = {
    # criterion-5 recipe: default model, 32 records
    "train-default": Workload("train", dict(lr=3e-3, batch_size=8,
                                            total_steps=3000), 32, 20.0),
    # C6_EXPERIMENT of tests/test_acceptance.py: d128, one frame per window
    "train-wide": Workload("train", dict(d_model=128, window_frames=1,
                                         margin=0.9, lr=4e-3, batch_size=8,
                                         total_steps=1000), 32, 4.0),
    # untrained default model, restored through a checkpoint
    "decode": Workload("decode", {}, 512, 50.0),
}

# end-to-end metrics of BENCHMARK.json (--trace 0); "op" is one train_step
# on train-*, one record's greedy_decode on decode. The median, throughput
# and loss tail are only reported: across seeds on a shared 2-vCPU host the
# first two spread up to 0.37 and 0.21 (quartile distance / median) as the
# host changes speed, and the loss tail moves with the seed's data.
END_TO_END = {"setup_s": "s", "op_ms.p90": "ms", "peak_rss_mb": "MB"}

# the report's names for each workload, with their units
REPORT_NAMES = {
    "train": {"setup_s": ("setup_s", "s"), "op_ms.p50": ("step_ms.p50", "ms"),
              "op_ms.p90": ("step_ms.p90", "ms"),
              "work_per_s": ("train_examples_per_s", "examples/s"),
              "loss_tail": ("loss_tail", "loss"),
              "peak_rss_mb": ("peak_rss_mb", "MB")},
    "decode": {"setup_s": ("setup_s", "s"), "op_ms.p50": ("decode_ms.p50", "ms"),
               "op_ms.p90": ("decode_ms.p90", "ms"),
               "work_per_s": ("decode_tokens_per_s", "tokens/s"),
               "loss_tail": ("decoded_ce_tail", "loss"),
               "peak_rss_mb": ("peak_rss_mb", "MB")},
}

# per-layer metrics of BENCHMARK.json (--trace 1); 0 where a layer never runs
PER_LAYER = {"model.forward_ms": "ms", "autodiff.backward_ms": "ms",
             "optim.step_ms": "ms"}
PER_LAYER.update({f"{span}_ms": "ms" for span in FORWARD_SPANS})
for _b in BUCKETS:
    PER_LAYER[f"{_b}.backward_ms"] = "ms"
    PER_LAYER[f"{_b}.nodes_per_step"] = "count"
PER_LAYER.update({
    "autodiff.nodes_per_step": "count",
    "autodiff.bwd_nodes_without_grad_frac": "share",
    "autodiff.tape_bytes_per_step": "bytes",
    "lm.positions_per_decode_forward": "count",
    "lm.useful_position_frac": "share",
    "data.gen_dataset_ms": "ms", "model.init_ms": "ms",
    "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "bench.trace_overhead_ms": "ms",
})


@dataclasses.dataclass
class Setup:
    wl: Workload
    cfg: Config
    records: list
    model: Model
    opt: AdamW        # None for decode
    times: dict       # set-up part -> seconds, ms or bytes


@dataclasses.dataclass
class Pass:
    """Outcome of one pass over the timed ops."""
    times_ms: list
    outputs: list     # per op: L of a step, emitted tokens of a decode
    losses: list      # per op: L of a step, teacher-forced CE of a decode
    work: int         # examples trained or tokens emitted
    failed: int       # steps with a non-finite loss, decodes the oracle rejects


def set_up(wl: Workload, seed: int, workdir: str) -> Setup:
    """Everything before the first timed call, timed by part."""
    t0 = perf_counter()
    cfg = Config(**wl.config)
    if wl.kind == "train":
        records = gen_dataset(cfg, seed, wl.n_records)
        t1 = perf_counter()
        model = Model(cfg)
        opt = AdamW(model.store, cfg)
        t2 = perf_counter()
        return Setup(wl, cfg, records, model, opt, {
            "setup_s": t2 - t0, "data.gen_dataset_ms": (t1 - t0) * 1e3,
            "model.init_ms": (t2 - t1) * 1e3, "checkpoint.save_ms": 0.0,
            "checkpoint.load_ms": 0.0, "checkpoint.bytes": 0})

    records = gen_dataset(cfg, DECODE_SEED_BASE + seed, wl.n_records)
    t1 = perf_counter()
    source = Model(cfg)
    opt = AdamW(source.store, cfg)
    t2 = perf_counter()
    path = os.path.join(workdir, "init.ckpt")
    config_text = dump_config(cfg)
    save_checkpoint(path, source.store, opt, 0, config_text)
    t3 = perf_counter()
    model = Model(cfg)
    t4 = perf_counter()
    load_checkpoint(path, model.store, config_text=config_text)
    t5 = perf_counter()
    return Setup(wl, cfg, records, model, None, {
        "setup_s": t5 - t0, "data.gen_dataset_ms": (t1 - t0) * 1e3,
        "model.init_ms": (t2 - t1 + t4 - t3) * 1e3,
        "checkpoint.save_ms": (t3 - t2) * 1e3,
        "checkpoint.load_ms": (t5 - t4) * 1e3,
        "checkpoint.bytes": os.path.getsize(path)})


def decoded_ce(model: Model, record, tokens: list):
    """Teacher-forced oracle: forward the emitted tokens as the record's
    targets. Returns (argmax at the supervised positions equals the tokens,
    mean CE of the tokens)."""
    rec = dataclasses.replace(record, targets=np.asarray(tokens, dtype=np.int64))
    out = model.forward_batch([rec], None, compute_saclm=False)
    supervised = out.seq.loss_mask[0] > 0
    pred = np.argmax(out.logits.data[0][supervised], axis=-1)
    return pred.tolist() == list(tokens), float(out.loss_ce.data)


def run_pass(s: Setup, n_min: int, seconds: float, tracer: Tracer = None) -> Pass:
    """WARMUP_OPS untimed ops, then timed ones: at least n_min, and more
    until `seconds` have passed since the first (training stops at the end
    of its lr schedule). Op i is train step i, or the greedy decode of
    record i mod n_records."""
    train = s.wl.kind == "train"
    cap = s.cfg.total_steps - WARMUP_OPS if train else float("inf")

    def op(i):
        if not train:
            return s.model.greedy_decode(s.records[i % len(s.records)])
        batch = [s.records[j] for j in batch_indices(i, s.cfg.batch_size,
                                                     len(s.records))]
        try:
            return train_step(s.model, s.opt, batch, i)["L"]
        except TrainAbort:
            return float("nan")

    for i in range(WARMUP_OPS):
        op(i)
    p = Pass([], [], [], 0, 0)
    if tracer is not None:
        tracer.recording = True
    t_end = perf_counter() + seconds
    while len(p.times_ms) < n_min or (perf_counter() < t_end
                                      and len(p.times_ms) < cap):
        t0 = perf_counter()
        out = op(WARMUP_OPS + len(p.times_ms))
        p.times_ms.append((perf_counter() - t0) * 1e3)
        p.outputs.append(out)
    if tracer is not None:
        tracer.recording = False

    if train:
        p.losses = p.outputs
        p.failed = sum(not np.isfinite(loss) for loss in p.losses)
        p.work = len(p.losses) * s.cfg.batch_size
        return p
    checked = {}  # (record, tokens) -> oracle verdict; decoding is deterministic
    for i, tokens in enumerate(p.outputs, WARMUP_OPS):
        key = (i % len(s.records), tuple(tokens))
        if key not in checked:
            checked[key] = decoded_ce(s.model, s.records[key[0]], tokens)
        ok, ce = checked[key]
        p.failed += not ok
        p.losses.append(ce)
        p.work += len(tokens)
    return p


def loss_tail(p: Pass, n_min: int) -> float:
    """Mean loss over the last tenth of the first n_min timed ops. n_min
    depends on --seconds alone, so this repeats exactly within a commit."""
    k = max(1, n_min // 10)
    return float(np.mean(p.losses[n_min - k:n_min]))


def pass_ok(p: Pass, n_min: int, train: bool) -> bool:
    """No failed op and, for training, a loss tail below the first loss."""
    return p.failed == 0 and (not train or loss_tail(p, n_min) < p.losses[0])


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.26 has no mode="dicts"
        return "unknown"


def environment(name: str, seed: int) -> list:
    threads = " ".join(f"{v}={os.environ.get(v, '(unset)')}" for v in THREAD_VARS)
    return [f"workload {name}  seed {seed}",
            f"env python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas_info()} cpu_count={os.cpu_count()}",
            f"env threads {threads}"]


def measure(name: str, seed: int, seconds: int, trace: bool, workdir: str):
    """Returns (result, report lines)."""
    wl = WORKLOADS[name]
    train = wl.kind == "train"
    op = "steps" if train else "records"
    n_min = max(2, round(wl.min_ops_per_s * seconds))

    parts = []
    for _ in range(SETUP_REPS):
        s = None  # free the previous set-up first, so RSS holds one at a time
        s = set_up(wl, seed, workdir)
        parts.append(s.times)
    setup_med = {k: statistics.median(t[k] for t in parts) for k in parts[0]}
    lines = environment(name, seed)

    if not trace:
        p = run_pass(s, n_min, seconds)
        n = len(p.times_ms)
        values = {
            "setup_s": setup_med["setup_s"],
            "op_ms.p50": float(np.percentile(p.times_ms, 50)),
            "op_ms.p90": float(np.percentile(p.times_ms, 90)),
            "work_per_s": p.work / (sum(p.times_ms) / 1e3),
            "loss_tail": loss_tail(p, n_min),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": f"median of {SETUP_REPS} set-ups",
                   "op_ms.p50": f"n={n} {op}", "op_ms.p90": f"n={n} {op}",
                   "work_per_s": f"over {n} {op}",
                   "loss_tail": f"last {max(1, n_min // 10)} of first {n_min} {op}",
                   "peak_rss_mb": "ru_maxrss of this process"}
        for key, (label, unit) in REPORT_NAMES[wl.kind].items():
            gated = f"[{key}]" if key in END_TO_END else ""
            lines.append(f"  {label:24s} {values[key]:14.6f} {unit:11s}"
                         f"  {samples[key]:28s} {gated}")
        lines.append(f"  {'failed_frac':24s} {p.failed / n:14.6f} {'share':11s}"
                     f"  {p.failed} of {n} {op}")
        result = {"correct": pass_ok(p, n_min, train), "attempted": n,
                  "failed": p.failed,
                  "metrics": {k: {"value": values[k], "unit": u}
                              for k, u in END_TO_END.items()}}
        return result, lines

    # traced run: an untraced and a traced pass over the same fixed ops, each
    # from a fresh set-up, so the traced pass must repeat the untraced one
    # exactly and the counts repeat from run to run
    n_half = max(2, n_min // 2)
    base = run_pass(s, n_half, 0.0)
    s = None
    s = set_up(wl, seed, workdir)
    tracer = Tracer(s.model, s.opt)
    traced = run_pass(s, n_half, 0.0, tracer)
    identical = traced.outputs == base.outputs
    values = tracer.metrics()
    values.update({k: setup_med[k] for k in ("data.gen_dataset_ms",
                                             "model.init_ms",
                                             "checkpoint.save_ms",
                                             "checkpoint.load_ms",
                                             "checkpoint.bytes")})
    values["bench.trace_overhead_ms"] = float(np.median(traced.times_ms)
                                              - np.median(base.times_ms))
    n = len(base.times_ms)
    lines.append(f"  traced {n} {op} after the same {n} untraced; outputs "
                 f"{'bit-identical' if identical else 'DIFFER'}; "
                 f"per-op means below")
    for key, unit in PER_LAYER.items():
        lines.append(f"  {key:40s} {values[key]:16.6f} {unit}")
    result = {"correct": (identical and pass_ok(base, n_half, train)
                          and pass_ok(traced, n_half, train)),
              "attempted": 2 * n, "failed": base.failed + traced.failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in PER_LAYER.items()}}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in [1, 60]")
    # checkpoint files stay inside the checkout and go away afterwards
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as work:
        result, lines = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), work)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
