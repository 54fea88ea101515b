"""Command-line entry points.

Subcommands: gen-data, train, eval, gradcheck, inspect-routing.
Exit codes: 0 success, 1 assertion/acceptance failure (failed gradcheck,
aborted training), 2 usage error (bad flags, malformed config/data/checkpoint).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .checkpoint import (CheckpointError, apply_checkpoint, load_checkpoint,
                         peek_checkpoint, save_checkpoint)
from .checks import format_report, run_model_suite, run_op_suite
from .config import (ABLATIONS, TASKS, ConfigError, dump_config, load_config,
                     parse_config, save_config)
from .data import (DataFormatError, file_digest, gen_dataset, load_dataset,
                   save_dataset, write_jsonl)
from .model import Model
from .optim import AdamW
from .train import TrainAbort, eval_batches, evaluate, format_metrics, run_training


class UsageError(ValueError):
    pass


def _cmd_gen_data(args) -> int:
    cfg = load_config(args.spec)
    records = gen_dataset(cfg, args.seed, args.n)
    save_dataset(args.out, records, cfg)
    write_jsonl(args.out + ".jsonl", records)
    print(f"wrote {args.n} records to {args.out} (+ .jsonl)")
    print(f"sha256 {file_digest(args.out)}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.ablate:
        cfg = dataclasses.replace(cfg, ablate=args.ablate)
    if cfg.dtype != "float32":  # fail now, not at save after the whole run
        raise UsageError(f"train saves float32 checkpoints; dtype is {cfg.dtype}")
    if cfg.batch_size < 2 and cfg.ablate != "saclm":  # nor at step 0
        raise UsageError("SACLM's in-batch negatives need batch_size >= 2")
    records = load_dataset(args.data, cfg)
    model = Model(cfg)
    opt = AdamW(model.store, cfg)

    print(f"trainable parameters: {model.trainable_count()}")

    start = 0
    if args.resume:
        start = load_checkpoint(args.resume, model.store, opt,
                                config_text=dump_config(cfg))
        print(f"resumed from {args.resume} at step {start}")

    os.makedirs(args.out_dir, exist_ok=True)
    run_training(model, opt, records, start_step=start, log=print)
    ckpt = os.path.join(args.out_dir, "final.ckpt")
    save_checkpoint(ckpt, model.store, opt, cfg.total_steps, dump_config(cfg))
    save_config(cfg, os.path.join(args.out_dir, "config.txt"))
    print(f"saved {ckpt}")
    return 0


def _restore(ckpt_path):
    # the checkpoint carries its own config: read and hash the file once
    head = peek_checkpoint(ckpt_path)
    try:
        cfg = parse_config(head["config_text"])
    except ConfigError as exc:
        raise CheckpointError(f"{ckpt_path}: embedded config: {exc}") from None
    model = Model(cfg)
    apply_checkpoint(head, model.store)
    return cfg, model, head["step"]


def _cmd_eval(args) -> int:
    cfg, model, step = _restore(args.ckpt)
    records = load_dataset(args.data, cfg)
    metrics = evaluate(model, records)
    print(f"checkpoint step {step}, {len(records)} records")
    print(format_metrics(metrics))
    return 0


def _cmd_gradcheck(args) -> int:
    ok = True
    if args.scope in ("op", "both"):
        op_ok, rep = run_op_suite()
        print(format_report(rep))
        ok = ok and op_ok
    if args.scope in ("model", "both"):
        m_ok, rep = run_model_suite()
        print(format_report(rep))
        ok = ok and m_ok
    print("gradcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_inspect_routing(args) -> int:
    import json

    cfg, model, step = _restore(args.ckpt)
    records = load_dataset(args.data, cfg)
    if cfg.ablate == "tapm" or (cfg.ablate == "saclm" and args.dump_scores):
        what = "routing to inspect" if cfg.ablate == "tapm" else "scores to dump"
        raise UsageError(f"checkpoint was trained with {cfg.ablate.upper()} disabled; "
                         f"it has no {what}")
    routing = {t: [] for t in TASKS}
    dump = [] if args.dump_scores else None
    for batch, out in eval_batches(model, records):
        for j, r in enumerate(batch):
            routing[r.task_id].append(out.routing.data[j])
            if dump is not None and out.sac is not None:
                dump.append({"index": r.index, "task_id": int(r.task_id),
                             "scores": out.sac.scores.data[j].round(6).tolist(),
                             "decisions": out.sac.decisions.data[j].tolist(),
                             "routing": out.routing.data[j].round(6).tolist()})
    if dump is not None:
        with open(args.dump_scores, "w") as f:
            for row in dump:
                f.write(json.dumps(row) + "\n")
        print(f"wrote scores of {len(dump)} of {len(records)} records "
              f"to {args.dump_scores}")
    print(f"checkpoint step {step}, {len(records)} records")
    header = "task      " + "".join(f"  expert{i}" for i in range(cfg.n_experts))
    print(header)
    means = {t: np.mean(rows, axis=0) for t, rows in routing.items() if rows}
    for t, mean in means.items():
        print(f"{TASKS[t][0]:10s}" + "".join(f"  {w:.4f}" for w in mean))
    if len(means) == 2:
        print(f"L1 distance {np.abs(means[0] - means[1]).sum():.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tinyalm")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--spec", required=True, help="config file with the task spec")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen_data)

    t = sub.add_parser("train", help="train on a generated dataset")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out-dir", required=True)
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.add_argument("--ablate", default=None, choices=ABLATIONS,
                   help="override the config's ablate key")
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(fn=_cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    c.add_argument("--scope", choices=["op", "model", "both"], default="both")
    c.set_defaults(fn=_cmd_gradcheck)

    r = sub.add_parser("inspect-routing", help="per-task mean routing weights")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--dump-scores", default=None, metavar="FILE",
                   help="also write per-example S/D/routing as JSON lines")
    r.set_defaults(fn=_cmd_inspect_routing)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, DataFormatError, CheckpointError, UsageError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainAbort, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
