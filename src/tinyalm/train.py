"""Training loop, per-step logging, and the evaluation pass.

Batches are deterministic: step s takes records [(s*B + j) % n]. The
combined objective is alpha * CE + (1 - alpha) * SAC; each step logs step,
lr, and the loss components on one line.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, first_nonfinite
from .data import window_labels
from .model import Model
from .optim import AdamW, lr_at
from .params import seeded_rng


class TrainAbort(RuntimeError):
    pass


def batch_indices(step: int, batch_size: int, n: int) -> list:
    return [(step * batch_size + j) % n for j in range(batch_size)]


def train_step(model: Model, opt: AdamW, records: list, step: int) -> dict:
    def forward():  # deterministic: same parameters, records and rng
        return model.forward_batch(records, seeded_rng(model.cfg.seed, 70000 + step))

    with Tape() as tape:
        out = forward()
        if not np.isfinite(out.loss.data):
            raise TrainAbort(f"non-finite loss at step {step}; first bad "
                             f"tensor came from op {first_nonfinite(forward)!r}")
        opt.zero_grad()  # the first call flattens, atop the heap this forward grew
        tape.backward(out.loss)
    if not np.isfinite(opt.gradient()).all():
        name = next(n for n, p in opt.store.trainable_items()
                    if not np.isfinite(p.grad).all())
        raise TrainAbort(f"non-finite gradient for {name} at step {step}; "
                         f"first op with a non-finite output: "
                         f"{first_nonfinite(forward)!r}")
    # the optimizer's config owns the schedule
    lr = lr_at(step, opt.cfg.total_steps, opt.cfg.lr, opt.cfg.warmup_ratio)
    opt.step(lr)
    row = {"step": step, "lr": lr, "L": float(out.loss.data),
           "L_CE": float(out.loss_ce.data)}
    if out.sac is not None:
        row["L_triplet"] = float(out.sac.loss_triplet.data)
        row["L_sparsity"] = float(out.sac.loss_sparsity.data)
        row["L_SAC"] = float(out.sac.loss_sac.data)
    else:
        row["L_triplet"] = row["L_sparsity"] = row["L_SAC"] = 0.0
    return row


def format_log_row(row: dict) -> str:
    return (f"step={row['step']} lr={row['lr']:.6e} L={row['L']:.6f} "
            f"L_CE={row['L_CE']:.6f} L_triplet={row['L_triplet']:.6f} "
            f"L_sparsity={row['L_sparsity']:.6f}")


def run_training(model: Model, opt: AdamW, records: list,
                 start_step: int = 0, stop_after: int = None,
                 log=None) -> list:
    last = opt.cfg.total_steps if stop_after is None else stop_after
    rows = []
    for step in range(start_step, last):
        batch = [records[i] for i in batch_indices(step, model.cfg.batch_size,
                                                   len(records))]
        row = train_step(model, opt, batch, step)
        rows.append(row)
        if log is not None:
            log(format_log_row(row))
    return rows


def _score_window_stats(model: Model, record, s_row: np.ndarray, acc: dict):
    """Accumulate mean-score buckets using generator noise positions.

    Score positions map to base-frame windows only when the first encoder
    frames exactly one base frame per step; otherwise the buckets stay empty.
    """
    cfg = model.cfg
    if (cfg.enc1_window != cfg.samples_per_frame
            or cfg.enc1_stride != cfg.samples_per_frame):
        return
    labels = window_labels(record, cfg.window_frames, cfg.samples_per_frame)
    for w, lab in enumerate(labels):
        if lab == "mixed":
            continue
        for q in range(cfg.n_queries):
            acc[lab].append(float(s_row[w * cfg.n_queries + q]))


def eval_batches(model: Model, records: list):
    """Yield (batch, ForwardOut) over consecutive batch_size slices, each
    with its own fixed rng. A one-record batch has no in-batch negative, so
    it runs without SACLM."""
    for lo in range(0, len(records), model.cfg.batch_size):
        batch = records[lo:lo + model.cfg.batch_size]
        yield batch, model.forward_batch(batch, seeded_rng(9, lo),
                                         compute_saclm=len(batch) >= 2)


def evaluate(model: Model, records: list) -> dict:
    """Token accuracy, exact match, mean losses, per-task routing means,
    and the signed signal-minus-noise score gap."""
    n = len(records)
    tok_hits = tok_total = 0
    exact = 0
    sums = {"L": 0.0, "L_CE": 0.0, "L_triplet": 0.0, "L_sparsity": 0.0}
    loss_batches = 0
    routing = {0: [], 1: []}
    scores = {"noise": [], "signal": []}
    fallbacks = 0
    empty_windows = 0

    for batch, out in eval_batches(model, records):
        pred = np.argmax(out.logits.data, axis=-1)
        mask = out.seq.loss_mask > 0
        tok_hits += int((pred[mask] == out.seq.labels[mask]).sum())
        tok_total += int(mask.sum())
        empty_windows += out.zfeat.empty_windows
        if out.sac is not None:
            sums["L"] += float(out.loss.data)
            sums["L_CE"] += float(out.loss_ce.data)
            sums["L_triplet"] += float(out.sac.loss_triplet.data)
            sums["L_sparsity"] += float(out.sac.loss_sparsity.data)
            loss_batches += 1
            fallbacks += out.sac.fallback_count
            for bi, rec in enumerate(batch):
                _score_window_stats(model, rec, out.sac.scores.data[bi], scores)
        if out.routing is not None:
            for bi, rec in enumerate(batch):
                routing[rec.task_id].append(out.routing.data[bi])

    for rec in records:
        if model.greedy_decode(rec) == rec.targets.tolist():
            exact += 1

    metrics = {
        "n": n,
        "token_accuracy": tok_hits / max(tok_total, 1),
        "exact_match": exact / n,
        "fallbacks": fallbacks,
        "empty_windows": empty_windows,
    }
    for key, val in sums.items():
        metrics["mean_" + key] = val / loss_batches if loss_batches else float("nan")
    for task, rows in routing.items():
        metrics[f"routing_task{task}"] = (np.mean(rows, axis=0)
                                          if rows else None)
    r0, r1 = metrics.get("routing_task0"), metrics.get("routing_task1")
    metrics["routing_l1_distance"] = (float(np.abs(r0 - r1).sum())
                                      if r0 is not None and r1 is not None
                                      else float("nan"))
    mean_noise = np.mean(scores["noise"]) if scores["noise"] else float("nan")
    mean_signal = np.mean(scores["signal"]) if scores["signal"] else float("nan")
    metrics["mean_score_noise"] = float(mean_noise)
    metrics["mean_score_signal"] = float(mean_signal)
    metrics["score_gap_signal_minus_noise"] = float(mean_signal - mean_noise)
    metrics["n_noise_windows"] = len(scores["noise"])
    metrics["n_signal_windows"] = len(scores["signal"])
    return metrics


def format_metrics(metrics: dict) -> str:
    lines = []
    for key in ("n", "token_accuracy", "exact_match", "mean_L", "mean_L_CE",
                "mean_L_triplet", "mean_L_sparsity", "routing_l1_distance",
                "mean_score_noise", "mean_score_signal",
                "score_gap_signal_minus_noise", "n_noise_windows",
                "n_signal_windows", "fallbacks", "empty_windows"):
        val = metrics[key]
        if isinstance(val, float):
            lines.append(f"{key:32s} {val:.6f}")
        else:
            lines.append(f"{key:32s} {val}")
    for task in (0, 1):
        row = metrics.get(f"routing_task{task}")
        if row is not None:
            pretty = " ".join(f"{x:.4f}" for x in row)
            lines.append(f"{'routing_task%d' % task:32s} [{pretty}]")
    return "\n".join(lines)
