"""Acceptance suite: nine behavioral criteria, one test each.

Every test prints a single [PASS]/[FAIL] line outside pytest's capture so
the verdicts are visible in any pytest run. Training-based criteria use
experiment configs (raised lr, toy windowing) documented inline; the
reference-recipe defaults themselves are pinned by criterion 2.
"""

import dataclasses
import time

import numpy as np
import pytest

from tinyalm.autodiff import Tensor
from tinyalm.checkpoint import load_checkpoint, save_checkpoint
from tinyalm.checks import run_model_suite, run_op_suite
from tinyalm.config import Config, dump_config, parse_config
from tinyalm.data import gen_dataset
from tinyalm.model import Model
from tinyalm.optim import AdamW
from tinyalm.params import ParamStore, seeded_rng
from tinyalm.qformer import WindowQFormer
from tinyalm.train import evaluate, run_training

from param_formula import trainable_param_formula

TRAINABLE_PREFIXES = ("qformer.", "tapm.", "saclm.", "lm.lora.", "inproj.")
FROZEN_PREFIXES = ("encoders.", "lm.base.")

_CAPFD = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    """Let report() print through pytest's fd-level capture."""
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def train_model(n=32, data_seed=0, **over):
    cfg = Config(**over)
    model = Model(cfg)
    recs = gen_dataset(cfg, data_seed, n)
    opt = AdamW(model.store, cfg)
    rows = run_training(model, opt, recs)
    return model, opt, recs, rows


# -- criterion 1: gradient fidelity ------------------------------------------

def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    op_ok, op_rep = run_op_suite(eps=1e-6, tol=1e-4)
    model_ok, model_rep = run_model_suite(eps=1e-5, tol=1e-4)
    elapsed = time.monotonic() - t0
    worst = max(r["max_rel_err"] for r in op_rep + model_rep)
    report(1, "gradcheck of every primitive and the full combined loss",
           op_ok and model_ok and elapsed < 300,
           f"max rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 300s")


# -- criterion 2: reference-recipe constants ----------------------------------

def test_criterion_2_recipe_constants():
    cfg = Config()
    dump = dump_config(cfg)
    want = {"lambda_sparsity = 0.01": cfg.lambda_sparsity == 0.01,
            "alpha_mix = 0.5": cfg.alpha_mix == 0.5,
            "lora_rank = 8": cfg.lora_rank == 8,
            "n_experts = 3": cfg.n_experts == 3,
            "n_queries = 1": cfg.n_queries == 1,
            "lr = 5e-05": cfg.lr == 5e-5,
            "weight_decay = 1e-06": cfg.weight_decay == 1e-6,
            "warmup_ratio = 0.13": cfg.warmup_ratio == 0.13,
            "threshold = 0.5": cfg.threshold == 0.5}
    ok = all(want.values()) and all(line in dump for line in want)
    report(2, "default config carries the reference training constants", ok,
           "lambda 0.01, alpha 0.5, rank 8, experts 3, queries 1, "
           "lr 5e-5, wd 1e-6, warmup 0.13, threshold 0.5")


# -- criterion 3: freezing law -------------------------------------------------

def test_criterion_3_freezing_law():
    cfg = Config(total_steps=200, lr=3e-3, batch_size=8)
    model = Model(cfg)
    before = {n: t.data.tobytes() for n, t in model.store.frozen_items()}
    recs = gen_dataset(cfg, 0, 16)
    run_training(model, AdamW(model.store, cfg), recs)

    frozen_clean = all(t.data.tobytes() == before[n]
                       for n, t in model.store.frozen_items())
    names_ok = (all(n.startswith(TRAINABLE_PREFIXES)
                    for n, _ in model.store.trainable_items())
                and all(n.startswith(FROZEN_PREFIXES)
                        for n, _ in model.store.frozen_items()))
    fused_dim = cfg.enc1_dim + cfg.enc2_dim + cfg.enc3_dim
    count_ok = model.trainable_count() == trainable_param_formula(cfg, fused_dim)
    report(3, "after 200 steps the frozen set is byte-identical and the "
              "trainable set is exactly the five adapter families",
           frozen_clean and names_ok and count_ok,
           f"{model.trainable_count()} trainable parameters")


# -- criteria 4..6 share two paired 1000-step runs ----------------------------

# Experiment config for the paired-lambda criteria. One query window per
# frame gives the scorer per-frame resolution; the width/margin/lr point is
# where the triplet teacher holds the score equilibrium in the responsive
# part of the sigmoid instead of the sparsity-compressed tail.
C6_EXPERIMENT = dict(window_frames=1, total_steps=1000, lr=4e-3, batch_size=8,
                     margin=0.9, d_model=128, seed=0, model_seed=0)


@pytest.fixture(scope="module")
def paired_lambda_runs():
    """Same seed and schedule, lambda 0.01 vs 0; reused by criteria 4 and 6."""
    with_l, _, recs, _ = train_model(**C6_EXPERIMENT)
    without_l, _, _, _ = train_model(**C6_EXPERIMENT, lambda_sparsity=0.0)
    return with_l, without_l, recs


def adapter_pairs(model):
    for layer in model.decoder.layers:
        yield layer["lora_q"]
        yield layer["lora_v"]


def test_criterion_4_lora_noop_and_rank(paired_lambda_runs):
    cfg = Config()
    fresh = Model(cfg)
    recs = gen_dataset(cfg, 0, 4)
    out_base = fresh.forward_batch(recs, seeded_rng(0, 1))
    assert all(np.all(a.b.data == 0.0) for a in adapter_pairs(fresh))
    hidden, key_valid = out_base.seq.hidden, out_base.seq.key_valid
    with_lora = fresh.decoder.forward(hidden, key_valid, use_lora=True)
    without = fresh.decoder.forward(hidden, key_valid, use_lora=False)
    noop = np.array_equal(with_lora.data, without.data)

    trained, _, _ = paired_lambda_runs
    ranks = []
    for a in adapter_pairs(trained):
        sv = np.linalg.svd(a.delta(), compute_uv=False)
        ranks.append(int((sv > 1e-6 * sv[0]).sum()))
    rank_ok = all(r <= Config().lora_rank for r in ranks) and max(ranks) > 0
    report(4, "adapters are an exact no-op at init and stay rank-limited "
              "after 1000 steps", noop and rank_ok,
           f"ranks {ranks} all <= 8")


C5_RECIPE = dict(total_steps=3000, lr=3e-3, batch_size=8, seed=0)


def test_criterion_5_overfit_32_examples():
    t0 = time.monotonic()
    model, _, recs, rows = train_model(**C5_RECIPE)
    metrics = evaluate(model, recs)
    elapsed = time.monotonic() - t0
    ok = (metrics["mean_L_CE"] < 0.1 and metrics["exact_match"] == 1.0
          and elapsed < 900)
    report(5, "32-example overfit reaches CE < 0.1 and exact-match 1.0 "
              "within 3000 steps",
           ok, f"CE {metrics['mean_L_CE']:.4f}, exact {metrics['exact_match']:.2f}, "
               f"{elapsed:.0f}s < 900s")


def test_criterion_6_sparsity_effect(paired_lambda_runs):
    with_l, without_l, recs = paired_lambda_runs
    m_with = evaluate(with_l, recs)
    m_without = evaluate(without_l, recs)

    def mean_s(model):
        total, count = 0.0, 0
        for lo in range(0, len(recs), model.cfg.batch_size):
            batch = recs[lo:lo + model.cfg.batch_size]
            out = model.forward_batch(batch, seeded_rng(9, lo))
            for r, row in zip(batch, out.sac.scores.data):
                n = len(r.noise_positions) + len(r.tokens) * model.cfg.frames_per_token
                total += row[:n].sum()
                count += n
        return total / count

    s_with, s_without = mean_s(with_l), mean_s(without_l)
    gap = m_with["score_gap_signal_minus_noise"]
    ok = s_with < s_without and gap >= 0.05
    report(6, "the sparsity penalty lowers mean score and noise frames "
              "score at least 0.05 below signal frames",
           ok, f"mean S {s_with:.3f} < {s_without:.3f}; "
               f"noise/signal gap {gap:.4f} >= 0.05")


def test_criterion_7_routing_differentiation():
    distances = []
    for s in (0, 1, 2):
        model, _, recs, _ = train_model(total_steps=2000, lr=3e-3,
                                        batch_size=8, seed=s, model_seed=s)
        distances.append(evaluate(model, recs)["routing_l1_distance"])
    passes = sum(d > 0.2 for d in distances)
    report(7, "copy vs reverse routing weights differ (L1 > 0.2) on at "
              "least 2 of 3 seeds",
           passes >= 2, "L1 " + ", ".join(f"{d:.3f}" for d in distances))


def test_criterion_8_ablations_strictly_worse():
    def final_combined(ablate):
        model, _, recs, _ = train_model(total_steps=1200, lr=3e-3,
                                        batch_size=8, seed=0, ablate=ablate)
        if ablate == "saclm":  # score the combined loss, SAC term included
            model.cfg = dataclasses.replace(model.cfg, ablate="none")
        return evaluate(model, recs)["mean_L"]

    full = final_combined("none")
    no_saclm = final_combined("saclm")
    no_tapm = final_combined("tapm")
    ok = no_saclm > full and no_tapm > full
    report(8, "disabling SACLM or TAPM trains to a strictly higher combined "
              "loss at matched steps and seed",
           ok, f"full {full:.4f} < no-saclm {no_saclm:.4f}, "
               f"no-tapm {no_tapm:.4f}")


# -- criterion 9: structural laws ---------------------------------------------

def test_criterion_9_structural_laws(tmp_path):
    checks = {}

    # length law: ceil(T / W) * N query positions per example
    for w, t in ((1, 5), (3, 8), (8, 17)):
        cfg = Config(window_frames=w)
        qf = WindowQFormer(cfg, ParamStore())
        u = Tensor(np.zeros((2, t, cfg.d_model), dtype=np.float32))
        mask = np.ones((2, t), dtype=np.float32)
        got = qf.forward(u, mask).values.shape[1]
        checks[f"length({t},{w})"] = got == -(-t // w) * cfg.n_queries

    cfg = Config(total_steps=6, batch_size=4, lr=1e-3)
    model, opt, recs, _ = train_model(total_steps=6, batch_size=4, lr=1e-3)
    out = model.forward_batch(recs[:4], seeded_rng(0, 0))

    # routing simplex
    w = out.routing.data
    checks["simplex"] = bool(np.all(w >= 0)
                             and np.allclose(w.sum(axis=1), 1.0, atol=1e-6))

    # decision matrix: binary, matches the threshold, never empty
    s, d = out.sac.scores.data, out.sac.decisions.data
    pre = (s >= cfg.threshold)
    post_extra = (d > 0) & ~pre
    checks["decisions"] = bool(
        np.all((d == 0) | (d == 1))
        and np.all(d[pre] == 1)
        and np.all(post_extra.sum(axis=1) <= 1)     # fallback adds at most one
        and np.all(d.sum(axis=1) >= 1))

    # triplet: nonnegative, and identical positive/negative text -> margin
    checks["triplet_nonneg"] = float(out.sac.loss_triplet.data) >= 0.0
    phi_p = Tensor(np.ones((2, cfg.d_model), dtype=np.float32))
    same = Tensor(np.tile(np.arange(cfg.d_model, dtype=np.float32), (2, 1)))
    tri = model.saclm.triplet(phi_p, same, same)
    checks["triplet_margin_identity"] = abs(float(tri.data) - cfg.margin) < 1e-6

    # decoder causality: changing position t leaves logits before t unchanged
    hidden, key_valid = out.seq.hidden, out.seq.key_valid
    base = model.decoder.forward(hidden, key_valid).data
    bumped = Tensor(hidden.data.copy())
    bumped.data[:, -1, :] += 7.5
    moved = model.decoder.forward(bumped, key_valid).data
    checks["causality"] = bool(np.array_equal(base[:, :-1], moved[:, :-1])
                               and not np.array_equal(base[:, -1], moved[:, -1]))

    # checkpoint round-trip byte identity and resume equivalence
    text = dump_config(model.cfg)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model.store, opt, 6, text)
    clone = Model(parse_config(text))
    opt2 = AdamW(clone.store, clone.cfg)
    load_checkpoint(p1, clone.store, opt2, config_text=text)
    save_checkpoint(p2, clone.store, opt2, 6, text)
    checks["ckpt_roundtrip"] = p1.read_bytes() == p2.read_bytes()

    straight, _, srecs, _ = train_model(total_steps=12, batch_size=4, lr=1e-3)
    cfg12 = Config(total_steps=12, batch_size=4, lr=1e-3)
    half = Model(cfg12)
    half_opt = AdamW(half.store, cfg12)
    run_training(half, half_opt, srecs, stop_after=6)
    p3 = tmp_path / "mid.ckpt"
    save_checkpoint(p3, half.store, half_opt, 6, dump_config(cfg12))
    resumed = Model(cfg12)
    r_opt = AdamW(resumed.store, cfg12)
    step = load_checkpoint(p3, resumed.store, r_opt,
                           config_text=dump_config(cfg12))
    run_training(resumed, r_opt, srecs, start_step=step)
    checks["resume_equivalence"] = all(
        np.array_equal(t.data, dict(resumed.store.items())[n].data)
        for n, t in straight.store.items())

    bad = [k for k, v in checks.items() if not v]
    report(9, "structural laws hold (length, simplex, selection, triplet, "
              "causality, checkpointing)",
           not bad, "failed: " + ", ".join(bad) if bad else
           f"{len(checks)} properties")
