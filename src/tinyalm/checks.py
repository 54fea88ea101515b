"""Gradient-fidelity suites: a finite-difference sweep over every autodiff
primitive, and an end-to-end check of the full combined loss on a shrunken
double-precision model. Both return (ok, report) and are wired to the
gradcheck CLI subcommand and the acceptance suite.

ste_threshold is excluded from the finite-difference sweep on purpose: its
forward is a step function, so FD around the threshold measures the step,
not the surrogate. Its backward is asserted analytically instead (identity),
and the model-level check pins the decision matrix so every other gradient
flows through the selection weights with D held constant.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import Config
from .data import gen_dataset
from .gradcheck import grad_check
from .model import Model
from .params import seeded_rng


OP_SEED = (2024, 11)  # key of the generator the sweep draws its inputs from


def _t(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _op_outputs(rng):
    """Yield (name, out, params) triples; out maps the param dict to the
    op's output."""
    t = lambda *shape: _t(rng, *shape)
    u = lambda lo, hi, *shape: Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    yield "add", lambda p: ad.add(p["a"], p["b"]), {"a": t(3, 4), "b": t(3, 4)}
    yield "add_broadcast", lambda p: ad.add(p["a"], p["b"]), {"a": t(3, 4), "b": t(4)}
    yield "sub", lambda p: ad.sub(p["a"], p["b"]), {"a": t(3, 4), "b": t(3, 4)}
    yield "mul", lambda p: ad.mul(p["a"], p["b"]), {"a": t(3, 4), "b": t(3, 4)}
    yield "div", lambda p: ad.div(p["a"], p["b"]), {"a": t(3, 4), "b": u(1.0, 2.0, 3, 4)}
    yield "mul_scalar", lambda p: ad.mul(p["a"], -1.7), {"a": t(3, 4)}
    yield "relu", lambda p: ad.relu(p["a"]), \
        {"a": Tensor(rng.uniform(0.2, 1.5, (3, 4)) * np.sign(rng.standard_normal((3, 4))),
                     requires_grad=True)}  # kept away from the kink at 0
    yield "sigmoid", lambda p: ad.sigmoid(p["a"]), {"a": t(3, 4)}
    # the draws of a deleted case, so that every later case keeps its inputs
    rng.uniform(0.5, 2.0, (3, 4)), rng.standard_normal((3, 4))
    yield "sum_axis", lambda p: ad.sum_(p["a"], axis=0), {"a": t(3, 4)}
    yield "sum_keepdims", lambda p: ad.sum_(p["a"], axis=1, keepdims=True), {"a": t(3, 4)}
    yield "mean_axis", lambda p: ad.mean(p["a"], axis=1), {"a": t(3, 4)}
    yield "matmul", lambda p: ad.matmul(p["a"], p["b"]), {"a": t(3, 4), "b": t(4, 2)}
    yield "matmul_batched", lambda p: ad.matmul(p["a"], p["b"]), \
        {"a": t(2, 3, 4), "b": t(2, 4, 2)}
    yield "transpose", lambda p: ad.transpose(p["a"], (1, 0)), {"a": t(3, 4)}
    yield "reshape", lambda p: ad.reshape(p["a"], (2, 6)), {"a": t(3, 4)}
    yield "concat", lambda p: ad.concat([p["a"], p["b"]], axis=1), {"a": t(3, 4), "b": t(3, 2)}
    yield "slice", lambda p: ad.slice_(p["a"], (slice(1, 3), slice(None, 2))), {"a": t(3, 4)}
    yield "embedding_lookup", \
        lambda p: ad.embedding_lookup(p["tab"], np.array([[0, 2], [2, 1]])), {"tab": t(5, 4)}
    yield "softmax", lambda p: ad.softmax(p["a"], axis=-1), {"a": t(3, 4)}
    yield "log_softmax", lambda p: ad.log_softmax(p["a"], axis=-1), {"a": t(3, 4)}
    yield "cosine_distance", lambda p: ad.cosine_distance(p["a"], p["b"]), \
        {"a": t(3, 6), "b": t(3, 6)}
    yield "linear", lambda p: ad.linear(p["x"], p["w"], p["b"]), \
        {"x": t(3, 4), "w": t(4, 2), "b": t(2)}
    yield "layer_norm", lambda p: ad.layer_norm(p["x"], p["g"], p["b"]), \
        {"x": t(3, 4), "g": u(0.5, 1.5, 4), "b": t(4)}
    allowed = np.arange(5) < np.array([[2], [5], [4]])  # query rows see 2, 5, 4 keys
    yield "attention", lambda p: ad.attention(p["q"], p["k"], p["v"], allowed), \
        {"q": t(2, 3, 4), "k": t(2, 5, 4), "v": t(2, 5, 3)}
    # a rank-2 operand shared across a batch: its gradient contracts the batch
    yield "matmul_shared_b", lambda p: ad.matmul(p["a"], p["b"]), {"a": t(2, 3, 4), "b": t(4, 2)}
    yield "matmul_shared_a", lambda p: ad.matmul(p["a"], p["b"]), {"a": t(3, 4), "b": t(2, 4, 5)}
    yield "relu_neg", lambda p: ad.relu(p["a"]), {"a": u(-2.0, -0.1, 3, 4)}
    yield "transpose_default", lambda p: ad.transpose(p["a"]), {"a": t(2, 3, 4)}
    yield "transpose_axes", lambda p: ad.transpose(p["a"], (1, 0, 2)), {"a": t(2, 3, 4)}
    yield "sum_all", lambda p: ad.sum_(p["a"]), {"a": t(3, 4)}
    yield "mean_all", lambda p: ad.mean(p["a"]), {"a": t(3, 4)}
    yield "embedding_repeated", \
        lambda p: ad.embedding_lookup(p["tab"], np.array([1, 3, 1, 5])), \
        {"tab": t(6, 4)}  # row 1 accumulates twice
    yield "cosine_vector", lambda p: ad.cosine_distance(p["a"], p["b"]), {"a": t(6), "b": t(6)}
    # a size-1 middle axis, as the stacked [E, 1, h] expert biases broadcast
    yield "add_broadcast_axis", lambda p: ad.add(p["a"], p["b"]), \
        {"a": t(2, 3, 4), "b": t(2, 1, 4)}
    # an integer-array key that repeats row 2: its gradient accumulates twice
    yield "slice_repeated", lambda p: ad.slice_(p["a"], (np.array([2, 0, 2]),)), {"a": t(3, 4)}
    # a's row 1 is zero, its gradient -b/eps; at eps 1 the FD step stays inside the guard
    yield "cosine_zero_row", lambda p: ad.cosine_distance(p["a"], p["b"], eps=1.0), \
        {"a": _t(rng, 3, 6, scale=np.array([[1.0], [0.0], [1.0]])), "b": t(3, 6)}
    # the decoder's call: 2 heads, a causal mask, and key 2 of example 0 masked
    key_valid = np.arange(5) != np.array([[2], [5]])
    causal = np.tri(3, 5, 2, dtype=bool) & key_valid[:, None, None, :]
    yield "attention_heads", lambda p: ad.attention(p["q"], p["k"], p["v"], causal, heads=2), \
        {"q": t(2, 3, 4), "k": t(2, 5, 4), "v": t(2, 5, 4)}
    # the Q-Former's cross attention: one rank-2 q against batched windows
    window = np.arange(5) < np.array([[5], [2], [3]])[:, None]
    yield "attention_shared_q", lambda p: ad.attention(p["q"], p["k"], p["v"], window), \
        {"q": t(2, 4), "k": t(3, 5, 4), "v": t(3, 5, 3)}
    yield "linear_batched", lambda p: ad.linear(p["x"], p["w"], p["b"]), \
        {"x": t(2, 3, 4), "w": t(4, 2), "b": t(2)}
    yield "matmul_one_row_entries", lambda p: ad.matmul(p["a"], p["b"]), \
        {"a": t(2, 3, 1, 4), "b": t(4, 2)}


def _op_cases(rng):
    """Yield (name, fn, params) triples; fn maps the param dict to a scalar:
    the op's output weighted by a fixed random tensor of its shape, so the
    upstream gradient is not all ones and FD checks the whole Jacobian."""
    for name, out, params in _op_outputs(rng):
        c = Tensor(rng.standard_normal(out(params).shape))
        yield name, lambda p, out=out, c=c: ad.sum_(ad.mul(out(p), c)), params


def _ste_analytic_check() -> dict:
    """The step op's surrogate gradient is the identity; assert it exactly."""
    x = Tensor(np.array([0.1, 0.5, 0.49, 0.9]), requires_grad=True)
    w = Tensor(np.array([1.0, -2.0, 3.0, 0.5]))
    with Tape() as tape:
        y = ad.sum_(ad.mul(ad.ste_threshold(x, 0.5), w))
        tape.backward(y)
    ok = np.array_equal(x.grad, w.data)
    fwd_ok = np.array_equal(
        ad.ste_threshold(Tensor(np.array([0.1, 0.5, 0.49, 0.9])), 0.5).data,
        np.array([0.0, 1.0, 0.0, 1.0]))
    return {"name": "ste_threshold (analytic)", "ok": bool(ok and fwd_ok),
            "max_rel_err": 0.0 if (ok and fwd_ok) else float("inf")}


def run_op_suite(eps: float = 1e-6, tol: float = 1e-4) -> tuple:
    rng = seeded_rng(*OP_SEED)
    results = []
    for name, fn, params in _op_cases(rng):
        res = grad_check(lambda fn=fn, p=params: fn(p), params, eps=eps, tol=tol)
        results.append({"name": name, "ok": res.passed,
                        "max_rel_err": res.max_rel_err})
    results.append(_ste_analytic_check())
    ok = all(r["ok"] for r in results)
    return ok, results


def model_check_config() -> Config:
    """Double-precision shrunken model: B=2 fits, fused length stays <= 12."""
    return Config(
        dtype="float64", d_model=16, d_text=8, lm_layers=1, lm_heads=2,
        lora_rank=2, expert_hidden=8, score_hidden=8, agg_hidden=8,
        enc1_dim=2, enc2_dim=2, enc3_dim=2, window_frames=2,
        frames_per_token=2, min_tokens=3, max_tokens=3,
        vocab_symbols=8, batch_size=2, seed=0, model_seed=0)


def run_model_suite(eps: float = 1e-5, tol: float = 1e-4) -> tuple:
    """FD-check d(loss)/d(theta) for every trainable tensor of the small
    double-precision model on one B=2 batch, with the decision matrix pinned
    from a pilot forward so the check targets the score-weighting path."""
    cfg = model_check_config()
    model = Model(cfg)
    records = gen_dataset(cfg, 0, 2)
    assert records[0].task_id != records[1].task_id  # exercise both experts

    pilot = model.forward_batch(records, seeded_rng(0, 1))
    t_a = pilot.fused.values.data.shape[1]
    assert t_a <= 12, t_a
    pinned = pilot.sac.decisions.data.copy()

    def loss_fn():
        out = model.forward_batch(records, seeded_rng(0, 1),
                                  saclm_decisions=pinned)
        return out.loss

    params = {name: t for name, t in model.store.trainable_items()}
    res = grad_check(loss_fn, params, eps=eps, tol=tol)
    report = [{"name": "combined_loss_all_trainables", "ok": res.passed,
               "max_rel_err": res.max_rel_err, "worst": res.worst[0],
               "n_params": int(sum(t.data.size for t in params.values()))}]
    return res.passed, report


def format_report(results: list) -> str:
    lines = []
    for r in results:
        status = "ok " if r["ok"] else "FAIL"
        extra = f"  worst={r['worst']}" if "worst" in r else ""
        lines.append(f"[{status}] {r['name']:<32} max_rel_err={r['max_rel_err']:.3e}{extra}")
    return "\n".join(lines)
