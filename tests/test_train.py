import numpy as np
import pytest

from tinyalm.autodiff import Tape
from tinyalm.checks import model_check_config
from tinyalm.config import Config
from tinyalm.data import gen_dataset
from tinyalm.gradcheck import grad_check
from tinyalm.model import Model
from tinyalm.optim import AdamW, lr_at
from tinyalm.params import seeded_rng
from tinyalm.train import (TrainAbort, batch_indices, evaluate,
                           format_log_row, run_training, train_step)


def setup(n=16, **over):
    cfg = Config(**over)
    model = Model(cfg)
    recs = gen_dataset(cfg, 0, n)
    opt = AdamW(model.store, cfg)
    return cfg, model, recs, opt


def test_batch_indices_law():
    assert batch_indices(0, 4, 16) == [0, 1, 2, 3]
    assert batch_indices(3, 4, 16) == [12, 13, 14, 15]
    assert batch_indices(4, 4, 16) == [0, 1, 2, 3]
    assert batch_indices(5, 4, 6) == [2, 3, 4, 5]
    assert batch_indices(1, 4, 6) == [4, 5, 0, 1]


def test_two_runs_identical_loss_curves():
    _, m1, r1, o1 = setup(total_steps=12, batch_size=4)
    rows1 = run_training(m1, o1, r1)
    _, m2, r2, o2 = setup(total_steps=12, batch_size=4)
    rows2 = run_training(m2, o2, r2)
    assert rows1 == rows2  # exact float equality, single-threaded kernels


def test_combined_loss_law_per_step():
    _, model, recs, opt = setup(total_steps=8, batch_size=4)
    for row in run_training(model, opt, recs):
        want = 0.5 * row["L_CE"] + 0.5 * row["L_SAC"]
        assert abs(row["L"] - want) <= 2e-7 * max(1.0, abs(want))


def test_frozen_set_is_bit_identical_after_training():
    _, model, recs, opt = setup(total_steps=30, batch_size=4, lr=1e-3)
    before = {n: t.data.tobytes() for n, t in model.store.frozen_items()}
    run_training(model, opt, recs)
    after = {n: t.data.tobytes() for n, t in model.store.frozen_items()}
    assert before == after
    changed = [n for n, t in model.store.trainable_items()
               if t.data.tobytes() != before.get(n)]
    assert len(changed) > 0


def test_trainables_move_frozen_do_not():
    _, model, recs, opt = setup(total_steps=5, batch_size=4, lr=1e-2)
    snap = {n: t.data.copy() for n, t in model.store.trainable_items()}
    run_training(model, opt, recs)
    moved = sum(1 for n, t in model.store.trainable_items()
                if not np.array_equal(t.data, snap[n]))
    assert moved >= len(snap) - 2  # warmup step 0 has lr 0; nearly all move


def test_log_row_format():
    _, model, recs, opt = setup(total_steps=2, batch_size=4)
    rows = run_training(model, opt, recs)
    line = format_log_row(rows[0])
    for key in ("step=", "lr=", "L=", "L_CE=", "L_triplet=", "L_sparsity="):
        assert key in line


def test_nonfinite_loss_aborts_with_diagnostic():
    _, model, recs, opt = setup(total_steps=2, batch_size=4)
    model.audio_w.data[...] = np.float32(2e38)  # overflows in the first matmul
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainAbort, match="non-finite"):
            train_step(model, opt, recs[:4], 0)


def test_nonfinite_gradient_aborts_before_the_update(monkeypatch):
    _, model, recs, opt = setup(total_steps=2, batch_size=4)
    real_record = Tape._record

    def poison_relu(self, op, inputs, out, backward):
        # the loss stays finite; only the gradient through relu turns NaN
        if op == "relu":
            real_backward = backward

            def backward(g):
                return tuple(None if x is None else np.full_like(x, np.nan)
                             for x in real_backward(g))
        real_record(self, op, inputs, out, backward)

    monkeypatch.setattr(Tape, "_record", poison_relu)
    params = {n: t.data.copy() for n, t in model.store.items()}
    with pytest.raises(TrainAbort, match="non-finite gradient for "
                                         r"\S+ at step 0; .* output: None"):
        train_step(model, opt, recs[:4], 0)
    assert opt.step_count == 0
    assert all(np.array_equal(t.data, params[n]) for n, t in model.store.items())
    assert all(not opt.m[n].any() and not opt.v[n].any() for n in opt.m)


def test_nonfinite_gradient_abort_names_first_nonfinite_forward_op(monkeypatch):
    # a -inf score bias leaves one hidden column of the SACLM score MLP at
    # -inf, which relu maps to 0: the loss stays finite, the linear's output
    # does not. backward consumed the step's tape, so the abort replays the
    # forward to name that op.
    _, model, recs, opt = setup(total_steps=2, batch_size=4)
    model.saclm.score_b1.data[0] = -np.inf
    real_record = Tape._record

    def poison_relu(self, op, inputs, out, backward):
        if op == "relu":
            real_backward = backward

            def backward(g):
                return tuple(None if x is None else np.full_like(x, np.nan)
                             for x in real_backward(g))
        real_record(self, op, inputs, out, backward)

    monkeypatch.setattr(Tape, "_record", poison_relu)
    with pytest.raises(TrainAbort, match="non-finite gradient for "
                                         r"\S+ at step 0; .* output: 'linear'$"):
        train_step(model, opt, recs[:4], 0)
    assert opt.step_count == 0


def test_first_step_flattens_before_backward_frees_the_tape(monkeypatch):
    # flattened between the forward and the consuming backward, the store's
    # buffers sit atop the heap the forward grew, so the activations the
    # backward frees lie below them and glibc does not trim and re-fault them
    _, model, recs, opt = setup(total_steps=2, batch_size=4)
    real_backward = Tape.backward
    flat_at_backward = []

    def backward(self, root):
        flat_at_backward.append(opt.flat is not None)
        real_backward(self, root)

    monkeypatch.setattr(Tape, "backward", backward)
    train_step(model, opt, recs[:4], 0)
    assert flat_at_backward == [True]


def test_disable_saclm_trains_on_pure_ce():
    _, model, recs, opt = setup(total_steps=3, batch_size=4, ablate="saclm")
    rows = run_training(model, opt, recs)
    for row in rows:
        assert row["L"] == row["L_CE"]
        assert row["L_SAC"] == 0.0


def test_optimizer_config_owns_the_schedule():
    # the model's config says 1000 steps, the optimizer's says 4
    _, model, recs, _ = setup()
    short = Config(total_steps=4)
    opt = AdamW(model.store, short)
    logged = []
    rows = run_training(model, opt, recs, stop_after=2, log=logged.append)
    want = [lr_at(s, 4, short.lr, short.warmup_ratio) for s in (0, 1)]
    assert [row["lr"] for row in rows] == want
    assert [line.split()[1] for line in logged] == [f"lr={lr:.6e}" for lr in want]
    assert len(run_training(model, opt, recs, start_step=2)) == 2


def test_evaluate_untrained_is_chance_level():
    _, model, recs, _ = setup(n=32)
    m = evaluate(model, recs)
    assert m["n"] == 32
    assert 0.0 <= m["token_accuracy"] <= 0.15  # chance is 1/32
    assert m["exact_match"] == 0.0
    assert np.isfinite(m["mean_L"])
    assert m["routing_l1_distance"] < 0.2  # untrained router is undecided
    assert m["routing_task0"].shape == (3,)


def test_evaluate_perfect_oracle_fixture():
    # teacher-forced oracle: force logits to the labels via a stub
    cfg, model, recs, _ = setup(n=4)

    class Oracle:
        def __init__(self, inner):
            self.inner = inner

        def __getattr__(self, k):
            return getattr(self.inner, k)

        def greedy_decode(self, rec, max_new=None):
            return rec.targets.tolist()

    m = evaluate(Oracle(model), recs)
    assert m["exact_match"] == 1.0


def test_evaluate_skips_saclm_on_singleton_tail():
    _, model, recs, _ = setup(n=5, batch_size=4)
    m = evaluate(model, recs)  # batches of 4 and 1; the 1 must not crash
    assert m["n"] == 5
    assert np.isfinite(m["mean_L_CE"])


def test_grad_check_between_steps_leaves_training_unchanged():
    # grad_check zeroes gradients in place; one that rebound them would cut
    # the checked tensors off the optimizer's flat gradient
    cfg = model_check_config()
    recs = gen_dataset(cfg, 0, 2)

    def run(check):
        model = Model(cfg)
        opt = AdamW(model.store, cfg)
        train_step(model, opt, recs, 0)
        if check:
            small = {n: p for n, p in model.store.trainable_items() if p.size <= 16}
            assert len(small) >= 3
            grad_check(lambda: model.forward_batch(recs, seeded_rng(4)).loss, small)
        loss = train_step(model, opt, recs, 1)["L"]
        state = [t.data.tobytes() for _, t in model.store.items()]
        return loss, state, [opt.m[n].tobytes() + opt.v[n].tobytes() for n in opt.m]

    assert run(check=True) == run(check=False)
