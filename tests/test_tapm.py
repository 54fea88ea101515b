import numpy as np
import pytest

from tinyalm.autodiff import Tape, Tensor, mul, sum_
from tinyalm.config import Config
from tinyalm.gradcheck import grad_check
from tinyalm.params import ParamStore, seeded_rng
from tinyalm.tapm import Tapm


def make_tapm(**over):
    cfg = Config(**over)
    store = ParamStore()
    return cfg, store, Tapm(cfg, store)


def batch_inputs(b=2, seed=0):
    rng = seeded_rng(seed)
    task = rng.integers(0, 2, size=b)
    prompts = np.stack([np.array([0, 1]) if t == 0 else np.array([2, 3])
                        for t in task])
    return task, prompts


def test_zero_router_gives_uniform_weights():
    _, _, tp = make_tapm()
    tp.router.data[...] = 0.0
    task, prompts = batch_inputs(4)
    w = tp.route(tp.e_text(task, prompts))
    np.testing.assert_allclose(w.data, 1.0 / 3.0, atol=1e-7)


def test_forced_logits_give_8_1_1_over_10():
    cfg, _, tp = make_tapm()
    # fixture: e_text reduced to a known vector, router drives logits [ln8, 0, 0]
    e = np.zeros((1, cfg.d_text), dtype=np.float32)
    e[0, 0] = 1.0
    tp.router.data[...] = 0.0
    tp.router.data[0, 0] = np.log(8.0)
    w = tp.route(Tensor(e))
    np.testing.assert_allclose(w.data[0], [0.8, 0.1, 0.1], atol=1e-6)


def test_simplex_for_random_inputs():
    _, _, tp = make_tapm()
    rng = seeded_rng(3)
    for _ in range(10):
        e = Tensor(rng.standard_normal((5, tp.cfg.d_text)).astype(np.float32) * 3)
        w = tp.route(e).data
        assert np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)


EXPERT_TENSORS = ("w1", "b1", "w2", "b2")


def test_one_hot_routing_reproduces_selected_expert():
    _, _, tp = make_tapm()
    rng = seeded_rng(4)
    for t in (tp.b1, tp.b2):  # nonzero biases, so each slice's bias shows
        t.data[...] = rng.standard_normal(t.shape)
    z = Tensor(rng.standard_normal((2, 5, 64)).astype(np.float32))
    per_expert = []  # the loop reference: relu(z @ w1[k] + b1[k]) @ w2[k] + b2[k]
    for k in range(3):
        hidden = np.maximum(z.data @ tp.w1.data[k] + tp.b1.data[k], 0.0)
        per_expert.append(hidden @ tp.w2.data[k] + tp.b2.data[k])
        w = np.zeros((2, 3), dtype=np.float32)
        w[:, k] = 1.0
        got = tp.project(z, Tensor(w)).data
        np.testing.assert_allclose(got, per_expert[k], rtol=1e-5, atol=1e-5)
    # a dense mix is the weighted sum of the same per-expert outputs
    w = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]], dtype=np.float32)
    want = sum(w[:, k, None, None] * per_expert[k] for k in range(3))
    np.testing.assert_allclose(tp.project(z, Tensor(w)).data, want, rtol=1e-5, atol=1e-5)


def test_identical_experts_make_phi_independent_of_w():
    _, _, tp = make_tapm()
    for name in EXPERT_TENSORS:
        bank = getattr(tp, name).data
        bank[1:] = bank[0]
    rng = seeded_rng(5)
    z = Tensor(rng.standard_normal((2, 4, 64)).astype(np.float32))
    wa = Tensor(np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]], dtype=np.float32))
    wb = Tensor(np.array([[0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3]], dtype=np.float32))
    np.testing.assert_allclose(tp.project(z, wa).data, tp.project(z, wb).data,
                               atol=1e-5)


def test_joint_permutation_invariance():
    cfg, _, tp = make_tapm()
    task, prompts = batch_inputs(3, seed=6)
    rng = seeded_rng(7)
    z = Tensor(rng.standard_normal((3, 4, 64)).astype(np.float32))
    base = tp.forward(z, task, prompts).values.data.copy()

    perm = [2, 0, 1]
    tp.router.data[...] = tp.router.data[:, perm]
    for name in EXPERT_TENSORS:
        bank = getattr(tp, name).data
        bank[...] = bank[perm]
    permuted = tp.forward(z, task, prompts).values.data
    np.testing.assert_allclose(permuted, base, atol=1e-6)


def test_gradient_reaches_every_expert():
    _, store, tp = make_tapm()
    task, prompts = batch_inputs(4, seed=8)
    rng = seeded_rng(9)
    z = Tensor(rng.standard_normal((4, 3, 64)).astype(np.float32))
    with Tape() as tape:
        phi = tp.forward(z, task, prompts)
        loss = sum_(mul(phi.values, phi.values))
        tape.backward(loss)
    for name in EXPERT_TENSORS:
        grad = getattr(tp, name).grad
        assert grad is not None
        for i in range(3):
            assert np.any(grad[i] != 0.0), (name, i)
    assert tp.router.grad is not None and np.any(tp.router.grad != 0.0)
    assert tp.task_embed.grad is not None
    assert tp.prompt_embed.grad is not None


@pytest.mark.parametrize("n_experts", [2, 3, 4])
def test_project_tape_size_independent_of_expert_count(n_experts):
    _, _, tp = make_tapm(n_experts=n_experts)
    rng = seeded_rng(14)
    z = Tensor(rng.standard_normal((2, 3, 64)).astype(np.float32), requires_grad=True)
    w = Tensor(np.full((2, n_experts), 1.0 / n_experts, dtype=np.float32),
               requires_grad=True)
    with Tape() as tape:
        tp.project(z, w)
    assert len(tape.nodes) == 9  # the same for every bank size


def test_routing_differentiable_into_router_and_etext():
    _, _, tp = make_tapm(dtype="float64", d_text=4, n_experts=3)
    e = Tensor(seeded_rng(10).standard_normal((2, 4)), requires_grad=True)
    probe = Tensor(seeded_rng(11).standard_normal((2, 3)))

    def f():
        return sum_(mul(tp.route(e), probe))

    report = grad_check(f, {"e": e, "router": tp.router})
    assert report.passed, report.format_table()


def test_full_tapm_gradient_fd():
    cfg, store, tp = make_tapm(dtype="float64", d_model=6, expert_hidden=5,
                               d_text=4)
    task = np.array([0, 1])
    prompts = np.array([[0, 1], [2, 3]])
    z = Tensor(seeded_rng(12).standard_normal((2, 3, 6)))
    probe = Tensor(seeded_rng(13).standard_normal((2, 3, 6)))

    def f():
        return sum_(mul(tp.forward(z, task, prompts).values, probe))

    report = grad_check(f, dict(store.trainable_items()))
    assert report.passed, report.format_table()


def test_parameters_named_and_trainable():
    cfg, store, _ = make_tapm()
    names = [n for n, _ in store.trainable_items()]
    assert all(n.startswith("tapm.") for n in names)
    assert "tapm.router" in names
    experts = [n for n in names if n.startswith("tapm.expert")]
    assert experts == [f"tapm.experts.{k}" for k in EXPERT_TENSORS]
    E, d, h = cfg.n_experts, cfg.d_model, cfg.expert_hidden
    assert [store[n].shape for n in experts] == [(E, d, h), (E, 1, h), (E, h, d), (E, 1, d)]
