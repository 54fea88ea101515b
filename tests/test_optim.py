import numpy as np
import pytest

from tinyalm.config import Config
from tinyalm.model import Model
from tinyalm.optim import BETA1, BETA2, EPS, AdamW, lr_at
from tinyalm.params import ParamStore


def test_schedule_endpoints_and_peak():
    peak = 5e-5
    assert lr_at(0, 1000, peak, 0.13) == 0.0
    assert lr_at(1000, 1000, peak, 0.13) == 0.0
    assert lr_at(130, 1000, peak, 0.13) == peak
    assert abs(lr_at(565, 1000, peak, 0.13) - peak / 2) < 1e-12


def test_schedule_monotonicity():
    vals = [lr_at(s, 1000, 1.0, 0.13) for s in range(1001)]
    warm = 130
    assert all(b >= a for a, b in zip(vals[:warm], vals[1:warm + 1]))
    assert all(b <= a for a, b in zip(vals[warm:-1], vals[warm + 1:]))


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError, match="total"):
        lr_at(0, 0, 1.0, 0.13)
    with pytest.raises(ValueError, match="outside"):
        lr_at(5, 4, 1.0, 0.13)


def hand_adamw(p, g, lr, b1, b2, eps, wd, steps):
    m = v = 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - lr * (mhat / (np.sqrt(vhat) + eps) + wd * p)
    return p


def test_adamw_single_scalar_matches_hand_formula():
    cfg = Config(lr=5e-5, weight_decay=1e-6)
    store = ParamStore()
    p = store.param("w", [[1.0]], np.float32)  # rank 2: decay applies
    opt = AdamW(store, cfg)
    opt.gradient()  # flattens the store: p.grad is now a zeroed view
    p.grad[...] = np.array([[1.0]], dtype=np.float32)
    opt.step(cfg.lr)
    want = hand_adamw(1.0, 1.0, 5e-5, 0.9, 0.999, 1e-8, 1e-6, 1)
    np.testing.assert_allclose(p.data[0, 0], want, rtol=1e-6)

    # a few more steps with the same gradient
    for _ in range(4):
        opt.zero_grad()
        p.grad[...] = np.array([[1.0]], dtype=np.float32)
        opt.step(cfg.lr)
    want = hand_adamw(1.0, 1.0, 5e-5, 0.9, 0.999, 1e-8, 1e-6, 5)
    np.testing.assert_allclose(p.data[0, 0], want, rtol=1e-5)


def test_decay_exemption_for_bias_and_query():
    cfg = Config()
    store = ParamStore()
    mat = store.param("layer.w", np.ones((2, 2)), np.float32)
    vec = store.param("layer.bias", np.ones(2), np.float32)
    q = store.param("qformer.query", np.ones((1, 2)), np.float32)
    opt = AdamW(store, cfg)
    assert opt.exempt == {"layer.bias", "qformer.query"}

    # zero gradient on the exempt tensors: only decay could move them. The
    # decayed one gets a gradient, so its update must read it.
    opt.gradient()
    mat.grad[...] = 0.5
    for t in (vec, q):
        t.grad[...] = np.zeros_like(t.data)
    opt.step(0.1)
    assert np.all(mat.data < 1.0)
    np.testing.assert_array_equal(vec.data, np.ones(2, dtype=np.float32))
    np.testing.assert_array_equal(q.data, np.ones((1, 2), dtype=np.float32))
    want = hand_adamw(1.0, 0.5, 0.1, 0.9, 0.999, 1e-8, cfg.weight_decay, 1)
    np.testing.assert_allclose(mat.data, want, rtol=1e-6)


def test_default_model_exempts_biases_gains_and_query():
    # the same elements as when every bias had rank 1: the rank-1 tensors,
    # the query bank and the two stacked [E, 1, n] expert biases
    model = Model(Config())
    opt = AdamW(model.store, model.cfg)
    trainable = dict(model.store.trainable_items())
    want = {n for n, t in trainable.items() if t.ndim <= 1}
    want |= {"qformer.query", "tapm.experts.b1", "tapm.experts.b2"}
    assert opt.exempt == want
    assert sum(trainable[n].size for n in opt.exempt) == 1473


def test_missing_gradient_treated_as_zero():
    cfg = Config()
    store = ParamStore()
    p = store.param("w", np.full((2, 2), 3.0), np.float32)
    opt = AdamW(store, cfg)
    opt.gradient()
    p.grad[...] = 1.0
    opt.step(0.1)
    assert np.all(p.data < 3.0 - 0.05)  # the gradient moved it, not decay alone
    m1 = opt.m["w"].copy()
    opt.zero_grad()  # no gradient this step: the last one must not be reused
    opt.step(0.1)  # decay-only movement, no crash
    assert np.all(p.data <= 3.0)
    assert np.all(np.isfinite(p.data))
    np.testing.assert_array_equal(opt.m["w"], m1 * np.float32(BETA1))


def test_updates_stay_float32():
    cfg = Config()
    store = ParamStore()
    p = store.param("w", np.ones((2, 2)), np.float32)
    opt = AdamW(store, cfg)
    opt.gradient()
    p.grad[...] = np.full((2, 2), 0.5, dtype=np.float32)
    opt.step(1e-3)
    assert p.data.dtype == np.float32
    assert opt.m["w"].dtype == np.float32
    np.testing.assert_allclose(opt.m["w"], 0.05, rtol=1e-6)  # (1 - b1) * g


def per_tensor_step(params, grads, m, v, exempt, cfg, t, lr):
    """The update as a loop over tensors, one formula per tensor."""
    b1, b2 = BETA1, BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        if g is None:
            g = np.zeros_like(p)
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        update = (m[name] / c1) / (np.sqrt(v[name] / c2) + EPS)
        if name not in exempt:
            update = update + cfg.weight_decay * p
        p -= lr * update


def test_flat_update_bit_identical_to_per_tensor_loop():
    # decayed and exempt tensors interleaved in the store, one of them past
    # a chunk boundary, and one trainable that never gets a gradient
    cfg = Config(weight_decay=0.05)
    rng = np.random.default_rng(0)
    shapes = {"a.w": (130, 130), "a.bias": (130,), "qformer.query": (1, 8),
              "b.w2": (9,), "c.gain": (8,), "c.w": (8, 3), "d.w": (4, 4)}
    store = ParamStore()
    for name, shape in shapes.items():
        store.param(name, rng.standard_normal(shape), np.float32)
    opt = AdamW(store, cfg)
    assert opt.exempt == {"a.bias", "qformer.query", "c.gain"}
    params = {n: t.data.copy() for n, t in store.trainable_items()}
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    opt.gradient()
    for t in range(1, 6):
        grads = {n: (None if n == "d.w" else
                     rng.standard_normal(shapes[n]).astype(np.float32))
                 for n in shapes}
        opt.zero_grad()
        for name, p in store.trainable_items():
            if grads[name] is not None:
                p.grad[...] = grads[name]
        lr = 0.01 * t
        opt.step(lr)
        per_tensor_step(params, grads, m, v, opt.exempt, cfg, t, lr)
    for name, p in store.trainable_items():
        assert p.data.tobytes() == params[name].tobytes(), name
        assert opt.m[name].tobytes() == m[name].tobytes(), name
        assert opt.v[name].tobytes() == v[name].tobytes(), name


def test_second_optimizer_keeps_the_first_ones_parameters():
    model = Model(Config())
    first = AdamW(model.store, model.cfg)
    second = AdamW(model.store, model.cfg)
    assert first.flat is None  # building an optimizer flattens nothing
    first.zero_grad()  # flattens the store and zeroes its gradient
    assert first.flat is not None and not first.gradient().any()
    for _, p in model.store.trainable_items():
        p.grad[...] = np.ones_like(p.data)
    first.step(1e-3)
    before = first.flat.copy()
    second.step(1e-3)  # reads the gradient the first one was given
    assert second.flat is first.flat and second.gradient() is first.gradient()
    assert np.all(first.flat < before)  # a gradient of one lowers every entry
    assert np.all(first.gradient() == 1.0)
    for name, p in model.store.trainable_items():
        assert np.shares_memory(p.data, first.flat), name
        assert np.shares_memory(p.grad, first.gradient()), name


def test_flattening_keeps_a_gradient_already_set():
    # a gradient set before the store is flat (a backward run outside
    # train_step, which flattens before its first backward) is copied in by
    # the flattening call; zero_grad zeroes the flat gradient in place
    store = ParamStore()
    a = store.param("a.w", np.ones((2, 3)), np.float32)
    b = store.param("b.w", np.ones(4), np.float32)
    opt = AdamW(store, Config())
    a.grad = np.arange(6, dtype=np.float32).reshape(2, 3)
    grad = opt.gradient()
    np.testing.assert_array_equal(grad, [0, 1, 2, 3, 4, 5, 0, 0, 0, 0])
    assert np.shares_memory(a.grad, grad) and np.shares_memory(b.grad, grad)
    opt.zero_grad()
    assert not grad.any() and opt.gradient() is grad

    store = ParamStore()
    stale = store.param("w", np.ones(3), np.float32)
    stale.grad = np.ones(3, dtype=np.float32)
    fresh = AdamW(store, Config())
    fresh.zero_grad()  # flattens, copying the stale gradient in, and zeroes it
    assert fresh.flat is not None and not stale.grad.any()
