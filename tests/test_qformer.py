import numpy as np
import pytest

from test_fused_ops import attention_weights, spy_attention

from tinyalm import autodiff as ad
from tinyalm import qformer
from tinyalm.autodiff import Tape, Tensor, linear, mul, sum_
from tinyalm.config import Config
from tinyalm.gradcheck import grad_check
from tinyalm.params import ParamStore, seeded_rng
from tinyalm.model import Model
from tinyalm.qformer import WindowQFormer


def make_qf(**over):
    cfg = Config(**over)
    store = ParamStore()
    return cfg, store, WindowQFormer(cfg, store)


def run(qf, b, t, d, seed=0, mask=None):
    rng = seeded_rng(seed)
    u = Tensor(rng.standard_normal((b, t, d)).astype(qf.cfg.np_dtype))
    if mask is None:
        mask = np.ones((b, t), dtype=qf.cfg.np_dtype)
    return qf.forward(u, mask)


def run_attention(monkeypatch, qf, b, t, d, seed=0, mask=None):
    """Forward; returns (features, self weights, cross weights), recomputed
    by the composite from the arguments of the Q-Former's two attention
    calls."""
    calls = spy_attention(monkeypatch, qformer)
    z = run(qf, b, t, d, seed=seed, mask=mask)
    assert len(calls) == 2
    return (z, *(attention_weights(*call).data for call in calls))


def test_length_law_examples():
    _, _, qf = make_qf(window_frames=10, n_queries=1)
    assert run(qf, 1, 100, 64).values.shape == (1, 10, 64)
    _, _, qf = make_qf(window_frames=8, n_queries=1)
    assert run(qf, 1, 5, 64).values.shape == (1, 1, 64)


def test_length_law_sweep(monkeypatch):
    _, _, qf = make_qf(window_frames=8, n_queries=2)
    for t in [1, 7, 8, 9, 16, 17, 40]:
        z, _, cross = run_attention(monkeypatch, qf, 1, t, 64)
        n_win = -(-t // 8)
        assert z.values.shape[1] == n_win * 2
        assert cross.shape == (n_win, 2, 8)  # one [N, W] block per window
        np.testing.assert_array_equal(z.valid, np.ones((1, n_win * 2)))


def test_query_self_attention_runs_once(monkeypatch):
    _, _, qf = make_qf(n_queries=3)
    for b, t in [(1, 5), (2, 19), (4, 40)]:
        _, self_att, cross = run_attention(monkeypatch, qf, b, t, 64)
        assert self_att.shape == (3, 3)
        assert cross.shape == (b * -(-t // 8), 3, 8)


def test_valid_marks_windows_with_a_real_frame():
    _, _, qf = make_qf(window_frames=4, n_queries=2)
    mask = np.ones((2, 10), dtype=np.float32)
    mask[0, 4:] = 0.0   # windows 1 and 2 of example 0 are empty
    mask[1, 9:] = 0.0   # the ragged last window keeps frame 8
    z = run(qf, 2, 10, 64, mask=mask)
    np.testing.assert_array_equal(z.valid, [[1, 1, 0, 0, 0, 0],
                                            [1, 1, 1, 1, 1, 1]])
    assert z.empty_windows == 2


def test_doubling_input_doubles_output():
    _, _, qf = make_qf()
    a = run(qf, 1, 24, 64).values.shape[1]
    b = run(qf, 1, 48, 64).values.shape[1]
    assert b == 2 * a


def test_masked_positions_get_exactly_zero_weight(monkeypatch):
    # two queries, so the self-attention has more than one key and runs too
    _, _, qf = make_qf(window_frames=8, n_queries=2)
    mask = np.ones((1, 8), dtype=np.float32)
    mask[0, 5:] = 0.0
    _, _, cross = run_attention(monkeypatch, qf, 1, 8, 64, mask=mask)
    w = cross[0, 0]  # [W]
    assert np.all(w[5:] == 0.0)
    assert abs(w[:5].sum() - 1.0) < 1e-6


def test_weights_sum_to_one_over_valid(monkeypatch):
    _, _, qf = make_qf(n_queries=2)
    z, self_att, cross = run_attention(monkeypatch, qf, 2, 19, 64, seed=3)
    assert z.values.shape[1] == 3 * 2
    assert cross.shape == (2 * 3, 2, 8)  # [B * n_win, N, W]
    for w in (self_att, cross):
        assert np.all(np.abs(w.sum(axis=-1) - 1.0) < 1e-6)


def test_identical_frames_attention_convexity():
    _, _, qf = make_qf(window_frames=6)
    frame = seeded_rng(5).standard_normal(64).astype(np.float32)
    full = Tensor(np.tile(frame, (1, 6, 1)))
    z_full = qf.forward(full, np.ones((1, 6), dtype=np.float32))
    single = np.zeros((1, 6, 64), dtype=np.float32)
    single[0, 0] = frame
    mask = np.zeros((1, 6), dtype=np.float32)
    mask[0, 0] = 1.0
    z_single = qf.forward(Tensor(single), mask)
    np.testing.assert_allclose(z_full.values.data, z_single.values.data,
                               atol=1e-5)


def test_empty_window_skipped_and_counted():
    _, _, qf = make_qf(window_frames=4)
    mask = np.ones((1, 8), dtype=np.float32)
    mask[0, 4:] = 0.0
    rng = seeded_rng(1)
    base = rng.standard_normal((1, 8, 64)).astype(np.float32)
    other = base.copy()
    other[0, 4:] = rng.standard_normal((4, 64))  # garbage under the mask
    za = qf.forward(Tensor(base.copy()), mask.copy())
    n_empty = za.empty_windows
    zb = qf.forward(Tensor(other), mask.copy())
    assert n_empty == 1 and zb.empty_windows == 1
    np.testing.assert_array_equal(za.values.data[:, 1], zb.values.data[:, 1])
    assert np.all(np.isfinite(za.values.data))


@pytest.mark.parametrize("n_queries", [1, 2])
def test_gradient_reaches_query(n_queries):
    cfg, store, qf = make_qf(n_queries=n_queries)
    rng = seeded_rng(2)
    u = Tensor(rng.standard_normal((2, 12, 64)).astype(np.float32))
    with Tape() as tape:
        z = qf.forward(u, np.ones((2, 12), dtype=np.float32))
        loss = sum_(mul(z.values, z.values))
        tape.backward(loss)
    g = qf.query.grad
    assert g is not None and np.any(g != 0.0)
    # one query is one key for the self-attention: its q and k are not stored
    names = {name for name, _ in store.trainable_items()}
    assert ({"qformer.self.wq", "qformer.self.wk"} <= names) == (n_queries > 1)
    assert [name for name, t in store.trainable_items() if t.grad is None] == []


def w1_reference(qf, store, u, mask):
    """The Q-Former forward with one frame per window, both its attentions
    run through ad.attention: the cross-attention over the one key of each
    window, the self-attention over n_queries keys. An attention over one key
    weighs it exactly 1 whatever its q and k weights are, so the Q-Former
    stores none for it, nor the cross-attention's norm, which feeds only its
    q: the reference registers fixed stand-ins under their names."""
    batch, t, d = u.shape
    rng = seeded_rng(13)

    def given(name, value):  # the Q-Former's tensor, or a stand-in
        w = getattr(qf, name.replace(".", "_"), None)
        return w if w is not None else store.param(f"qformer.{name}", value, u.data.dtype)

    self_wq, self_wk, cross_wq, cross_wk = (
        given(n, rng.standard_normal((d, d)) * 0.02)
        for n in ("self.wq", "self.wk", "cross.wq", "cross.wk"))
    cross_ln = (given("cross_ln.gain", np.ones(d)), given("cross_ln.bias", np.zeros(d)))
    u_w = ad.reshape(u, (batch * t, 1, d))
    mask_w = mask.reshape(batch * t, 1)
    has_valid = (mask_w.sum(axis=1) > 0).astype(u.dtype)
    h = ad.layer_norm(qf.query, *qf.self_ln)
    q1 = ad.add(qf.query, ad.matmul(ad.attention(ad.matmul(h, self_wq),
                                                 ad.matmul(h, self_wk),
                                                 ad.matmul(h, qf.self_wv)),
                                    qf.self_wo))
    q_cross = ad.matmul(ad.layer_norm(q1, *cross_ln), cross_wq)
    attended = ad.matmul(ad.attention(q_cross, ad.matmul(u_w, cross_wk),
                                      ad.matmul(u_w, qf.cross_wv),
                                      allowed=(mask_w > 0)[:, None, :]),
                         qf.cross_wo)
    q2 = ad.add(q1, ad.mul(attended, Tensor(has_valid[:, None, None])))
    return ad.reshape(ad.layer_norm(q2, *qf.out_ln), (batch, t * qf.cfg.n_queries, d))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n_queries", [1, 2])
def test_one_frame_windows_match_the_attention_reference(n_queries, dtype):
    rng = seeded_rng(12)
    u0 = rng.standard_normal((2, 5, 16))
    mask = np.ones((2, 5))
    mask[1, 2] = 0.0  # one empty window
    probe = rng.standard_normal((2, 5 * n_queries, 16))

    def run(forward):
        cfg, store, qf = make_qf(d_model=16, window_frames=1, n_queries=n_queries,
                                 dtype=dtype)
        u = Tensor(u0, requires_grad=True, dtype=cfg.np_dtype)
        with Tape() as tape:
            z = forward(qf, store, u, mask.astype(cfg.np_dtype))
            tape.backward(sum_(mul(z, Tensor(probe, dtype=cfg.np_dtype))))
        grads = {n: t.grad for n, t in store.trainable_items()}
        return z.data, dict(grads, u=u.grad)

    z, grads = run(lambda qf, store, u, mask: qf.forward(u, mask).values)
    z_ref, ref = run(w1_reference)
    stand_ins = {f"qformer.{n}" for n in ("cross_ln.gain", "cross_ln.bias",
                                          "cross.wq", "cross.wk")}
    if n_queries == 1:  # one query is one key for the self-attention too
        stand_ins |= {"qformer.self.wq", "qformer.self.wk"}
    assert ref.keys() - grads.keys() == stand_ins
    assert all(g is not None for g in grads.values())
    assert all(not ref[n].any() for n in stand_ins)  # exactly 0 in the reference
    pairs = [(z, z_ref)] + [(grads[n], ref[n]) for n in grads]
    for got, want in pairs:  # the stand-ins' path added exact zeros: same bytes
        assert got.dtype == np.dtype(dtype) and got.tobytes() == want.tobytes()


def input_proj(model):
    """The model's per-frame input projection, as its front end applies it."""
    w, b = model.store["inproj.weight"], model.store["inproj.bias"]
    return (lambda u: linear(u, w, b)), {"inproj.weight": w, "inproj.bias": b}


def test_input_proj_identity_fixture_and_zero_input():
    model = Model(Config(d_model=24))  # fused width 8 + 8 + 8
    proj, params = input_proj(model)
    params["inproj.weight"].data[...] = np.eye(24, dtype=np.float32)
    x = seeded_rng(4).standard_normal((2, 5, 24)).astype(np.float32)
    np.testing.assert_allclose(proj(Tensor(x)).data, x, atol=1e-7)
    zero = np.zeros((1, 3, 24), dtype=np.float32)
    np.testing.assert_array_equal(proj(Tensor(zero)).data, zero)


def test_input_proj_gradient_fd():
    model = Model(Config(d_model=3, dtype="float64", lm_heads=1, lora_rank=1,
                         enc1_dim=2, enc2_dim=0, enc3_dim=0))
    proj, params = input_proj(model)
    x = Tensor(seeded_rng(6).standard_normal((1, 2, 2)))
    probe = Tensor(seeded_rng(7).standard_normal((1, 2, 3)))

    def f():
        return sum_(mul(proj(x), probe))

    report = grad_check(f, params)
    assert report.passed, report.format_table()


def test_full_qformer_gradient_fd():
    cfg, store, qf = make_qf(d_model=8, window_frames=4, n_queries=1,
                             dtype="float64")
    rng = seeded_rng(8)
    u = Tensor(rng.standard_normal((2, 6, 8)))
    mask = np.ones((2, 6), dtype=np.float64)
    mask[1, 3:] = 0.0
    probe = Tensor(rng.standard_normal((2, 2, 8)))

    def f():
        return sum_(mul(qf.forward(u, mask).values, probe))

    report = grad_check(f, dict(store.trainable_items()))
    assert report.passed, report.format_table()


def test_all_parameters_trainable_and_named():
    _, store, _ = make_qf()
    names = [n for n, _ in store.trainable_items()]
    assert all(n.startswith("qformer.") for n in names)
    assert "qformer.query" in names
    assert len(names) == len(set(names))
    assert len([n for n, _ in store.frozen_items()]) == 0
