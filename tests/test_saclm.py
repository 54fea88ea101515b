import numpy as np
import pytest

from tinyalm.autodiff import Tape, Tensor, matmul, mean, mul
from tinyalm.config import Config, ConfigError
from tinyalm.gradcheck import grad_check
from tinyalm.params import ParamStore, seeded_rng
from tinyalm.saclm import EPS_AGG, Saclm, derangement


def make_saclm(**over):
    cfg = Config(**over)
    store = ParamStore()
    return cfg, store, Saclm(cfg, store)


def unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def texts_for(b, d, lengths, seed=0):
    """Right-padded [b, max(lengths), d] text batch plus its lengths; the
    padding rows are noise too, which SACLM must ignore."""
    rng = seeded_rng(seed)
    lengths = np.asarray(lengths[:b])
    data = rng.standard_normal((b, lengths.max(), d)).astype(np.float32)
    return Tensor(data), lengths


def test_align_identity_and_replication():
    _, _, sac = make_saclm()
    full = seeded_rng(1).standard_normal((5, 2))
    text = np.full((3, 5, 2), 1e6)   # padding that must not leak
    text[0] = full                   # length 5 -> 5 rows: identity
    text[1, 0] = [2.0, -1.0]         # length 1: constant replication
    text[2, :2] = [[1.0, 2.0], [3.0, 6.0]]  # length 2: linear, midpoint
    out = sac.align_text(Tensor(text.astype(np.float32)), [5, 1, 2], 5).data
    np.testing.assert_allclose(out[0], full, atol=1e-6)
    np.testing.assert_array_equal(out[1], np.tile([2.0, -1.0], (5, 1)))
    np.testing.assert_allclose(out[2], [[1, 2], [1.5, 3], [2, 4], [2.5, 5],
                                        [3, 6]], atol=1e-6)


def interp_matrix(t_in, t_out, dtype):
    """[t_out, t_in] linear resampling map of one example, at the sample
    positions numpy's linspace(0, t_in-1, t_out) gives: the per-example
    loop that `Saclm.align_text` replaced."""
    w = np.zeros((t_out, t_in), dtype=dtype)
    pos = np.linspace(0.0, t_in - 1.0, t_out)
    lo = np.floor(pos).astype(int)
    lo = np.minimum(lo, t_in - 1)
    hi = np.minimum(lo + 1, t_in - 1)
    frac = (pos - lo).astype(dtype)
    rows = np.arange(t_out)
    np.add.at(w, (rows, lo), 1.0 - frac)
    np.add.at(w, (rows, hi), frac)
    return w


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_align_is_bit_identical_to_per_example_maps(dtype):
    """The one-pass map against one `interp_matrix` per example, on random
    batches that include lengths of 1, t_a == 1 and t_a == T_t."""
    _, _, sac = make_saclm()
    rng = seeded_rng(18)
    for trial in range(300):
        b, t_t = int(rng.integers(1, 9)), int(rng.integers(1, 30))
        t_a = (1, t_t, int(rng.integers(1, 50)))[trial % 3]
        lengths = rng.integers(1, t_t + 1, b)
        lengths[trial % b] = 1 if trial % 2 else lengths[trial % b]
        text = Tensor(rng.standard_normal((b, t_t, 4)).astype(dtype))
        w = np.zeros((b, t_a, t_t), dtype=dtype)
        for i, n in enumerate(lengths):
            w[i, :, :n] = interp_matrix(n, t_a, dtype)
        got = sac.align_text(text, lengths, t_a).data
        assert got.tobytes() == matmul(Tensor(w), text).data.tobytes(), (lengths, t_a)


def test_score_zero_net_gives_half():
    _, _, sac = make_saclm()
    for t in (sac.score_w1, sac.score_b1, sac.score_w2, sac.score_b2):
        t.data[...] = 0.0
    phi = Tensor(seeded_rng(3).standard_normal((2, 6, 64)).astype(np.float32))
    aligned = Tensor(seeded_rng(4).standard_normal((2, 6, 64)).astype(np.float32))
    s = sac.score(phi, aligned)
    np.testing.assert_array_equal(s.data, np.full((2, 6), 0.5, dtype=np.float32))


def test_score_range_open_interval():
    _, _, sac = make_saclm()
    phi = Tensor(seeded_rng(5).standard_normal((3, 7, 64)).astype(np.float32))
    aligned = Tensor(seeded_rng(6).standard_normal((3, 7, 64)).astype(np.float32))
    s = sac.score(phi, aligned).data
    assert np.all(s > 0.0) and np.all(s < 1.0)
    # extreme logits may round to the bounds in float32 but never leave [0, 1]
    big = Tensor((seeded_rng(5).standard_normal((3, 7, 64)) * 50).astype(np.float32))
    s = sac.score(big, big).data
    assert np.all(s >= 0.0) and np.all(s <= 1.0)


def test_decide_examples():
    _, _, sac = make_saclm()
    s = Tensor(np.array([[0.7, 0.2, 0.5]], dtype=np.float32))
    d, fb = sac.decide(s)
    np.testing.assert_array_equal(d.data, [[1.0, 0.0, 1.0]])
    assert fb == 0

    s = Tensor(np.array([[0.1, 0.4, 0.2]], dtype=np.float32))
    d, fb = sac.decide(s)
    np.testing.assert_array_equal(d.data, [[0.0, 1.0, 0.0]])
    assert fb == 1

    s = Tensor(np.full((2, 4), 0.9, dtype=np.float32))
    d, fb = sac.decide(s)
    np.testing.assert_array_equal(d.data, np.ones((2, 4)))
    assert fb == 0


def test_fallback_never_empty_sweep():
    _, _, sac = make_saclm()
    rng = seeded_rng(7)
    for _ in range(25):
        s = Tensor(rng.uniform(0.0, 1.0, size=(4, 9)).astype(np.float32))
        d, _ = sac.decide(s)
        assert set(np.unique(d.data)) <= {0.0, 1.0}
        assert np.all(d.data.sum(axis=1) >= 1)
        # wherever no fallback applied, D == (S >= 0.5) exactly
        hard = (s.data >= 0.5).astype(np.float32)
        rows = hard.sum(axis=1) > 0
        np.testing.assert_array_equal(d.data[rows], hard[rows])


def test_aggregate_single_selected_frame():
    _, _, sac = make_saclm()
    phi = Tensor(seeded_rng(8).standard_normal((1, 3, 64)).astype(np.float32))
    s = Tensor(np.array([[0.9, 0.1, 0.2]], dtype=np.float32))
    d = Tensor(np.array([[1.0, 0.0, 0.0]], dtype=np.float32))
    got = sac.aggregate(phi, s, d).data[0]
    frame = Tensor(phi.data[:, 0])
    want = sac.agg_net(frame).data[0] * (0.9 / (0.9 + EPS_AGG))
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_aggregate_identical_frames_convexity():
    _, _, sac = make_saclm()
    frame = seeded_rng(9).standard_normal(64).astype(np.float32)
    phi = Tensor(np.tile(frame, (1, 3, 1)))
    s = Tensor(np.array([[0.5, 0.7, 0.9]], dtype=np.float32))
    d = Tensor(np.ones((1, 3), dtype=np.float32))
    got = sac.aggregate(phi, s, d).data[0]
    ssum = 0.5 + 0.7 + 0.9
    want = sac.agg_net(Tensor(frame[None, :])).data[0] * (ssum / (ssum + EPS_AGG))
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


def test_derangement_forced_swap_and_golden():
    np.testing.assert_array_equal(derangement(2, np.random.default_rng(5)), [1, 0])
    np.testing.assert_array_equal(derangement(4, np.random.default_rng(0)),
                                  [3, 0, 1, 2])
    for seed in range(20):
        p = derangement(6, np.random.default_rng(seed))
        assert np.all(p != np.arange(6))
        assert sorted(p) == list(range(6))


def test_negatives_require_batch_of_two():
    _, _, sac = make_saclm()
    with pytest.raises(ConfigError, match=">= 2"):
        derangement(1, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        sac.forward(Tensor(np.zeros((1, 4, 64), dtype=np.float32)),
                    *texts_for(1, 64, [3]), np.random.default_rng(0))


def test_triplet_hand_arithmetic():
    cfg, _, sac = make_saclm(d_model=2, margin=0.2)
    anchor = Tensor(unit(0.0)[None, :].astype(np.float32))
    # cosine distance d = 1 - cos(theta): pick angles giving d_pos, d_neg
    pos = Tensor(unit(np.arccos(1 - 0.1))[None, :].astype(np.float32))
    neg = Tensor(unit(np.arccos(1 - 0.9))[None, :].astype(np.float32))
    # per-example hinge needs B >= 1; triplet() averages over rows
    val = sac.triplet(anchor, pos, neg).item()
    assert abs(val - 0.0) < 1e-6  # max(0.1 - 0.9 + 0.2, 0)

    pos = Tensor(unit(np.arccos(1 - 0.8))[None, :].astype(np.float32))
    neg = Tensor(unit(np.arccos(1 - 0.3))[None, :].astype(np.float32))
    val = sac.triplet(anchor, pos, neg).item()
    assert abs(val - 0.7) < 1e-6  # max(0.8 - 0.3 + 0.2, 0)


def test_triplet_equal_pos_neg_equals_margin():
    cfg, _, sac = make_saclm()
    rng = seeded_rng(10)
    anchor = Tensor(rng.standard_normal((3, 64)).astype(np.float32))
    same = Tensor(rng.standard_normal((3, 64)).astype(np.float32))
    val = sac.triplet(anchor, same, same).item()
    assert abs(val - cfg.margin) < 1e-7


def test_triplet_scale_invariance():
    _, _, sac = make_saclm()
    rng = seeded_rng(11)
    a = rng.standard_normal((2, 64)).astype(np.float32)
    p = rng.standard_normal((2, 64)).astype(np.float32)
    n = rng.standard_normal((2, 64)).astype(np.float32)
    base = sac.triplet(Tensor(a), Tensor(p), Tensor(n)).item()
    for c in (0.5, 3.0, 40.0):
        got = sac.triplet(Tensor(a * c), Tensor(p * c), Tensor(n * c)).item()
        assert abs(got - base) < 1e-6


def test_sparsity_value_and_gradient():
    cfg, _, sac = make_saclm()
    for t in (sac.score_w1, sac.score_b1, sac.score_w2, sac.score_b2):
        t.data[...] = 0.0
    phi = Tensor(seeded_rng(12).standard_normal((2, 6, 64)).astype(np.float32))
    out = sac.forward(phi, *texts_for(2, 64, [4, 5]), np.random.default_rng(0))
    assert abs(out.loss_sparsity.item() - 0.5 * np.float32(0.01)) < 1e-9

    # gradient of the sparsity term alone is lambda / (B * T_a), positive
    s = Tensor(seeded_rng(13).uniform(0.1, 0.9, (2, 6)).astype(np.float32),
               requires_grad=True)
    with Tape() as tape:
        loss = mul(mean(s), cfg.lambda_sparsity)
        tape.backward(loss)
    want = cfg.lambda_sparsity / (2 * 6)
    np.testing.assert_allclose(s.grad, np.full((2, 6), want), rtol=1e-6)
    assert np.all(s.grad > 0)


def test_forward_shapes_and_losses():
    cfg, _, sac = make_saclm()
    phi = Tensor(seeded_rng(14).standard_normal((4, 10, 64)).astype(np.float32))
    text, lengths = texts_for(4, 64, [3, 4, 5, 6])
    out = sac.forward(phi, text, lengths, np.random.default_rng(1))
    assert out.scores.shape == (4, 10)
    assert out.decisions.shape == (4, 10)
    assert out.aggregated.shape == (4, 64)
    assert out.loss_triplet.item() >= 0.0
    assert out.loss_sparsity.item() >= 0.0
    got = out.loss_sac.item()
    want = out.loss_triplet.item() + out.loss_sparsity.item()
    assert abs(got - want) < 1e-7
    assert np.all(out.negative_perm != np.arange(4))

    # per-example reference: mean over each example's own rows, then one
    # hinge per row, with cosine_distance's default eps of 1e-8
    def cos_d(a, b):
        return 1.0 - a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-8)

    pooled = [text.data[i, :n].mean(axis=0) for i, n in enumerate(lengths)]
    phi_p = out.aggregated.data
    hinges = [max(cos_d(phi_p[i], pooled[i])
                  - cos_d(phi_p[i], pooled[out.negative_perm[i]])
                  + cfg.margin, 0.0) for i in range(4)]
    assert abs(out.loss_triplet.item() - np.mean(hinges)) < 1e-6

    # longer, different padding changes nothing beyond float32 rounding
    wide = np.full((4, 9, 64), -1e3, dtype=np.float32)
    wide[:, :6] = text.data
    again = sac.forward(phi, Tensor(wide), lengths, np.random.default_rng(1))
    np.testing.assert_allclose(again.scores.data, out.scores.data, atol=1e-6)
    assert abs(again.loss_sac.item() - out.loss_sac.item()) < 1e-6


def test_full_saclm_gradient_fd():
    cfg, store, sac = make_saclm(dtype="float64", d_model=6, score_hidden=5,
                                 agg_hidden=5, margin=0.2)
    rng = seeded_rng(15)
    phi = Tensor(rng.standard_normal((2, 6, 6)), requires_grad=True)
    text, lengths = np.zeros((2, 5, 6)), [3, 5]
    text[0, :3] = rng.standard_normal((3, 6))
    text[1] = rng.standard_normal((5, 6))
    text = Tensor(text)

    pilot = sac.forward(phi, text, lengths, np.random.default_rng(2))
    frozen_d = pilot.decisions.data.copy()
    # pin D: the straight-through path is an estimator, not FD-checkable
    assert np.all(np.abs(pilot.scores.data - 0.5) > 1e-3)

    def f():
        return sac.forward(phi, text, lengths, np.random.default_rng(2),
                           decisions=frozen_d).loss_sac

    params = dict(store.trainable_items())
    params["phi"] = phi
    report = grad_check(f, params)
    assert report.passed, report.format_table()


def test_align_gradient_through_downstream():
    _, _, sac = make_saclm(dtype="float64", d_model=4)
    # padded rows of the shorter example get zero gradient, FD-checked too
    te = Tensor(seeded_rng(16).standard_normal((2, 4, 4)), requires_grad=True)
    probe = Tensor(seeded_rng(17).standard_normal((2, 7, 4)))

    def f():
        from tinyalm.autodiff import mul, sum_
        return sum_(mul(sac.align_text(te, [4, 2], 7), probe))

    report = grad_check(f, {"te": te})
    assert report.passed, report.format_table()
