import numpy as np
import pytest

from test_fused_ops import attention_weights, spy_attention

from tinyalm import lm
from tinyalm.autodiff import ShapeError, Tape, Tensor, add, matmul, mul, slice_, sum_
from tinyalm.config import Config, ConfigError
from tinyalm.gradcheck import grad_check
from tinyalm.lm import DecodeCache, LoraAdapter, ToyDecoder, build_sequence, ce_loss
from tinyalm.params import ParamStore, seeded_rng


def make_lm(**over):
    cfg = Config(**over)
    store = ParamStore()
    return cfg, store, ToyDecoder(cfg, store)


def embed_random(dec, b, l, seed=0):
    rng = seeded_rng(seed)
    ids = rng.integers(0, dec.cfg.vocab_symbols, size=(b, l))
    return dec.embed_tokens(ids)


def randomize_adapters(dec, seed):
    """Random nonzero LoRA A and B on every layer; returns the generator for
    further draws."""
    rng = seeded_rng(seed)
    for layer in dec.layers:
        for ad in (layer["lora_q"], layer["lora_v"]):
            ad.a.data[...] = rng.standard_normal(ad.a.shape) * 0.3
            ad.b.data[...] = rng.standard_normal(ad.b.shape) * 0.3
    return rng


def random_inputs(cfg, rng, batch, length):
    """Random hidden inputs, with pad keys in both rows' prefixes."""
    h = Tensor(rng.standard_normal((batch, length, cfg.d_model))
               .astype(cfg.np_dtype))
    key_valid = np.ones((batch, length), dtype=cfg.np_dtype)
    key_valid[0, 4:6] = 0.0   # audio pad slots
    key_valid[1, 2] = 0.0
    return h, key_valid


def test_rank_must_be_below_width():
    with pytest.raises(ConfigError, match="lora_rank"):
        make_lm(lora_rank=64, d_model=64)


def test_lora_zero_init_is_exact_noop():
    _, _, dec = make_lm()
    layer = dec.layers[0]
    w_eff = layer["lora_q"].apply(layer["wq"])
    np.testing.assert_array_equal(w_eff.data, layer["wq"].data)

    h = embed_random(dec, 2, 9)
    with_lora = dec.forward(h, use_lora=True).data
    without = dec.forward(h, use_lora=False).data
    np.testing.assert_array_equal(with_lora, without)


def test_lora_delta_rank_bounded():
    cfg, _, dec = make_lm()
    rng = seeded_rng(1)
    for layer in dec.layers:
        for ad in (layer["lora_q"], layer["lora_v"]):
            ad.a.data[...] = rng.standard_normal(ad.a.shape).astype(np.float32)
            ad.b.data[...] = rng.standard_normal(ad.b.shape).astype(np.float32)
            sv = np.linalg.svd(ad.delta(), compute_uv=False)
            assert (sv > 1e-6 * sv[0]).sum() <= cfg.lora_rank


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lora_apply_is_bit_identical_to_add_of_matmul(dtype):
    """W + A@B as one linear node: the bytes of add(W, matmul(A, B)), in the
    forward and in both adapter gradients."""
    rng = seeded_rng(33)
    w = Tensor(rng.standard_normal((16, 16)).astype(dtype))
    lora = LoraAdapter(Tensor(rng.standard_normal((16, 4)).astype(dtype), requires_grad=True),
                       Tensor(rng.standard_normal((4, 16)).astype(dtype), requires_grad=True))
    weight = Tensor(rng.standard_normal((16, 16)).astype(dtype))

    def run(fn):
        lora.a.grad = lora.b.grad = None
        with Tape() as tape:
            out = fn()
            tape.backward(sum_(mul(out, weight)))
        return out.data, lora.a.grad, lora.b.grad

    got = run(lambda: lora.apply(w))
    want = run(lambda: add(w, matmul(lora.a, lora.b)))
    for g, expected in zip(got, want):
        assert g.dtype == expected.dtype and g.tobytes() == expected.tobytes()


def decoder_attention(monkeypatch, dec, h, key_valid=None):
    """Per-layer attention weights [B, H, L, L], recomputed by the composite
    from the arguments of each of the decoder's attention calls."""
    calls = spy_attention(monkeypatch, lm)
    dec.forward(h, key_valid=key_valid)
    assert len(calls) == dec.cfg.lm_layers
    return [attention_weights(*call).data for call in calls]


def test_attention_rows_sum_to_one(monkeypatch):
    _, _, dec = make_lm()
    h = embed_random(dec, 2, 7, seed=2)
    for att in decoder_attention(monkeypatch, dec, h):
        assert att.shape == (2, dec.cfg.lm_heads, 7, 7)
        sums = att.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        # strictly causal: no weight above the diagonal
        upper = np.triu(np.ones(att.shape[-2:], dtype=bool), k=1)
        assert np.all(att[:, :, upper] == 0.0)


def test_causality_paired_forward():
    _, _, dec = make_lm()
    rng = seeded_rng(3)
    base = rng.integers(0, 32, size=(1, 10))
    changed = base.copy()
    changed[0, 6] = (changed[0, 6] + 5) % 32
    la = dec.forward(dec.embed_tokens(base)).data
    lb = dec.forward(dec.embed_tokens(changed)).data
    np.testing.assert_array_equal(la[0, :6], lb[0, :6])
    assert np.any(la[0, 6:] != lb[0, 6:])


def test_key_valid_masks_weight_to_exact_zero(monkeypatch):
    _, _, dec = make_lm()
    h = embed_random(dec, 1, 6, seed=4)
    key_valid = np.ones((1, 6), dtype=np.float32)
    key_valid[0, 2] = 0.0
    for att in decoder_attention(monkeypatch, dec, h, key_valid):
        assert np.all(att[:, :, 3:, 2] == 0.0)  # rows that could see key 2


def test_masked_position_content_does_not_leak():
    _, _, dec = make_lm()
    rng = seeded_rng(5)
    ids = rng.integers(0, 32, size=(1, 6))
    other = ids.copy()
    other[0, 2] = (other[0, 2] + 9) % 32
    key_valid = np.ones((1, 6), dtype=np.float32)
    key_valid[0, 2] = 0.0
    la = dec.forward(dec.embed_tokens(ids), key_valid=key_valid).data
    lb = dec.forward(dec.embed_tokens(other), key_valid=key_valid).data
    keep = [0, 1, 3, 4, 5]
    np.testing.assert_array_equal(la[0, keep], lb[0, keep])


def test_overlength_rejected():
    # max_tokens 7: the spec's longest sequence (15) fits in max_seq 16
    _, _, dec = make_lm(max_seq=16, max_tokens=7)
    h = embed_random(dec, 1, 17, seed=6)
    with pytest.raises(ValueError, match="exceeds"):
        dec.forward(h)


@pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-5)])
def test_cache_matches_full_forward(dtype, tol):
    """[prefix; prompt; BOS] in one cached call, then one token per call,
    against one uncached forward over the whole sequence: to 1e-12 in
    float64, and in float32 to 1e-5 of the largest logit."""
    cfg, _, dec = make_lm(dtype=dtype)
    rng = randomize_adapters(dec, 30)
    batch, first, n_tokens = 2, 10, 6   # audio 6 + prompt 3 + BOS, then tokens
    h, key_valid = random_inputs(cfg, rng, batch, first + n_tokens)
    full = dec.forward(h, key_valid).data

    cache = DecodeCache()
    steps = [dec.forward(Tensor(h.data[:, :first]), key_valid[:, :first],
                         cache=cache).data]
    for t in range(first, first + n_tokens):
        steps.append(dec.forward(Tensor(h.data[:, t:t + 1]), cache=cache).data)
    assert cache.length == first + n_tokens
    scale = 1.0 if dtype == "float64" else np.abs(full).max()
    assert np.abs(np.concatenate(steps, axis=1) - full).max() <= tol * scale


@pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-5)])
def test_keep_matches_last_rows_of_full_forward(dtype, tol):
    """forward(keep=n) against the last n rows of one full forward: uncached,
    and as a cached first call with keep=1 whose cache then serves the next
    token. To 1e-12 in float64, and in float32 to 1e-5 of the largest logit.
    keep >= L is the full forward itself."""
    cfg, _, dec = make_lm(dtype=dtype)
    rng = randomize_adapters(dec, 31)
    batch, length = 2, 10
    h, key_valid = random_inputs(cfg, rng, batch, length + 1)
    full = dec.forward(h, key_valid).data
    scale = 1.0 if dtype == "float64" else np.abs(full).max()
    first = Tensor(h.data[:, :length])
    upto = dec.forward(first, key_valid[:, :length]).data
    for n in (1, 3, length - 1):
        kept = dec.forward(first, key_valid[:, :length], keep=n).data
        assert kept.shape == (batch, n, cfg.vocab_total)
        assert np.abs(kept - upto[:, -n:]).max() <= tol * scale
    for n in (length, length + 4):
        np.testing.assert_array_equal(
            dec.forward(first, key_valid[:, :length], keep=n).data, upto)

    cache = DecodeCache()
    steps = [dec.forward(first, key_valid[:, :length], cache=cache, keep=1).data,
             dec.forward(Tensor(h.data[:, length:]), cache=cache, keep=1).data]
    assert all(step.shape == (batch, 1, cfg.vocab_total) for step in steps)
    assert np.abs(np.concatenate(steps, axis=1) - full[:, -2:]).max() <= tol * scale


def test_keep_gradients_match_full_forward():
    """Under a loss on the last n rows, the tape gradient of every trainable
    and of the input equals the one through the full forward, to 1e-12."""
    cfg, store, dec = make_lm(dtype="float64")
    rng = randomize_adapters(dec, 32)
    batch, length, n = 2, 10, 4
    h, key_valid = random_inputs(cfg, rng, batch, length)
    h.requires_grad = True
    weight = Tensor(rng.standard_normal((batch, n, cfg.vocab_total)))

    def grads(keep):
        params = dict(store.trainable_items(), h=h)
        for t in params.values():
            t.grad = None
        with Tape() as tape:
            logits = dec.forward(h, key_valid, keep=keep)
            if keep is None:
                logits = slice_(logits, (slice(None), slice(length - n, None)))
            tape.backward(sum_(mul(logits, weight)))
        return {name: t.grad.copy() for name, t in params.items()}

    full, kept = grads(None), grads(n)
    assert len(full) == cfg.lm_layers * 4 + 1
    for name, g in full.items():
        assert np.abs(kept[name] - g).max() <= 1e-12 * max(1.0, np.abs(g).max()), name


def test_cached_overlength_rejected():
    _, _, dec = make_lm(max_seq=16, max_tokens=7)
    cache = DecodeCache()
    dec.forward(embed_random(dec, 1, 15, seed=6), cache=cache)
    dec.forward(embed_random(dec, 1, 1, seed=7), cache=cache)   # 16 fits
    with pytest.raises(ShapeError, match="exceeds"):
        dec.forward(embed_random(dec, 1, 1, seed=8), cache=cache)
    assert cache.length == 16


def test_ce_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((1, 2, 32), dtype=np.float32))
    labels = np.array([[3, 5]])
    mask = np.ones((1, 2), dtype=np.float32)
    assert abs(ce_loss(logits, labels, mask).item() - np.log(32.0)) < 1e-5


def test_ce_confident_correct_is_near_zero():
    logits = np.zeros((1, 1, 32), dtype=np.float32)
    logits[0, 0, 7] = 1e6
    val = ce_loss(Tensor(logits), np.array([[7]]),
                  np.ones((1, 1), dtype=np.float32)).item()
    assert val < 1e-6


def test_ce_matches_per_position_reference():
    rng = seeded_rng(8)
    logits = rng.standard_normal((2, 4, 6)).astype(np.float32)
    labels = rng.integers(0, 6, size=(2, 4))
    mask = np.array([[1, 1, 0, 0], [0, 1, 1, 1]], dtype=np.float32)
    want = []
    for b, t in zip(*np.nonzero(mask)):
        row = logits[b, t].astype(np.float64)
        want.append(np.log(np.exp(row).sum()) - row[labels[b, t]])
    got = ce_loss(Tensor(logits), labels, mask).item()
    assert abs(got - np.mean(want)) < 1e-6


def test_ce_all_masked_rejected():
    logits = Tensor(np.zeros((1, 2, 32), dtype=np.float32))
    with pytest.raises(ConfigError, match="supervised"):
        ce_loss(logits, np.array([[1, 2]]), np.zeros((1, 2), dtype=np.float32))


def test_ce_gradient_fd():
    logits = Tensor(seeded_rng(7).standard_normal((1, 3, 5)), requires_grad=True)
    labels = np.array([[2, 0, 4]])
    mask = np.array([[1.0, 0.0, 1.0]])

    def f():
        return ce_loss(logits, labels, mask)

    report = grad_check(f, {"logits": logits})
    assert report.passed, report.format_table()


def test_decoder_lora_gradient_fd():
    cfg, store, dec = make_lm(dtype="float64", d_model=8, lm_heads=2,
                              lm_layers=1, lora_rank=2, max_seq=16, max_tokens=7)
    rng = seeded_rng(20)
    for ad in (dec.layers[0]["lora_q"], dec.layers[0]["lora_v"]):
        ad.a.data[...] = rng.standard_normal(ad.a.shape) * 0.3
        ad.b.data[...] = rng.standard_normal(ad.b.shape) * 0.3
    h = Tensor(seeded_rng(8).standard_normal((1, 5, 8)), requires_grad=True)
    labels = np.array([[0, 0, 3, 9, 1]])
    mask = np.array([[0.0, 0.0, 1.0, 1.0, 1.0]])

    def f():
        return ce_loss(dec.forward(h), labels, mask)

    params = dict(store.trainable_items())
    params["h"] = h
    report = grad_check(f, params)
    assert report.passed, report.format_table()


def test_parameter_registration_split():
    _, store, dec = make_lm()
    frozen = [n for n, _ in store.frozen_items()]
    trainable = [n for n, _ in store.trainable_items()]
    assert all(n.startswith("lm.base.") for n in frozen)
    assert all(n.startswith("lm.lora.") for n in trainable)
    assert len(trainable) == dec.cfg.lm_layers * 4  # q/v adapters, a and b
    lora_count = sum(t.data.size for _, t in store.trainable_items())
    assert lora_count == dec.cfg.lm_layers * 2 * 2 * 64 * 8


def test_build_sequence_layout():
    cfg, store, dec = make_lm()
    b, l_audio, p_len = 2, 3, 2
    audio = Tensor(seeded_rng(9).standard_normal((b, l_audio, 64)).astype(np.float32))
    audio_valid = np.ones((b, l_audio), dtype=np.float32)
    audio_valid[1, 2] = 0.0
    prompts = Tensor(seeded_rng(10).standard_normal((b, p_len, 64)).astype(np.float32))
    targets = [[4, 5, cfg.eos_id], [9, cfg.eos_id]]
    seq = build_sequence(cfg, dec, audio, audio_valid, prompts, targets)

    assert seq.hidden.shape == (b, l_audio + p_len + 3, 64)
    start = l_audio + p_len
    # [audio; prompt; text], with labels and loss mask over the text only
    np.testing.assert_array_equal(seq.hidden.data[:, :l_audio], audio.data)
    np.testing.assert_array_equal(seq.hidden.data[:, l_audio:start], prompts.data)
    np.testing.assert_array_equal(seq.labels, [[4, 5, cfg.eos_id],
                                               [9, cfg.eos_id, -1]])
    np.testing.assert_array_equal(seq.loss_mask, [[1, 1, 1], [1, 1, 0]])
    # audio validity carried through; text pad key masked
    np.testing.assert_array_equal(seq.key_valid[1, :l_audio], [1, 1, 0])
    assert seq.key_valid[1, start + 2] == 0.0
    # text inputs are BOS-shifted targets through the frozen embedding
    bos_row = dec.tok_embed.data[cfg.bos_id]
    np.testing.assert_array_equal(seq.hidden.data[0, start], bos_row)
    np.testing.assert_array_equal(seq.hidden.data[0, start + 1],
                                  dec.tok_embed.data[4])
