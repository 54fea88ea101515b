"""The one-node kernels `layer_norm`, `linear`, `cosine_distance` and
`attention` against the composites they replace, kept here as oracles:
forward and every input gradient must agree bit for bit, in float32 and
float64, for every subset of tracked inputs.

Each tracked input also feeds a second op taped after the kernel, so its
gradient already holds that op's share when the kernel's sends arrive; a
kernel that sends its shares in another order than the composite rounds
differently and fails here.
"""

import itertools

import numpy as np
import pytest

from tinyalm import autodiff as ad
from tinyalm.autodiff import Tape, Tensor


def sqrt(a):
    """The square-root primitive the composites were built from."""
    r = np.sqrt(a.data)
    out = Tensor(r)
    if ad._TAPE is not None:
        # 0 where the output is 0 and the derivative unbounded: g / inf
        ad._TAPE._record("sqrt", (a,), out, lambda _: lambda g: (
            g / (2.0 * np.where(r > 0, r, np.inf)),))
    return out


def layer_norm_composite(x, gain, bias, eps=1e-5):
    mu = ad.mean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.div(centered, sqrt(ad.add(var, eps)))
    return ad.add(ad.mul(inv, gain), bias)


def linear_composite(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def cosine_distance_composite(a, b, eps=1e-8):
    dot = ad.sum_(ad.mul(a, b), axis=-1)
    na = sqrt(ad.sum_(ad.mul(a, a), axis=-1))
    nb = sqrt(ad.sum_(ad.mul(b, b), axis=-1))
    return ad.sub(1.0, ad.div(dot, ad.add(ad.mul(na, nb), eps)))


def attention_weights(q, k, allowed=None, heads=1):
    """The softmax node of the attention composite: [..., Lq, Lk] weights,
    per head when heads > 1 ([B, heads, Lq, Lk])."""
    if heads > 1:
        q, k = split_heads(q, heads), split_heads(k, heads)
    k_t = ad.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = ad.mul(ad.matmul(q, k_t), 1.0 / np.sqrt(k.shape[-1]))
    if allowed is not None:
        mask = np.where(allowed, 0.0, ad.MASK_NEG).astype(scores.dtype)
        scores = ad.add(scores, Tensor(mask))
    return ad.softmax(scores, axis=-1)


def split_heads(t, heads):
    """[B, L, d] -> [B, heads, L, d / heads], as the decoder split them."""
    b, _, d = t.shape
    return ad.transpose(ad.reshape(t, (b, -1, heads, d // heads)), (0, 2, 1, 3))


def attention_composite(q, k, v, allowed=None, heads=1):
    if heads == 1:
        return ad.matmul(attention_weights(q, k, allowed), v)
    q, k, v = (split_heads(t, heads) for t in (q, k, v))
    ctx = ad.matmul(attention_weights(q, k, allowed), v)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (ctx.shape[0], -1, heads * v.shape[-1]))


def spy_attention(monkeypatch, module):
    """Replace `module.attention` with a pass-through that records each
    call's (q, k, allowed, heads), the arguments of `attention_weights`."""
    calls = []

    def spy(q, k, v, allowed=None, heads=1):
        calls.append((q, k, allowed, heads))
        return ad.attention(q, k, v, allowed, heads)

    monkeypatch.setattr(module, "attention", spy)
    return calls


def _inputs(rng, shapes, zero_row=False):
    arrays = [rng.standard_normal(shape) for shape in shapes]
    if zero_row:
        arrays[0][1] = 0.0
    return arrays


def attention_pair(allowed=None, heads=1, alias=False):
    """(kernel, composite) with the mask and heads bound; with alias, both
    take one input that serves as q, k and v, so the send order shows."""
    def bind(fn):
        if alias:
            return lambda x: fn(x, x, x, allowed, heads)
        return lambda q, k, v: fn(q, k, v, allowed, heads)
    return bind(ad.attention), bind(attention_composite)


KEY_VALID = np.array([[1, 1, 1, 1, 0, 0, 1], [1, 1, 0, 1, 1, 1, 1]]) > 0
WINDOW_VALID = np.arange(8) < np.array([[8], [3], [0], [5]])  # window 2 is empty

# name -> (fused op, composite, input shapes, zero first input's row 1)
CASES = {
    "layer_norm_query": (ad.layer_norm, layer_norm_composite,
                         [(1, 32), (32,), (32,)], False),   # the Q-Former query
    "layer_norm_batch": (ad.layer_norm, layer_norm_composite,
                         [(3, 7, 64), (64,), (64,)], False),
    "linear_query": (ad.linear, linear_composite,
                     [(1, 32), (32, 16), (16,)], False),
    "linear_batch": (ad.linear, linear_composite,
                     [(3, 7, 64), (64, 24), (24,)], False),
    "cosine_anchor_vs_pair": (ad.cosine_distance, cosine_distance_composite,
                              [(4, 64), (2, 4, 64)], False),  # SACLM's triplet
    "cosine_batch": (ad.cosine_distance, cosine_distance_composite,
                     [(3, 7, 64), (3, 7, 64)], False),
    "cosine_vector": (ad.cosine_distance, cosine_distance_composite,
                      [(64,), (64,)], False),
    "cosine_zero_row": (ad.cosine_distance, cosine_distance_composite,
                        [(3, 64), (3, 64)], True),
    # the decoder: 4 heads, causal and key masks, the last 3 query rows kept
    "attention_heads": (*attention_pair(np.tri(3, 7, 4, dtype=bool)
                                        & KEY_VALID[:, None, None, :], heads=4),
                        [(2, 3, 32), (2, 7, 32), (2, 7, 32)], False),
    "attention_heads_alias": (*attention_pair(np.tri(7, dtype=bool), 4, alias=True),
                              [(2, 7, 32)], False),
    "attention_batch": (*attention_pair(np.arange(7) < np.array([[2], [7], [4]])),
                        [(2, 3, 16), (2, 7, 16), (2, 7, 8)], False),
    "attention_alias": (*attention_pair(np.tri(7, dtype=bool), alias=True),
                        [(2, 7, 16)], False),
    # the Q-Former: its queries attend to each other, then to every window
    "attention_query_self": (*attention_pair(), [(3, 16), (3, 16), (3, 16)], False),
    "attention_query_windows": (*attention_pair(WINDOW_VALID[:, None, :]),
                                [(3, 16), (4, 8, 16), (4, 8, 16)], False),
}


def run(op, arrays, tracked, dtype):
    """Forward, input gradients and node count of op on fresh tensors."""
    rng = np.random.default_rng(5)
    ts = [Tensor(a.astype(dtype), requires_grad=k) for a, k in zip(arrays, tracked)]
    with Tape() as tape:
        out = op(*ts)
        n_nodes = len(tape.nodes)
        weight = Tensor(rng.standard_normal(out.shape).astype(dtype))
        loss = ad.sum_(ad.mul(out, weight))
        for t in ts:
            if t.requires_grad:  # a second consumer, replayed before the op
                other = Tensor(rng.standard_normal(t.shape).astype(dtype))
                loss = ad.add(loss, ad.sum_(ad.mul(t, other)))
    tape.backward(loss)
    return out.data, [t.grad for t in ts], n_nodes


def same_bits(a, b):
    """Equal arrays of one dtype, down to the sign of each zero."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_kernel_is_bit_identical_to_its_composite(case, dtype):
    fused, composite, shapes, zero_row = CASES[case]
    arrays = _inputs(np.random.default_rng(len(case)), shapes, zero_row)
    for tracked in itertools.product((False, True), repeat=len(shapes)):
        if not any(tracked):
            continue
        out, grads, n_nodes = run(fused, arrays, tracked, dtype)
        want_out, want_grads, _ = run(composite, arrays, tracked, dtype)
        assert n_nodes == 1
        assert same_bits(out, want_out), (tracked, "forward")
        for i, (g, want) in enumerate(zip(grads, want_grads)):
            assert same_bits(g, want), (tracked, f"gradient of input {i}")


@pytest.mark.parametrize("axes", [None, (1, 0, 2), (0, 2, 1, 3), (2, 0, 1),
                                  (-1, 0, 1)])
def test_transpose_backward_inverts_the_permutation(axes):
    shape = (2, 3, 4, 5) if axes is not None and len(axes) == 4 else (2, 3, 4)
    x = Tensor(np.random.default_rng(3).standard_normal(shape), requires_grad=True)
    with Tape() as tape:
        out = ad.transpose(x, axes)
    g = np.random.default_rng(4).standard_normal(out.shape)
    (_, _, _, backward), = tape.nodes
    got, = backward(g)
    assert got.shape == shape
    np.testing.assert_array_equal(np.transpose(got, axes), g)
