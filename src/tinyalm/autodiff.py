"""Reverse-mode automatic differentiation on a flat tape.

Tensors wrap numpy arrays. While a Tape is active, every primitive that
touches a tracked tensor appends one node (op name, inputs, output, backward
closure). Tape.backward replays the nodes in strictly reverse append order,
accumulating gradients additively whenever a tensor feeds several consumers.
Gradients are added in place only into the `grad` of leaf tensors created
with requires_grad=True; all else gets gradient transiently or not at all.
"""

from __future__ import annotations

import math

import numpy as np

# Additive pre-softmax mask value. Finite so backward stays NaN-free, but
# large enough that exp() underflows to exactly 0.0 after max subtraction.
MASK_NEG = -1e9


class ShapeError(ValueError):
    """Operand shapes violate an op's shape rule."""


_TAPE: "Tape | None" = None

# the dtypes a Tensor keeps; anything else is cast to float64
_FLOAT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self.nodes = []          # (op_name, inputs, output, backward_fn)
        self._produced = set()   # id() of every output recorded on this tape
        self._outer = None

    def __enter__(self):
        global _TAPE
        self._outer = _TAPE
        _TAPE = self
        return self

    def __exit__(self, *exc):
        global _TAPE
        _TAPE = self._outer
        return False

    def _record(self, op, inputs, out, backward):
        self.nodes.append((op, inputs, out, backward))
        self._produced.add(id(out))

    def backward(self, root: "Tensor"):
        """Propagate d(root)/d(leaf) into every requires_grad leaf.

        root is usually a scalar loss; for non-scalars the seed gradient is
        all-ones. Traversal is strictly reverse append order, so every
        consumer of a tensor has already deposited its contribution by the
        time the producing node is replayed. Leaf contributions add in place
        into `grad` (zeros when None): their direct sums, but a lone -0.0 is +0.0.
        """
        interior = {}

        def send(t, g):
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g
            elif id(t) in self._produced:
                prev = interior.get(id(t))
                interior[id(t)] = g if prev is None else prev + g
            # constants (requires_grad=False, not produced here) get nothing

        send(root, np.ones_like(root.data))
        for _op, inputs, out, backward in reversed(self.nodes):
            g = interior.pop(id(out), None)
            if g is None:
                continue
            for t, gt in zip(inputs, backward(g)):
                if gt is not None:
                    send(t, gt)

    def first_nonfinite(self):
        """Name of the earliest op whose output has a non-finite entry."""
        for op, _inputs, out, _backward in self.nodes:
            if not np.all(np.isfinite(out.data)):
                return op
        return None


class Tensor:
    """Dense n-d value: row-major numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or (_TAPE is not None and id(t) in _TAPE._produced)


def _maybe_record(op, inputs, out, backward):
    if _TAPE is not None and any(_tracked(t) for t in inputs):
        _TAPE._record(op, inputs, out, backward)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------------

def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data + b.data)
    na, nb = _tracked(a), _tracked(b)

    def backward(g):
        return (_unbroadcast(g, a.data.shape) if na else None,
                _unbroadcast(g, b.data.shape) if nb else None)

    _maybe_record("add", (a, b), out, backward)
    return out


def sub(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data - b.data)
    na, nb = _tracked(a), _tracked(b)

    def backward(g):
        return (_unbroadcast(g, a.data.shape) if na else None,
                _unbroadcast(-g, b.data.shape) if nb else None)

    _maybe_record("sub", (a, b), out, backward)
    return out


def mul(a, b):
    """a * b; either side may be a python scalar, cast to the other's dtype."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data * b.data)
    na, nb = _tracked(a), _tracked(b)

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape) if na else None,
                _unbroadcast(g * a.data, b.data.shape) if nb else None)

    _maybe_record("mul", (a, b), out, backward)
    return out


def div(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data / b.data)
    na, nb = _tracked(a), _tracked(b)

    def backward(g):
        return (_unbroadcast(g / b.data, a.data.shape) if na else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if nb else None)

    _maybe_record("div", (a, b), out, backward)
    return out


def relu(a):
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0))
    na = _tracked(a)

    def backward(g):
        # subgradient at 0 is 0
        return (g * (a.data > 0) if na else None,)

    _maybe_record("relu", (a,), out, backward)
    return out


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    # stable in both tails
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    s = s.astype(x.dtype, copy=False)
    out = Tensor(s)
    na = _tracked(a)

    def backward(g):
        return (g * s * (1.0 - s) if na else None,)

    _maybe_record("sigmoid", (a,), out, backward)
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _restore_axes(g, src_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, src_shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % len(src_shape) for ax in axes)
        kept = list(g.shape)
        for ax in sorted(axes):
            kept.insert(ax, 1)
        g = g.reshape(kept)
    return np.broadcast_to(g, src_shape)


def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    na = _tracked(a)

    def backward(g):
        if not na:
            return (None,)
        return (_restore_axes(g, a.data.shape, axis, keepdims).astype(a.dtype, copy=False).copy(),)

    _maybe_record("sum", (a,), out, backward)
    return out


def mean(a, axis=None, keepdims=False):
    """Sum over the axes divided by their exact integer count: equal bit for
    bit to np.mean, which divides in float64 and rounds once more to the
    operand's dtype (a float64 quotient of float32 values rounds to the
    float32 quotient), at a fraction of its per-call cost."""
    a = _as_tensor(a)
    axes = range(a.ndim) if axis is None else (
        axis if isinstance(axis, tuple) else (axis,))
    n = math.prod(a.data.shape[ax] for ax in axes)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims) / n)
    na = _tracked(a)

    def backward(g):
        if not na:
            return (None,)
        spread = _restore_axes(g, a.data.shape, axis, keepdims)
        return ((spread / n).astype(a.dtype, copy=False),)

    _maybe_record("mean", (a,), out, backward)
    return out


# ---------------------------------------------------------------------------
# linear algebra / structure
# ---------------------------------------------------------------------------

def _matmul_operands(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    return a, b


def _matmul_grads(g, a, b, na, nb):
    """(d a, d b) of the arrays' product a @ b, None where not wanted. A rank-2
    operand shared by every batch entry of the other contracts the batch axes
    in one GEMM."""
    ga = gb = None
    if na:
        if a.ndim == 2 and b.ndim > 2:
            batch_and_n = tuple(range(b.ndim - 2)) + (b.ndim - 1,)
            ga = np.tensordot(g, b, axes=(batch_and_n, batch_and_n))
        else:
            ga = _unbroadcast(np.matmul(g, b.swapaxes(-1, -2)), a.shape)
    if nb:
        if b.ndim == 2 and a.ndim > 2:
            gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = _unbroadcast(np.matmul(a.swapaxes(-1, -2), g), b.shape)
    return ga, gb


def matmul(a, b):
    a, b = _matmul_operands(a, b)
    out = Tensor(np.matmul(a.data, b.data))
    na, nb = _tracked(a), _tracked(b)
    _maybe_record("matmul", (a, b), out, lambda g: _matmul_grads(g, a.data, b.data, na, nb))
    return out


def linear(x, w, b):
    """x @ w + b in one node, bit for bit the matmul and add it replaces:
    the add's gradient reaches b, then the matmul's reaches x and w."""
    x, w = _matmul_operands(x, w)
    b = _as_tensor(b, like=x)
    y = np.matmul(x.data, w.data)
    out = Tensor(y + b.data)
    y_shape, nx, nw, nbias = y.shape, _tracked(x), _tracked(w), _tracked(b)

    def backward(g):
        return (*_matmul_grads(_unbroadcast(g, y_shape), x.data, w.data, nx, nw),
                _unbroadcast(g, b.data.shape) if nbias else None)

    _maybe_record("linear", (x, w, b), out, backward)
    return out


def transpose(a, axes=None):
    a = _as_tensor(a)
    out = Tensor(a.data.transpose(axes))
    na = _tracked(a)

    def backward(g):
        if not na:
            return (None,)
        if axes is None:
            return (g.transpose(),)
        n = len(axes)
        return (g.transpose(sorted(range(n), key=lambda i: axes[i] % n)),)

    _maybe_record("transpose", (a,), out, backward)
    return out


def reshape(a, shape):
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    na = _tracked(a)

    def backward(g):
        return (g.reshape(a.data.shape) if na else None,)

    _maybe_record("reshape", (a,), out, backward)
    return out


def concat(tensors, axis=0):
    ts = [_as_tensor(t) for t in tensors]
    rank = ts[0].ndim
    for t in ts[1:]:
        if t.ndim != rank:
            raise ShapeError(f"concat rank mismatch: {ts[0].shape} vs {t.shape}")
        for ax in range(rank):
            if ax != axis % rank and t.shape[ax] != ts[0].shape[ax]:
                raise ShapeError(f"concat extent mismatch on axis {ax}: "
                                 f"{ts[0].shape} vs {t.shape}")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    needs = [_tracked(t) for t in ts]
    sizes = [t.shape[axis % rank] for t in ts]

    def backward(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(p if n else None for p, n in zip(pieces, needs))

    _maybe_record("concat", tuple(ts), out, backward)
    return out


def slice_(a, key):
    """a[key] for any numpy key: slices, ints or integer arrays. The one
    gather: its backward scatter-adds, so a repeated index accumulates."""
    a = _as_tensor(a)
    out = Tensor(a.data[key])
    na = _tracked(a)

    def backward(g):
        if not na:
            return (None,)
        ga = np.zeros_like(a.data)
        np.add.at(ga, key, g)
        return (ga,)

    _maybe_record("slice", (a,), out, backward)
    return out


def embedding_lookup(table, ids):
    """Row gather: out[i...] = table[ids[i...]]. ids is a plain int array."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding ids out of range [0, {table.shape[0]})")
    return slice_(table, ids)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax(a, axis=-1):
    a = _as_tensor(a)
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)
    na = _tracked(a)

    def backward(g):
        if not na:
            return (None,)
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    _maybe_record("softmax", (a,), out, backward)
    return out


def log_softmax(a, axis=-1):
    a = _as_tensor(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    ls = shifted - lse
    out = Tensor(ls)
    na = _tracked(a)

    def backward(g):
        if not na:
            return (None,)
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)

    _maybe_record("log_softmax", (a,), out, backward)
    return out


# ---------------------------------------------------------------------------
# model-specific primitives
# ---------------------------------------------------------------------------

def cosine_distance(a, b, eps: float = 1e-8):
    """1 - sum(a * b) / (|a| |b| + eps) along the last axis in one node: the
    composite's ops, and its backward replayed bit for bit, sending to (b, b,
    a, a, a, b) in its order. At an all-zero row of a, a's gradient is -b/eps,
    the guarded expression's exact derivative (sqrt passes back 0 at 0)."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    ab = ad * bd
    dot = ab.sum(axis=-1)
    dt = dot.dtype
    na, nb = np.sqrt((ad * ad).sum(axis=-1)), np.sqrt((bd * bd).sum(axis=-1))
    den = na * nb + dt.type(eps)
    out = Tensor(dt.type(1.0) - dot / den)
    ab_shape, ta, tb = ab.shape, _tracked(a), _tracked(b)

    def sum_grad(g, shape, dtype):  # sum's backward over the last axis
        return np.broadcast_to(g[..., None], shape).astype(dtype, copy=False).copy()

    def norm_grad(g, r, t):  # through sqrt (0 where r is 0), sum and t * t
        return sum_grad(g / (2.0 * np.where(r > 0, r, np.inf)), t.shape, t.dtype) * t

    def backward(g):
        g = -g
        g_den = -g * dot / (den * den)
        gb = norm_grad(_unbroadcast(g_den * na, nb.shape), nb, bd) if tb else None
        ga = norm_grad(_unbroadcast(g_den * nb, na.shape), na, ad) if ta else None
        g_ab = sum_grad(g / den, ab_shape, dt)
        return (gb, gb, ga, ga, _unbroadcast(g_ab * bd, ad.shape) if ta else None,
                _unbroadcast(g_ab * ad, bd.shape) if tb else None)

    _maybe_record("cosine_distance", (b, b, a, a, a, b), out, backward)
    return out


def ste_threshold(a, theta: float):
    """Hard threshold with a straight-through gradient.

    Forward: 1 where a >= theta else 0. Backward: upstream gradient passes
    through unchanged, as if the op were the identity.
    """
    a = _as_tensor(a)
    if not (0.0 < theta < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {theta}")
    out = Tensor((a.data >= theta).astype(a.dtype))
    na = _tracked(a)

    def backward(g):
        return (g.copy() if na else None,)

    _maybe_record("ste_threshold", (a,), out, backward)
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis in one
    node: the composite's ops, and its backward replayed bit for bit, sending
    to (x, x, gain, bias) in its order."""
    x = _as_tensor(x)
    gain, bias = _as_tensor(gain, like=x), _as_tensor(bias, like=x)
    xd, n = x.data, x.shape[-1]
    mu = xd.sum(axis=-1, keepdims=True) / n
    c = xd - mu
    var = (c * c).sum(axis=-1, keepdims=True) / n
    r = np.sqrt(var + var.dtype.type(eps))
    inv = c / r
    scaled = inv * gain.data
    out = Tensor(scaled + bias.data)
    scaled_shape, nx, ng, nbias = scaled.shape, _tracked(x), _tracked(gain), _tracked(bias)

    def mean_grad(g):  # mean's backward over the last axis
        return (np.broadcast_to(g, xd.shape) / n).astype(xd.dtype, copy=False)

    def backward(g):
        gb = _unbroadcast(g, bias.data.shape) if nbias else None
        g = _unbroadcast(g, scaled_shape)
        gg = _unbroadcast(g * inv, gain.data.shape) if ng else None
        if not nx:
            return None, None, gg, gb
        g = _unbroadcast(g * gain.data, inv.shape)
        g_r = _unbroadcast(-g * c / (r * r), r.shape)
        g_cc = mean_grad(g_r / (2.0 * np.where(r > 0, r, np.inf))) * c
        g_c = g / r + g_cc + g_cc  # c feeds the div, then c * c twice
        return g_c, mean_grad(_unbroadcast(-g_c, mu.shape)), gg, gb

    _maybe_record("layer_norm", (x, x, gain, bias), out, backward)
    return out


def attention(q, k, v, allowed=None, heads=1):
    """softmax(q k^T / sqrt(d_k) + mask) v over the last two axes in one node.

    allowed: boolean array broadcastable to the scores; keys where it is
    false get MASK_NEG, so their weight underflows to exactly 0. With heads
    > 1, q, k and v are [B, L, d]: each is split into heads of d / heads
    columns, and the heads' outputs are merged back into [B, Lq, d]. The
    composite's ops run in order, and its backward is replayed bit for bit,
    sending to (v, q, k), or with heads (v, k, q), the order its nodes did."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    split = merge = lambda t: t
    if heads > 1:  # the decoder's head views: [B, L, d] <-> [B, heads, L, d / heads]
        split = lambda t: t.reshape(*t.shape[:2], heads, -1).transpose(0, 2, 1, 3)
        merge = lambda t: t.transpose(0, 2, 1, 3).reshape(t.shape[0], t.shape[2], -1)
    qd, kd, vd = split(q.data), split(k.data), split(v.data)
    swap = tuple(range(kd.ndim - 2)) + (kd.ndim - 1, kd.ndim - 2)
    kt = kd.transpose(swap)
    m = np.matmul(qd, kt)
    c = np.asarray(1.0 / np.sqrt(kd.shape[-1]), dtype=m.dtype)
    x = m * c
    if allowed is not None:
        x = x + np.where(allowed, 0.0, MASK_NEG).astype(x.dtype)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(merge(np.matmul(p, vd)))
    tq, tk, tv = _tracked(q), _tracked(k), _tracked(v)

    def backward(g):
        gp, gv = _matmul_grads(split(g), p, vd, tq or tk, tv)
        gq = gk = None
        if tq or tk:
            gx = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
            gq, gk = _matmul_grads(_unbroadcast(gx, m.shape) * c, qd, kt, tq, tk)
            gk = gk.transpose(swap) if tk else None
        gv, gq, gk = (None if t is None else merge(t) for t in (gv, gq, gk))
        return (gv, gq, gk) if heads == 1 else (gv, gk, gq)

    _maybe_record("attention", (v, q, k) if heads == 1 else (v, k, q), out, backward)
    return out
