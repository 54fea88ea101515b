"""Reverse-mode automatic differentiation on a flat tape.

Tensors wrap numpy arrays. Each primitive computes its value and, only
while a Tape is active, hands `Tape._record` its inputs, its output and a
factory for its backward. The tape derives each input's ref once: the leaf
Tensor for an input with requires_grad, the index of the node that produced
an interior input, or None for a constant. If any ref is not None it
appends one node (op name, input refs, output record, backward), calling
the factory with the inputs' tracked flags, so each closure keeps only the
arrays its backward reads for the tracked inputs: an activation that feeds
only frozen weights is freed as soon as the forward drops it. The output
record keeps the output's byte count, not its values. A Tensor carries the
serial of the tape and the index of the node that produced it, so the tape
holds no interior Tensor. Off the tape, a primitive keeps nothing.

Tape.backward replays the nodes in strictly reverse append order,
accumulating gradients additively whenever a tensor feeds several consumers.
Gradients are added in place only into the `grad` of leaf tensors created
with requires_grad=True; all else gets gradient transiently or not at all.
A tape is single use: backward frees each node as it replays it. No node
keeps an output's values, so `first_nonfinite` names the first op with a
non-finite output by replaying a forward on a tape that checks each one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Additive pre-softmax mask value. Finite so backward stays NaN-free, but
# large enough that exp() underflows to exactly 0.0 after max subtraction.
MASK_NEG = -1e9


class ShapeError(ValueError):
    """Operand shapes violate an op's shape rule."""


_TAPE: "Tape | None" = None
_SERIALS = itertools.count()  # one per tape, and per spent tape: never reused

# the dtypes a Tensor keeps; anything else is cast to float64
_FLOAT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))


class _Output:
    """What a node keeps of its output: its byte count. Like the Tensor it
    stands for, it answers `.data.nbytes`."""

    __slots__ = ("nbytes",)

    def __init__(self, a: np.ndarray):
        self.nbytes = a.nbytes

    @property
    def data(self):
        return self


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self.nodes = []          # (op_name, input refs, _Output, backward_fn)
        self._serial = next(_SERIALS)  # carried by each Tensor produced here
        self._spent = False      # set by backward, which consumes the nodes
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

    def _ref(self, t: "Tensor"):
        """A node's reference to input t: t itself if it has requires_grad,
        else the index of the node here that produced it, else None."""
        if t.requires_grad:
            return t
        return t._node if t._tape == self._serial else None

    def _record(self, op, inputs, out, grads):
        """Append op's node if any input is tracked, with backward
        grads(*tracked): one flag per input, in the node's order, and a
        closure g -> one gradient per input, None where one is untracked."""
        refs = list(map(self._ref, inputs))
        if refs.count(None) == len(refs):
            return
        out._tape, out._node = self._serial, len(self.nodes)
        backward = grads(*[ref is not None for ref in refs])
        self.nodes.append((op, refs, _Output(out.data), backward))

    def backward(self, root: "Tensor"):
        """Propagate d(root)/d(leaf) into every requires_grad leaf.

        root is usually a scalar loss; for non-scalars the seed gradient is
        all-ones. Traversal is strictly reverse append order, so every
        consumer of a node's output has already deposited its contribution
        by the time that node is replayed; interior gradients are keyed by
        node index. Leaf contributions add in place into `grad` (zeros when
        None): their direct sums, but a lone -0.0 is +0.0. A node holds its
        input refs, a byte-count record of its output and a closure over only
        the arrays its backward reads; each is popped before earlier nodes run.
        The spent tape raises RuntimeError if replayed again, and nothing
        produced on it counts as tracked any more.
        """
        if self._spent:
            raise RuntimeError("tape was already replayed; record a new one")
        self._spent = True
        interior = {}

        def send(ref, g):
            if type(ref) is int:
                prev = interior.get(ref)
                interior[ref] = g if prev is None else prev + g
            elif ref is not None:  # a leaf with requires_grad
                if ref.grad is None:
                    ref.grad = np.zeros_like(ref.data)
                ref.grad += g
            # constants (None) get nothing

        send(self._ref(root), np.ones_like(root.data))
        nodes = self.nodes
        while nodes:
            _op, refs, _out, backward = nodes.pop()
            g = interior.pop(len(nodes), None)
            if g is None:
                continue
            for ref, gt in zip(refs, backward(g)):
                if gt is not None:
                    send(ref, gt)
        self._serial = next(_SERIALS)


class _NonfiniteWatch(Tape):
    """A tape that notes the first op whose output has a non-finite entry."""

    culprit = None

    def _record(self, op, inputs, out, grads):
        super()._record(op, inputs, out, grads)
        if (self.culprit is None and out._tape == self._serial
                and not np.all(np.isfinite(out.data))):
            self.culprit = op


def first_nonfinite(forward):
    """Name of the earliest op whose output has a non-finite entry when
    forward() runs on a fresh tape, or None. No tape keeps output values,
    so a diagnosis replays the forward: it must repeat the one diagnosed
    (same parameters, inputs and rng)."""
    with _NonfiniteWatch() as tape:
        forward()
    return tape.culprit


class Tensor:
    """Dense n-d value: row-major numpy array plus gradient bookkeeping.
    A Tensor produced on a tape carries that tape's serial and its node's
    index, not the tape itself."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = self._node = None

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


def _operands(a, b):
    """a and b as Tensors; a python scalar takes the other side's dtype."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    return a, _as_tensor(b, like=a)


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
    a, b = _operands(a, b)
    out = Tensor(a.data + b.data)
    if _TAPE is not None:
        def grads(na, nb):
            sa, sb = a.shape, b.shape
            return lambda g: (_unbroadcast(g, sa) if na else None,
                              _unbroadcast(g, sb) if nb else None)

        _TAPE._record("add", (a, b), out, grads)
    return out


def sub(a, b):
    a, b = _operands(a, b)
    out = Tensor(a.data - b.data)
    if _TAPE is not None:
        def grads(na, nb):
            sa, sb = a.shape, b.shape
            return lambda g: (_unbroadcast(g, sa) if na else None,
                              _unbroadcast(-g, sb) if nb else None)

        _TAPE._record("sub", (a, b), out, grads)
    return out


def mul(a, b):
    """a * b; either side may be a python scalar, cast to the other's dtype."""
    a, b = _operands(a, b)
    out = Tensor(a.data * b.data)
    if _TAPE is not None:
        def grads(na, nb):
            sa, sb = a.shape, b.shape
            ad, bd = a.data if nb else None, b.data if na else None  # each for the other
            return lambda g: (_unbroadcast(g * bd, sa) if na else None,
                              _unbroadcast(g * ad, sb) if nb else None)

        _TAPE._record("mul", (a, b), out, grads)
    return out


def div(a, b):
    a, b = _operands(a, b)
    out = Tensor(a.data / b.data)
    if _TAPE is not None:
        def grads(na, nb):
            sa, sb = a.shape, b.shape
            ad, bd = a.data if nb else None, b.data
            return lambda g: (_unbroadcast(g / bd, sa) if na else None,
                              _unbroadcast(-g * ad / (bd * bd), sb) if nb else None)

        _TAPE._record("div", (a, b), out, grads)
    return out


def relu(a):
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0))
    if _TAPE is not None:
        def grads(_):
            mask = a.data > 0  # subgradient at 0 is 0
            return lambda g: (g * mask,)

        _TAPE._record("relu", (a,), out, grads)
    return out


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    # stable in both tails
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    s = s.astype(x.dtype, copy=False)
    out = Tensor(s)
    if _TAPE is not None:
        _TAPE._record("sigmoid", (a,), out, lambda _: lambda g: (g * s * (1.0 - s),))
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
    if _TAPE is not None:
        def grads(_):
            shape, dtype = a.shape, a.dtype
            return lambda g: (
                _restore_axes(g, shape, axis, keepdims).astype(dtype, copy=False).copy(),)

        _TAPE._record("sum", (a,), out, grads)
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
    if _TAPE is not None:
        def grads(_):
            shape, dtype = a.shape, a.dtype
            return lambda g: (
                (_restore_axes(g, shape, axis, keepdims) / n).astype(dtype, copy=False),)

        _TAPE._record("mean", (a,), out, grads)
    return out


# ---------------------------------------------------------------------------
# linear algebra / structure
# ---------------------------------------------------------------------------

def _matmul_operands(a, b):
    a, b = _operands(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    return a, b


def _matmul(a, b):
    """np.matmul of arrays, but one GEMM, not one per matrix, for a rank-2 b and len(a) > 1."""
    if len(a) > 1 and b.ndim == 2 and a.ndim > 2:  # cheapest first: decode's a are [1, L, k]
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(*a.shape[:-1], b.shape[-1])
    return np.matmul(a, b)


def _matmul_grads(a, b, na, nb):
    """Backward of the arrays' product a @ b: g -> (d a, d b), None where
    not wanted (na, nb). It keeps b only for d a and a only for d b. A
    rank-2 operand shared by every batch entry of the other contracts the
    batch axes in one GEMM."""
    a_shape, b_shape = a.shape, b.shape
    a, b = a if nb else None, b if na else None

    def backward(g):
        ga = gb = None
        if na:
            if len(a_shape) == 2 and b.ndim > 2:
                batch_and_n = tuple(range(b.ndim - 2)) + (b.ndim - 1,)
                ga = np.tensordot(g, b, axes=(batch_and_n, batch_and_n))
            else:
                ga = _unbroadcast(_matmul(g, b.swapaxes(-1, -2)), a_shape)
        if nb:
            if len(b_shape) == 2 and a.ndim > 2:
                gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(a.swapaxes(-1, -2), g), b_shape)
        return ga, gb

    return backward


def matmul(a, b):
    a, b = _matmul_operands(a, b)
    out = Tensor(_matmul(a.data, b.data))
    if _TAPE is not None:
        _TAPE._record("matmul", (a, b), out,
                      lambda na, nb: _matmul_grads(a.data, b.data, na, nb))
    return out


def linear(x, w, b):
    """x @ w + b in one node, bit for bit the matmul and add it replaces:
    the add's gradient reaches b, then the matmul's reaches x and w."""
    x, w = _matmul_operands(x, w)
    b = _as_tensor(b, like=x)
    y = _matmul(x.data, w.data)
    out = Tensor(y + b.data)
    if _TAPE is not None:
        def grads(nx, nw, nbias):
            y_shape, b_shape, xw = y.shape, b.shape, _matmul_grads(x.data, w.data, nx, nw)
            return lambda g: (*xw(_unbroadcast(g, y_shape)),
                              _unbroadcast(g, b_shape) if nbias else None)

        _TAPE._record("linear", (x, w, b), out, grads)
    return out


def transpose(a, axes=None):
    a = _as_tensor(a)
    out = Tensor(a.data.transpose(axes))
    if _TAPE is not None:
        def grads(_):
            def backward(g):
                if axes is None:
                    return (g.transpose(),)
                n = len(axes)
                return (g.transpose(sorted(range(n), key=lambda i: axes[i] % n)),)
            return backward

        _TAPE._record("transpose", (a,), out, grads)
    return out


def reshape(a, shape):
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    if _TAPE is not None:
        def grads(_):
            src_shape = a.shape
            return lambda g: (g.reshape(src_shape),)

        _TAPE._record("reshape", (a,), out, grads)
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
    if _TAPE is not None:
        def grads(*needs):
            sizes = [t.shape[axis % rank] for t in ts]

            def backward(g):
                pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
                return tuple(p if n else None for p, n in zip(pieces, needs))
            return backward

        _TAPE._record("concat", tuple(ts), out, grads)
    return out


def slice_(a, key):
    """a[key] for any numpy key: slices, ints or integer arrays. The one
    gather: its backward scatter-adds, so a repeated index accumulates."""
    a = _as_tensor(a)
    out = Tensor(a.data[key])
    if _TAPE is not None:
        def grads(_):
            shape, dtype = a.shape, a.dtype
            basic = all(type(k) in (slice, int)
                        for k in (key if isinstance(key, tuple) else (key,)))

            def backward(g):
                ga = np.zeros(shape, dtype)
                if basic:  # slices and ints repeat no index: np.add.at's bytes, in place
                    ga[key] += g
                else:
                    np.add.at(ga, key, g)
                return (ga,)
            return backward

        _TAPE._record("slice", (a,), out, grads)
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
    if _TAPE is not None:
        _TAPE._record("softmax", (a,), out, lambda _: lambda g: (
            s * (g - (g * s).sum(axis=axis, keepdims=True)),))
    return out


def log_softmax(a, axis=-1):
    a = _as_tensor(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    ls = shifted - lse
    out = Tensor(ls)
    if _TAPE is not None:
        _TAPE._record("log_softmax", (a,), out, lambda _: lambda g: (
            g - np.exp(ls) * g.sum(axis=axis, keepdims=True),))
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
    if _TAPE is not None:
        def grads(tb, _tb, ta, *_):
            ab_shape = ab.shape

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
            return backward

        _TAPE._record("cosine_distance", (b, b, a, a, a, b), out, grads)
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
    if _TAPE is not None:
        _TAPE._record("ste_threshold", (a,), out, lambda _: lambda g: (g.copy(),))
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis in one
    node: the composite's ops, and its backward replayed bit for bit, sending
    to (x, x, gain, bias) in its order. Its backward keeps c and r, not x."""
    x = _as_tensor(x)
    gain, bias = _as_tensor(gain, like=x), _as_tensor(bias, like=x)
    xd, n = x.data, x.shape[-1]
    mu = xd.sum(axis=-1, keepdims=True) / n
    c = xd - mu
    var = (c * c).sum(axis=-1, keepdims=True) / n
    r = np.sqrt(var + var.dtype.type(eps))
    scaled = (c / r) * gain.data  # backward recomputes c / r instead of keeping it
    out = Tensor(scaled + bias.data)
    if _TAPE is not None:
        def grads(nx, _, ng, nbias):
            gd = gain.data if nx else None
            scaled_shape, gain_shape, bias_shape, mu_shape = (
                scaled.shape, gain.shape, bias.shape, mu.shape)

            def mean_grad(g):  # mean's backward over the last axis
                return (np.broadcast_to(g, c.shape) / n).astype(c.dtype, copy=False)

            def backward(g):
                gb = _unbroadcast(g, bias_shape) if nbias else None
                g = _unbroadcast(g, scaled_shape)
                gg = _unbroadcast(g * (c / r), gain_shape) if ng else None
                if not nx:
                    return None, None, gg, gb
                g = _unbroadcast(g * gd, c.shape)
                g_r = _unbroadcast(-g * c / (r * r), r.shape)
                g_cc = mean_grad(g_r / (2.0 * np.where(r > 0, r, np.inf))) * c
                g_c = g / r + g_cc + g_cc  # c feeds the div, then c * c twice
                return g_c, mean_grad(_unbroadcast(-g_c, mu_shape)), gg, gb
            return backward

        _TAPE._record("layer_norm", (x, x, gain, bias), out, grads)
    return out


def attention(q, k, v, allowed=None, heads=1):
    """softmax(q k^T / sqrt(d_k) + mask) v over the last two axes in one node.

    allowed: boolean array broadcastable to the scores; keys where it is
    false get MASK_NEG, so their weight underflows to exactly 0. With heads
    > 1, q, k and v are [B, L, d]: each is split into heads of d / heads
    columns, and the heads' outputs are merged back into [B, Lq, d]. The
    composite's ops run in order, and its backward is replayed bit for bit,
    sending to (v, q, k), or with heads (v, k, q), the order its nodes did.
    Its backward keeps the weights p, and q, k and v only where a gradient
    reads them."""
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
    if _TAPE is not None:
        def grads(tv, t1, t2):
            tq, tk = (t1, t2) if heads == 1 else (t2, t1)
            m_shape = m.shape  # all backward reads of the scores
            pv, qk = _matmul_grads(p, vd, tq or tk, tv), _matmul_grads(qd, kt, tq, tk)

            def backward(g):
                gp, gv = pv(split(g))
                gq = gk = None
                if tq or tk:
                    gx = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
                    gq, gk = qk(_unbroadcast(gx, m_shape) * c)
                    gk = gk.transpose(swap) if tk else None
                gv, gq, gk = (None if t is None else merge(t) for t in (gv, gq, gk))
                return (gv, gq, gk) if heads == 1 else (gv, gk, gq)
            return backward

        _TAPE._record("attention", (v, q, k) if heads == 1 else (v, k, q), out, grads)
    return out
