"""AdamW with decoupled weight decay and the linear warmup/decay schedule.

Decay is skipped for biases, layer-norm gains and the query bank;
everything else decays toward zero at wd*lr per step, applied outside the
moment estimates.
"""

from __future__ import annotations

import itertools

import numpy as np

from .config import Config
from .params import ParamStore

# leaf names of biases and layer-norm gains; by name, not rank, because the
# stacked expert biases are [E, 1, n] (and LoRA's "b" is a matrix)
_EXEMPT_LEAVES = ("bias", "gain", "b1", "b2")

_CHUNK = 1 << 14  # elements per pass of the update: small scratch buffers


def lr_at(step: int, total: int, peak: float, warm_ratio: float) -> float:
    """Linear 0 -> peak over floor(warm_ratio * total) steps, then linear
    peak -> 0 over the remainder."""
    if total <= 0:
        raise ValueError(f"total steps must be positive, got {total}")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    warm = int(warm_ratio * total)
    if warm > 0 and step <= warm:
        return peak * step / warm
    return peak * (total - step) / (total - warm)


class AdamW:
    """A trainable skips weight decay iff its leaf name (after the last ".")
    is one of `_EXEMPT_LEAVES` or it is `qformer.query`. A module that adds
    a bias or gain must name it so; any other name decays, whatever its
    rank.

    From the first `gradient()` on, the trainables' data and grads view the
    store's flat buffers, decayed first, and the tape adds into the grads in
    place; `m` and `v` map names to views of flat moments, and the chunked
    update keeps the per-tensor formula's operations in order, bit for bit."""

    def __init__(self, store: ParamStore, cfg: Config):
        self.store = store
        self.cfg = cfg
        self.step_count = 0
        items = store.trainable_items()
        self.exempt = {name for name, _ in items
                       if name.rsplit(".", 1)[-1] in _EXEMPT_LEAVES
                       or name == "qformer.query"}
        decayed = [n for n, _ in items if n not in self.exempt]
        self._order = decayed + [n for n, _ in items if n in self.exempt]
        self.n_decay = sum(store[n].size for n in decayed)  # decay covers flat[:n_decay]
        ends = list(itertools.accumulate(store[n].size for n in self._order))
        segment = {n: slice(e - store[n].size, e) for n, e in zip(self._order, ends)}
        # an optimizer that never steps (one built to write a checkpoint)
        # never flattens the store; np.zeros can leave pages untouched
        size, dtype = (ends[-1], items[0][1].dtype) if items else (0, np.float32)
        self._m, self._v = np.zeros(size, dtype), np.zeros(size, dtype)
        self.m = {n: self._m[segment[n]].reshape(p.shape) for n, p in items}
        self.v = {n: self._v[segment[n]].reshape(p.shape) for n, p in items}
        self.flat = self._grad = self._scratch = None

    def gradient(self) -> np.ndarray:
        """The flat gradient the trainables' grads view. The first call
        flattens the store; made between the first forward and its backward,
        which frees the tape, it puts both buffers atop the heap that forward
        grew, so glibc stops trimming it."""
        if self.flat is None:
            self.flat, self._grad = self.store.flatten(self._order)
            self._scratch = np.empty((2, min(_CHUNK, self.flat.size)), self.flat.dtype)
        return self._grad

    def zero_grad(self):
        """Zero the trainables' grads with one fill; with none set, do nothing."""
        if self.flat is not None or any(self.store[n].grad is not None for n in self._order):
            self.gradient().fill(0)

    def step(self, lr: float):
        """One update from the trainables' gradients."""
        grad = self.gradient()
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        for lo in range(0, self.flat.size, _CHUNK):
            g, m, v, p = (a[lo:lo + _CHUNK] for a in (grad, self._m, self._v, self.flat))
            tmp, update = self._scratch[:, :g.size]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=tmp)
            v *= b2
            v += np.multiply(np.multiply(g, 1.0 - b2, out=tmp), g, out=tmp)
            # update = (m / c1) / (sqrt(v / c2) + eps), + wd * p where decayed
            np.add(np.sqrt(np.divide(v, c2, out=tmp), out=tmp), cfg.adam_eps, out=tmp)
            np.divide(np.divide(m, c1, out=update), tmp, out=update)
            k = min(max(self.n_decay - lo, 0), g.size)
            update[:k] += np.multiply(p[:k], cfg.weight_decay, out=tmp[:k])
            p -= np.multiply(update, lr, out=update)
