"""AdamW with decoupled weight decay and the linear warmup/decay schedule.

Decay is skipped for biases, layer-norm gains and the query bank;
everything else decays toward zero at wd*lr per step, applied outside the
moment estimates.
"""

from __future__ import annotations

import numpy as np

from .config import Config
from .params import ParamStore

# leaf names of biases and layer-norm gains; by name, not rank, because the
# stacked expert biases are [E, 1, n] (and LoRA's "b" is a matrix)
_EXEMPT_LEAVES = ("bias", "gain", "b1", "b2")


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
    rank."""

    def __init__(self, store: ParamStore, cfg: Config):
        self.store = store
        self.cfg = cfg
        self.step_count = 0
        self.m = {}
        self.v = {}
        self.exempt = set()
        for name, t in store.trainable_items():
            self.m[name] = np.zeros_like(t.data)
            self.v[name] = np.zeros_like(t.data)
            if (name.rsplit(".", 1)[-1] in _EXEMPT_LEAVES
                    or name == "qformer.query"):
                self.exempt.add(name)

    def step(self, lr: float):
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        for name, p in self.store.trainable_items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)
            if name not in self.exempt:
                update = update + cfg.weight_decay * p.data
            p.data -= lr * update
