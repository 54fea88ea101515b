"""Named parameter registry with per-name trainable flags."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class ParamStore:
    """Map from dotted path to Tensor. `param` is the only way to declare a
    parameter. A tensor's requires_grad flag is its trainable flag; frozen
    entries must stay bit-identical across training."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._flat = ([], None)  # (names, (data, grad)) of the last `flatten`

    def param(self, name: str, value, dtype, trainable: bool = True) -> Tensor:
        """Declare `name` as `value` cast to `dtype`; a repeated name raises."""
        if name in self._params:
            raise ValueError(f"parameter name already registered: {name}")
        t = self._params[name] = Tensor(value, requires_grad=trainable, dtype=dtype)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def trainable_items(self):
        return [(n, p) for n, p in self._params.items() if p.requires_grad]

    def frozen_items(self):
        return [(n, p) for n, p in self._params.items() if not p.requires_grad]

    def trainable_count(self) -> int:
        return sum(p.size for _, p in self.trainable_items())

    def flatten(self, names: list) -> tuple:
        """Move the named tensors' data and grads (zero if None), in order,
        into two flat buffers that they then view; same names, same pair."""
        if self._flat[0] == names:
            return self._flat[1]
        tensors = [self._params[n] for n in names]
        buf = np.concatenate([t.data.ravel() for t in tensors] or [np.empty(0)])
        grad = np.empty_like(buf)
        lo = 0
        for t in tensors:
            t.data = buf[lo:lo + t.size].reshape(t.shape)
            grad[lo:lo + t.size] = 0 if t.grad is None else t.grad.ravel()
            t.grad = grad[lo:lo + t.size].reshape(t.shape)
            lo += t.size
        self._flat = (list(names), (buf, grad))
        return buf, grad


def seeded_rng(*key) -> np.random.Generator:
    """Deterministic generator from an integer key path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))
