"""Window-level query transformer. A small bank of trainable query vectors
attends to each fixed-size window of fused encoder frames, so the output
length grows with the input: ceil(T/W) windows times N queries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, attention, concat, layer_norm, linear, matmul, mul,
                       reshape)
from .config import Config
from .params import ParamStore, seeded_rng


@dataclass
class QueryFeatures:
    values: Tensor            # [B, n_windows * N, d_model]
    valid: np.ndarray         # [B, n_windows * N] 1.0 where the window has a real frame
    empty_windows: int        # windows with zero valid frames (diagnostic)


def attend(query, kv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, allowed=None):
    """Attention of query() @ wq over kv @ wk, kv @ wv. One key weighs exactly 1 (its q
    and k gradients are 0): kv @ wv alone is that, bit for bit, and query() never runs."""
    if kv.shape[-2] == 1:
        return matmul(kv, wv)
    return attention(matmul(query(), wq), matmul(kv, wk), matmul(kv, wv), allowed)


class WindowQFormer:
    def __init__(self, cfg: Config, store: ParamStore):
        self.cfg = cfg
        d, dt = cfg.d_model, cfg.np_dtype
        rng = seeded_rng(cfg.model_seed, 201)

        def w(name, shape, read=True):  # drawn even if unread: later draws keep their bits
            value = rng.standard_normal(shape) * 0.02
            return store.param(f"qformer.{name}", value, dt) if read else None

        def ln(name, read=True):
            return (store.param(f"qformer.{name}.gain", np.ones(d), dt),
                    store.param(f"qformer.{name}.bias", np.zeros(d), dt)) if read else None

        self.query = w("query", (cfg.n_queries, d))
        self.self_ln = ln("self_ln")
        self.self_wq = w("self.wq", (d, d), cfg.n_queries > 1)
        self.self_wk = w("self.wk", (d, d), cfg.n_queries > 1)
        self.self_wv = w("self.wv", (d, d))
        self.self_wo = w("self.wo", (d, d))
        self.cross_ln = ln("cross_ln", cfg.window_frames > 1)
        self.cross_wq = w("cross.wq", (d, d), cfg.window_frames > 1)
        self.cross_wk = w("cross.wk", (d, d), cfg.window_frames > 1)
        self.cross_wv = w("cross.wv", (d, d))
        self.cross_wo = w("cross.wo", (d, d))
        self.out_ln = ln("out_ln")

    def forward(self, proj_u: Tensor, mask: np.ndarray) -> QueryFeatures:
        """proj_u: [B, T, d_model]; mask: [B, T] with 1.0 at valid frames."""
        batch, t, d = proj_u.shape
        if t < 1:
            raise ValueError("qformer requires at least one input frame")
        w_len, n_q = self.cfg.window_frames, self.cfg.n_queries
        n_win = -(-t // w_len)
        dt = proj_u.dtype

        pad = n_win * w_len - t
        if pad:
            zeros = Tensor(np.zeros((batch, pad, d), dtype=dt))
            proj_u = concat([proj_u, zeros], axis=1)
            mask = np.concatenate([mask, np.zeros((batch, pad), dtype=mask.dtype)],
                                  axis=1)
        u_w = reshape(proj_u, (batch * n_win, w_len, d))
        mask_w = mask.reshape(batch * n_win, w_len)
        has_valid = (mask_w.sum(axis=1) > 0).astype(dt)
        empty = int((has_valid == 0).sum())

        # The query side does not depend on the input: run it once on
        # [n_q, d] and let it broadcast against the [B*n_win, ...] windows.
        h = layer_norm(self.query, *self.self_ln)
        q1 = linear(attend(lambda: h, h, self.self_wq, self.self_wk, self.self_wv),
                    self.self_wo, self.query)  # query + attention @ wo
        ctx = attend(lambda: layer_norm(q1, *self.cross_ln), u_w, self.cross_wq,
                     self.cross_wk, self.cross_wv, allowed=(mask_w > 0)[:, None, :])
        # empty windows contribute nothing: the self-attended query passes through
        keep = np.broadcast_to(has_valid[:, None, None], (batch * n_win, n_q, 1))
        q2 = linear(mul(ctx, Tensor(keep)), self.cross_wo, q1)

        z = layer_norm(q2, *self.out_ln)
        z = reshape(z, (batch, n_win * n_q, d))
        valid = np.repeat(has_valid.reshape(batch, n_win), n_q, axis=1)
        return QueryFeatures(values=z, valid=valid, empty_windows=empty)
