"""Window-level query transformer. A small bank of trainable query vectors
attends to each fixed-size window of fused encoder frames, so the output
length grows with the input: ceil(T/W) windows times N queries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, attention, concat, layer_norm, matmul, mul,
                       reshape)
from .config import Config
from .params import ParamStore, seeded_rng


@dataclass
class QueryFeatures:
    values: Tensor            # [B, n_windows * N, d_model]
    valid: np.ndarray         # [B, n_windows * N] 1.0 where the window has a real frame
    empty_windows: int        # windows with zero valid frames (diagnostic)


class WindowQFormer:
    def __init__(self, cfg: Config, store: ParamStore):
        self.cfg = cfg
        self.n_queries = cfg.n_queries
        self.window = cfg.window_frames
        d, dt = cfg.d_model, cfg.np_dtype
        rng = seeded_rng(cfg.model_seed, 201)

        def w(name, shape):
            return store.param(f"qformer.{name}", rng.standard_normal(shape) * 0.02, dt)

        def ln(name):
            return (store.param(f"qformer.{name}.gain", np.ones(d), dt),
                    store.param(f"qformer.{name}.bias", np.zeros(d), dt))

        self.query = w("query", (cfg.n_queries, d))
        self.self_ln = ln("self_ln")
        self.self_wq = w("self.wq", (d, d))
        self.self_wk = w("self.wk", (d, d))
        self.self_wv = w("self.wv", (d, d))
        self.self_wo = w("self.wo", (d, d))
        self.cross_ln = ln("cross_ln")
        self.cross_wq = w("cross.wq", (d, d))
        self.cross_wk = w("cross.wk", (d, d))
        self.cross_wv = w("cross.wv", (d, d))
        self.cross_wo = w("cross.wo", (d, d))
        self.out_ln = ln("out_ln")

    def n_windows(self, t: int) -> int:
        return -(-t // self.window)

    def forward(self, proj_u: Tensor, mask: np.ndarray) -> QueryFeatures:
        """proj_u: [B, T, d_model]; mask: [B, T] with 1.0 at valid frames."""
        batch, t, d = proj_u.shape
        if t < 1:
            raise ValueError("qformer requires at least one input frame")
        w_len = self.window
        n_win = self.n_windows(t)
        n_q = self.n_queries
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
        q1 = add(self.query, matmul(attention(matmul(h, self.self_wq),
                                              matmul(h, self.self_wk),
                                              matmul(h, self.self_wv)),
                                    self.self_wo))

        if w_len > 1:
            ctx = attention(matmul(layer_norm(q1, *self.cross_ln), self.cross_wq),
                            matmul(u_w, self.cross_wk), matmul(u_w, self.cross_wv),
                            allowed=(mask_w > 0)[:, None, :])
        else:  # one key per window weighs exactly 1: p @ v with p = 1; q and k get 0
            ctx = matmul(Tensor(np.ones((batch * n_win, n_q, 1), dtype=dt)),
                         matmul(u_w, self.cross_wv))
        attended = matmul(ctx, self.cross_wo)
        # empty windows contribute nothing: the self-attended query passes through
        q2 = add(q1, mul(attended, Tensor(has_valid[:, None, None])))

        z = layer_norm(q2, *self.out_ln)
        z = reshape(z, (batch, n_win * n_q, d))
        valid = np.repeat(has_valid.reshape(batch, n_win), n_q, axis=1)
        return QueryFeatures(values=z, valid=valid, empty_windows=empty)
