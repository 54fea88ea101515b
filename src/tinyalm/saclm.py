"""Semantic contrastive loss over projected audio features: score each frame
against the time-aligned target-text embedding, select frames by hard
threshold (straight-through gradient), aggregate the survivors into one
vector, and pull it toward the matching text while pushing it from an
in-batch negative. A sparsity term keeps the scores low."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, concat, cosine_distance, div, linear,
                       matmul, mean, mul, relu, reshape, sigmoid,
                       slice_, ste_threshold, sub, sum_)
from .config import Config, ConfigError
from .params import ParamStore, seeded_rng

EPS_AGG = 1e-8  # keeps aggregate's division finite on a row whose weights are all 0


@dataclass
class SaclmOutput:
    scores: Tensor          # S [B, T_a] in (0,1)
    decisions: Tensor       # D [B, T_a] in {0,1}
    aggregated: Tensor      # phi' [B, d_model]
    loss_triplet: Tensor    # scalar
    loss_sparsity: Tensor   # scalar
    loss_sac: Tensor        # scalar
    fallback_count: int     # rows where no score cleared the threshold
    negative_perm: np.ndarray


def derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sattolo's algorithm: a uniformly random cyclic permutation, which by
    construction has no fixed points."""
    if n < 2:
        raise ConfigError("negative sampling needs batch size >= 2")
    arr = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i))
        arr[i], arr[j] = arr[j], arr[i]
    return arr


class Saclm:
    def __init__(self, cfg: Config, store: ParamStore):
        self.cfg = cfg
        d, hid, dt = cfg.d_model, cfg.score_hidden, cfg.np_dtype
        rng = seeded_rng(cfg.model_seed, 400)

        def reg(name, arr):
            return store.param(f"saclm.{name}", arr, dt)

        self.score_w1 = reg("score.w1", rng.standard_normal((2 * d, hid)) / np.sqrt(2 * d))
        self.score_b1 = reg("score.b1", np.zeros(hid))
        self.score_w2 = reg("score.w2", rng.standard_normal((hid, 1)) / np.sqrt(hid))
        self.score_b2 = reg("score.b2", np.zeros(1))
        ah = cfg.agg_hidden
        self.agg_w1 = reg("agg.w1", rng.standard_normal((d, ah)) / np.sqrt(d))
        self.agg_b1 = reg("agg.b1", np.zeros(ah))
        self.agg_w2 = reg("agg.w2", rng.standard_normal((ah, d)) / np.sqrt(ah))
        self.agg_b2 = reg("agg.b2", np.zeros(d))

    def align_text(self, text: Tensor, lengths, t_a: int) -> Tensor:
        """Resample each example's first lengths[b] text rows to t_a rows.

        text: [B, T_t, d], right-padded. One constant [B, t_a, T_t] linear
        resampling map whose padded columns are zero, so padding never
        reaches the result. Row b samples at numpy's linspace(0, n_b - 1,
        t_a), bit for bit: i times the step, the endpoint exact when t_a > 1.
        That is the identity when t_a == n_b, constant replication when n_b
        == 1.
        """
        n = np.asarray(lengths)[:, None]
        pos = np.arange(t_a) * ((n - 1.0) / max(t_a - 1, 1))
        if t_a > 1:
            pos[:, -1] = n[:, 0] - 1.0
        lo = np.minimum(np.floor(pos).astype(int), n - 1)
        hi = np.minimum(lo + 1, n - 1)
        frac = (pos - lo).astype(text.dtype)
        w = np.zeros((text.shape[0], t_a, text.shape[1]), dtype=text.dtype)
        rows = tuple(np.indices(lo.shape))
        w[(*rows, lo)] = 1.0 - frac
        w[(*rows, hi)] += frac   # where hi == lo, frac is 0
        return matmul(Tensor(w), text)

    def score(self, phi: Tensor, aligned: Tensor) -> Tensor:
        b, t_a, _ = phi.shape
        x = concat([phi, aligned], axis=-1)
        h = relu(linear(x, self.score_w1, self.score_b1))
        s = sigmoid(linear(h, self.score_w2, self.score_b2))
        return reshape(s, (b, t_a))

    def decide(self, s: Tensor):
        d = ste_threshold(s, self.cfg.threshold)
        row_sums = d.data.sum(axis=1)
        empty = np.where(row_sums == 0)[0]
        if empty.size:
            fb = np.zeros_like(d.data)
            fb[empty, s.data[empty].argmax(axis=1)] = 1.0
            d = add(d, Tensor(fb))
        return d, int(empty.size)

    def agg_net(self, phi: Tensor) -> Tensor:
        return linear(relu(linear(phi, self.agg_w1, self.agg_b1)),
                      self.agg_w2, self.agg_b2)

    def aggregate(self, phi: Tensor, s: Tensor, d: Tensor) -> Tensor:
        """Score-weighted mean of the selected frames' aggregated vectors."""
        b, t_a, _ = phi.shape
        w = reshape(mul(d, s), (b, t_a, 1))
        num = sum_(mul(self.agg_net(phi), w), axis=1)
        return div(num, add(sum_(w, axis=1), EPS_AGG))

    def sample_negatives(self, pooled: Tensor, rng: np.random.Generator):
        perm = derangement(pooled.shape[0], rng)
        return slice_(pooled, (perm,)), perm

    def triplet(self, phi_p: Tensor, t_pos: Tensor, t_neg: Tensor) -> Tensor:
        """Mean over rows of max(0, d(phi_p, t_pos) - d(phi_p, t_neg) + m)."""
        b, d = t_pos.shape
        texts = concat([reshape(t_pos, (1, b, d)), reshape(t_neg, (1, b, d))])
        # one [2, B] distance call: the anchor's norm is computed once
        dist = cosine_distance(phi_p, texts)
        gap = sub(slice_(dist, 0), slice_(dist, 1))
        return mean(relu(add(gap, self.cfg.margin)))

    def forward(self, phi: Tensor, text: Tensor, lengths,
                rng: np.random.Generator, decisions=None) -> SaclmOutput:
        """phi: [B, T_a, d_model]; text: [B, T_t, d_model] target-text
        embeddings right-padded past each example's length in `lengths`.

        `decisions` pins D to a fixed array instead of thresholding S. The
        straight-through estimator's backward is the identity, not the true
        (zero a.e.) derivative, so finite-difference checks of the full loss
        must hold D constant; everything else remains exactly differentiable.
        """
        b = phi.shape[0]
        if b < 2:
            raise ConfigError("SACLM requires batch size >= 2 for in-batch "
                              "negatives")
        aligned = self.align_text(text, lengths, phi.shape[1])
        s = self.score(phi, aligned)
        if decisions is not None:
            d, fallback = Tensor(np.asarray(decisions, dtype=s.dtype)), 0
        else:
            d, fallback = self.decide(s)
        phi_p = self.aggregate(phi, s, d)
        n = np.asarray(lengths)[:, None, None]
        pool = (np.arange(text.shape[1]) < n) / n   # [B, 1, T_t] row of 1/n
        pooled = reshape(matmul(Tensor(pool.astype(text.dtype)), text),
                         (b, text.shape[2]))
        neg, perm = self.sample_negatives(pooled, rng)
        loss_t = self.triplet(phi_p, pooled, neg)
        loss_s = mul(mean(s), self.cfg.lambda_sparsity)
        return SaclmOutput(scores=s, decisions=d, aggregated=phi_p,
                           loss_triplet=loss_t, loss_sparsity=loss_s,
                           loss_sac=add(loss_t, loss_s),
                           fallback_count=fallback, negative_perm=perm)
