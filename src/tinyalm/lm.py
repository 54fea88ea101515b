"""Frozen decoder-only toy language model with low-rank adapters.

Every base weight is declared frozen in the parameter store and never
touched by the optimizer; the only trainable pieces are rank-r adapter
pairs on each layer's query and value projections (W_eff = W + A@B, B
zero-initialized so training starts exactly at the base model). Each
uncached forward recomputes W_eff; a decode cache folds it once and then
feeds the decoder one new position per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (ShapeError, Tensor, add, attention, concat,
                       embedding_lookup, layer_norm, linear, log_softmax,
                       matmul, mul, relu, slice_, sum_)
from .config import Config, ConfigError
from .params import ParamStore, seeded_rng


@dataclass
class LoraAdapter:
    a: Tensor  # [d, r]
    b: Tensor  # [r, d], zero at init

    def apply(self, w_base: Tensor) -> Tensor:
        """w_base + A@B, as A@B + w_base in one node: the same bits."""
        return linear(self.a, self.b, w_base)

    def delta(self) -> np.ndarray:
        return self.a.data @ self.b.data


@dataclass
class SequenceBatch:
    """Decoder input [audio prefix; prompt; shifted targets]. Labels and loss
    mask cover the text segment only, the rows the training logits cover."""
    hidden: Tensor           # [B, L, d_model] embedded input
    key_valid: np.ndarray    # [B, L] 1.0 where the position is a real key
    labels: np.ndarray       # [B, n_text] next-token ids, -1 at text pads
    loss_mask: np.ndarray    # [B, n_text] 1.0 exactly at supervised positions


class ToyDecoder:
    def __init__(self, cfg: Config, store: ParamStore):
        cfg.validate()
        self.cfg = cfg
        d, dt, r = cfg.d_model, cfg.np_dtype, cfg.lora_rank
        rng = seeded_rng(cfg.model_seed, 500)

        def frozen(name, arr):
            return store.param(f"lm.base.{name}", arr, dt, trainable=False)

        def adapter(name):
            return LoraAdapter(
                store.param(f"lm.lora.{name}.a", rng.standard_normal((d, r)) * 0.02, dt),
                store.param(f"lm.lora.{name}.b", np.zeros((r, d)), dt))

        v = cfg.vocab_total
        self.tok_embed = frozen("tok_embed", rng.standard_normal((v, d)) * 0.02)
        self.pos_embed = frozen("pos_embed",
                                rng.standard_normal((cfg.max_seq, d)) * 0.02)
        self.layers = []
        for i in range(cfg.lm_layers):
            layer = {
                "ln1": (frozen(f"layer{i}.ln1.gain", np.ones(d)),
                        frozen(f"layer{i}.ln1.bias", np.zeros(d))),
                "wq": frozen(f"layer{i}.attn.wq", rng.standard_normal((d, d)) * 0.02),
                "wk": frozen(f"layer{i}.attn.wk", rng.standard_normal((d, d)) * 0.02),
                "wv": frozen(f"layer{i}.attn.wv", rng.standard_normal((d, d)) * 0.02),
                "wo": frozen(f"layer{i}.attn.wo", rng.standard_normal((d, d)) * 0.02),
                "ln2": (frozen(f"layer{i}.ln2.gain", np.ones(d)),
                        frozen(f"layer{i}.ln2.bias", np.zeros(d))),
                "w1": frozen(f"layer{i}.ffn.w1", rng.standard_normal((d, 4 * d)) * 0.02),
                "b1": frozen(f"layer{i}.ffn.b1", np.zeros(4 * d)),
                "w2": frozen(f"layer{i}.ffn.w2", rng.standard_normal((4 * d, d)) * 0.02),
                "b2": frozen(f"layer{i}.ffn.b2", np.zeros(d)),
                "lora_q": adapter(f"layer{i}.q"),
                "lora_v": adapter(f"layer{i}.v"),
            }
            self.layers.append(layer)
        self.ln_f = (frozen("ln_f.gain", np.ones(d)),
                     frozen("ln_f.bias", np.zeros(d)))
        # head std 1/sqrt(d): a 0.02 head caps logit spread far below what
        # the adapters must reach through a frozen final norm
        self.head = frozen("head", rng.standard_normal((d, v)) / math.sqrt(d))

    def embed_tokens(self, ids: np.ndarray) -> Tensor:
        return embedding_lookup(self.tok_embed, np.asarray(ids))

    def fold_adapters(self, layer: dict, use_lora: bool = True):
        """The layer's (wq, wv), each with its adapter's A@B added in."""
        if not use_lora:
            return layer["wq"], layer["wv"]
        return layer["lora_q"].apply(layer["wq"]), layer["lora_v"].apply(layer["wv"])

    def forward(self, h: Tensor, key_valid=None, use_lora: bool = True,
                cache: DecodeCache = None, keep: int = None):
        """h: [B, L, d_model] embedded inputs (position added here).

        Returns logits [B, keep or L, vocab]. Causal: position t sees keys
        <= t. key_valid masks pad/inert positions out of every attention row.
        With `keep` below L, the last layer's keys and values still cover
        all L positions, but its queries, FFN, final norm and head run only
        at the last `keep`, the rows whose logits are returned.

        With a cache, h holds only the positions after the `cache.length`
        already seen: they take absolute positions start..start+L-1, attend
        to every cached key as well as to each other, and their keys and
        values are written into the cache. The cache's first call folds the
        adapters (per `use_lora`) into (wq, wv) for every later call.
        Positions past `max_seq` raise ShapeError before anything is
        written.
        """
        cfg = self.cfg
        batch, length, _ = h.shape
        start = 0 if cache is None else cache.length
        if start + length > cfg.max_seq:
            raise ShapeError(f"sequence length {start + length} exceeds max "
                             f"{cfg.max_seq}")

        pos = slice_(self.pos_embed, (slice(start, start + length),))
        x = add(h, pos)

        allowed = np.tri(length, start + length, start, dtype=bool)
        if cache is not None:
            key_valid = cache.extend_valid(key_valid, batch, length, cfg.max_seq)
            if not cache.weights:
                cache.weights = [self.fold_adapters(layer, use_lora)
                                 for layer in self.layers]
        if key_valid is not None:  # at the scores' rank: one head's are [B, Lq, Lk]
            valid = (np.asarray(key_valid) > 0)[:, None, None, :]
            allowed = allowed & (valid if cfg.lm_heads > 1 else valid[:, 0])

        for i, layer in enumerate(self.layers):
            a = a_kv = layer_norm(x, *layer["ln1"])
            wq, wv = (self.fold_adapters(layer, use_lora) if cache is None
                      else cache.weights[i])
            if i == len(self.layers) - 1 and keep is not None and keep < length:
                # sliced before q's matmul: a's gradient still sums (v + k) + q
                rows = (slice(None), slice(length - keep, None))
                a, x = slice_(a, rows), slice_(x, rows)
                allowed = allowed[..., length - keep:, :]
            q = matmul(a, wq)
            k = matmul(a_kv, layer["wk"])
            v = matmul(a_kv, wv)
            if cache is not None:
                k, v = cache.extend_layer(i, k.data, v.data)
            ctx = attention(q, k, v, allowed, heads=cfg.lm_heads)
            x = linear(ctx, layer["wo"], x)  # x + ctx @ wo

            f = layer_norm(x, *layer["ln2"])
            ffn = linear(relu(linear(f, layer["w1"], layer["b1"])),
                         layer["w2"], layer["b2"])
            x = add(x, ffn)

        return matmul(layer_norm(x, *self.ln_f), self.head)


@dataclass
class DecodeCache:
    """What one incremental decode keeps between `ToyDecoder.forward` calls:
    plain arrays, preallocated to `max_seq` positions on the first call and
    written in place. Decode only: it passes no gradient into earlier calls,
    and no caller tapes it.

    Start it empty; the decoder fills it on each call."""
    weights: list = field(default_factory=list)  # per layer (wq, wv), folded
    keys: list = field(default_factory=list)     # per layer [B, max_seq, d]
    values: list = field(default_factory=list)   # per layer [B, max_seq, d]
    key_valid: np.ndarray = None                 # [B, max_seq] validity
    length: int = 0                              # positions filled so far

    def extend_valid(self, key_valid, batch: int, length: int,
                     max_seq: int) -> np.ndarray:
        """Append the new positions' validity (all valid when None); returns
        the validity of every position so far."""
        if self.key_valid is None:
            self.key_valid = np.zeros((batch, max_seq), dtype=bool)
        start, self.length = self.length, self.length + length
        self.key_valid[:, start:self.length] = (
            True if key_valid is None else np.asarray(key_valid) > 0)
        return self.key_valid[:, :self.length]

    def extend_layer(self, i: int, k: np.ndarray, v: np.ndarray):
        """Write layer i's keys and values for the positions `extend_valid`
        just added; returns views of all of them so far."""
        if i == len(self.keys):
            shape = (k.shape[0], self.key_valid.shape[1], k.shape[2])
            self.keys.append(np.zeros(shape, dtype=k.dtype))
            self.values.append(np.zeros(shape, dtype=v.dtype))
        rows = slice(self.length - k.shape[1], self.length)
        self.keys[i][:, rows], self.values[i][:, rows] = k, v
        return self.keys[i][:, :self.length], self.values[i][:, :self.length]


def ce_loss(logits: Tensor, labels: np.ndarray, loss_mask: np.ndarray) -> Tensor:
    """Mean next-token negative log-likelihood over masked positions."""
    mask = np.asarray(loss_mask, dtype=logits.dtype)
    total = float(mask.sum())
    if total == 0:
        raise ConfigError("ce_loss needs at least one supervised position")
    rows, cols = np.nonzero(mask > 0)
    picked = slice_(log_softmax(logits, axis=-1),
                    (rows, cols, np.asarray(labels)[rows, cols]))
    return mul(sum_(picked), -1.0 / total)


def build_sequence(cfg: Config, decoder: ToyDecoder, audio_prefix: Tensor,
                   audio_valid: np.ndarray, prompt_vecs: Tensor,
                   targets: list) -> SequenceBatch:
    """Assemble H = [audio prefix; prompt; BOS-shifted targets] plus masks.

    targets: per-example lists of token ids ending in EOS. Text segments are
    right-padded with PAD; pads are masked out of attention and loss.
    """
    batch, l_audio, d = audio_prefix.shape
    p_len = prompt_vecs.shape[1]
    n_max = max(len(t) for t in targets)
    dt = cfg.np_dtype

    text_in = np.full((batch, n_max), cfg.pad_id, dtype=np.int64)
    labels = np.full((batch, n_max), -1, dtype=np.int64)
    key_valid = np.ones((batch, l_audio + p_len + n_max), dtype=dt)
    key_valid[:, :l_audio] = np.asarray(audio_valid, dtype=dt)
    for bi, tgt in enumerate(targets):
        n = len(tgt)
        text_in[bi, 0] = cfg.bos_id
        text_in[bi, 1:n] = tgt[:-1]
        labels[bi, :n] = tgt
        key_valid[bi, l_audio + p_len + n:] = 0.0

    text_embed = decoder.embed_tokens(text_in)
    hidden = concat([audio_prefix, prompt_vecs, text_embed], axis=1)
    return SequenceBatch(hidden=hidden, key_valid=key_valid, labels=labels,
                         loss_mask=(labels >= 0).astype(dt))
