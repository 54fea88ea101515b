"""Frozen decoder-only toy language model with low-rank adapters.

The base weights are seeded, registered frozen, and never touched by the
optimizer; the only trainable pieces are rank-r adapter pairs on each
layer's query and value projections (W_eff = W + A@B, recomputed every
forward, B zero-initialized so training starts exactly at the base model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, attention, concat, embedding_lookup,
                       layer_norm, linear, log_softmax, matmul, mul, relu,
                       reshape, slice_, sum_, transpose)
from .config import Config, ConfigError
from .params import ParamStore, seeded_rng


@dataclass
class LoraAdapter:
    a: Tensor  # [d, r]
    b: Tensor  # [r, d], zero at init

    def apply(self, w_base: Tensor) -> Tensor:
        return add(w_base, matmul(self.a, self.b))

    def delta(self) -> np.ndarray:
        return self.a.data @ self.b.data


@dataclass
class SequenceBatch:
    """Decoder input assembled as [audio prefix; prompt; shifted targets]."""
    hidden: Tensor           # [B, L, d_model] embedded input
    key_valid: np.ndarray    # [B, L] 1.0 where the position is a real key
    labels: np.ndarray       # [B, L] next-token ids, -1 outside the text loss
    loss_mask: np.ndarray    # [B, L] 1.0 exactly at supervised positions
    segments: np.ndarray     # [B, L] 0 audio, 1 prompt, 2 text
    audio_len: int
    prompt_len: int


class ToyDecoder:
    def __init__(self, cfg: Config, store: ParamStore):
        cfg.validate()
        self.cfg = cfg
        d, dt = cfg.d_model, cfg.np_dtype
        rng = seeded_rng(cfg.model_seed, 500)

        def frozen(name, arr):
            t = Tensor(arr.astype(dt), requires_grad=False)
            store.register(f"lm.base.{name}", t, trainable=False)
            return t

        def adapter(name):
            a = Tensor((rng.standard_normal((d, cfg.lora_rank)) * 0.02).astype(dt),
                       requires_grad=True)
            b = Tensor(np.zeros((cfg.lora_rank, d), dtype=dt), requires_grad=True)
            store.register(f"lm.lora.{name}.a", a, trainable=True)
            store.register(f"lm.lora.{name}.b", b, trainable=True)
            return LoraAdapter(a, b)

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

    def forward(self, h: Tensor, key_valid=None, use_lora: bool = True):
        """h: [B, L, d_model] embedded inputs (position added here).

        Returns logits [B, L, vocab]. Causal: position t sees keys <= t.
        key_valid masks pad/inert positions out of every attention row.
        """
        cfg = self.cfg
        batch, length, d = h.shape
        if length > cfg.max_seq:
            raise ValueError(f"sequence length {length} exceeds max "
                             f"{cfg.max_seq}")
        n_heads = cfg.lm_heads
        dh = d // n_heads

        pos = slice_(self.pos_embed, (slice(0, length),))
        x = add(h, pos)

        allowed = np.tril(np.ones((length, length), dtype=bool))
        if key_valid is not None:
            allowed = allowed & (np.asarray(key_valid) > 0)[:, None, None, :]

        def split_heads(t):
            return transpose(reshape(t, (batch, length, n_heads, dh)),
                             (0, 2, 1, 3))

        for layer in self.layers:
            a = layer_norm(x, *layer["ln1"])
            wq = layer["lora_q"].apply(layer["wq"]) if use_lora else layer["wq"]
            wv = layer["lora_v"].apply(layer["wv"]) if use_lora else layer["wv"]
            ctx = attention(split_heads(matmul(a, wq)),
                            split_heads(matmul(a, layer["wk"])),
                            split_heads(matmul(a, wv)), allowed)
            ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (batch, length, d))
            x = add(x, matmul(ctx, layer["wo"]))

            f = layer_norm(x, *layer["ln2"])
            ffn = linear(relu(linear(f, layer["w1"], layer["b1"])),
                         layer["w2"], layer["b2"])
            x = add(x, ffn)

        return matmul(layer_norm(x, *self.ln_f), self.head)


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
    labels = np.full((batch, l_audio + p_len + n_max), -1, dtype=np.int64)
    loss_mask = np.zeros((batch, l_audio + p_len + n_max), dtype=dt)
    key_valid = np.ones((batch, l_audio + p_len + n_max), dtype=dt)
    key_valid[:, :l_audio] = np.asarray(audio_valid, dtype=dt)
    start = l_audio + p_len
    for bi, tgt in enumerate(targets):
        n = len(tgt)
        text_in[bi, 0] = cfg.bos_id
        text_in[bi, 1:n] = tgt[:-1]
        labels[bi, start:start + n] = tgt
        loss_mask[bi, start:start + n] = 1.0
        key_valid[bi, start + n:] = 0.0

    text_embed = decoder.embed_tokens(text_in)
    hidden = concat([audio_prefix, prompt_vecs, text_embed], axis=1)
    segments = np.concatenate([
        np.zeros((batch, l_audio), dtype=np.int64),
        np.ones((batch, p_len), dtype=np.int64),
        np.full((batch, n_max), 2, dtype=np.int64)], axis=1)
    return SequenceBatch(hidden=hidden, key_valid=key_valid, labels=labels,
                         loss_mask=loss_mask, segments=segments,
                         audio_len=l_audio, prompt_len=p_len)
