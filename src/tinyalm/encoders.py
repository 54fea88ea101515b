"""Frozen mock encoder bank: three random linear framers with distinct
window/stride/width, standing in for heavyweight pretrained speech, audio
event, and music encoders. Their outputs are zero-padded to a common length
and concatenated along the channel axis, with a validity mask."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import Config
from .params import ParamStore, seeded_rng


@dataclass
class FusedFeatures:
    """Channel-concatenated encoder outputs for one batch."""
    values: Tensor            # [B, T, D_u], padded positions exactly 0
    mask: np.ndarray          # [B, T], 1.0 where at least one encoder is valid
    valid_lengths: np.ndarray  # [B, 3] per-encoder frame counts


class MockEncoder:
    """Framing geometry and frozen random projection of one encoder."""

    def __init__(self, window: int, stride: int, dim: int, proj: Tensor):
        self.window = window
        self.stride = stride
        self.dim = dim
        self.proj = proj  # [window, dim], frozen

    def out_length(self, n_samples: int) -> int:
        return (n_samples - self.window) // self.stride + 1


class EncoderBank:
    def __init__(self, cfg: Config, store: ParamStore):
        self.cfg = cfg
        self.encoders = []
        for i, (window, stride, dim) in enumerate(cfg.encoder_specs, 1):
            rng = seeded_rng(cfg.model_seed, 100 + i)
            proj = store.param(f"encoders.enc{i}.proj",
                               rng.standard_normal((window, dim)) / np.sqrt(window),
                               cfg.np_dtype, trainable=False)
            self.encoders.append(MockEncoder(window, stride, dim, proj))

    @property
    def fused_dim(self) -> int:
        return sum(e.dim for e in self.encoders)

    def encode_all(self, waves: list[np.ndarray]) -> FusedFeatures:
        """Frame the zero-padded batch with each encoder, pad its frames to
        the batch-wide max length and concatenate along channels. Frame t of
        an encoder covers samples[t*stride : t*stride+window]. Under
        `ablate = encN` encoder N's channel block stays zero (mask and
        lengths unchanged)."""
        dt = self.cfg.np_dtype
        lengths = np.array([len(w) for w in waves])
        widest = max(e.window for e in self.encoders)
        if lengths.min() < widest:
            raise ValueError(f"waveform of {lengths.min()} samples is shorter "
                             f"than encoder window {widest}")
        padded = np.zeros((len(waves), lengths.max()), dtype=dt)
        padded[np.arange(lengths.max()) < lengths[:, None]] = np.concatenate(waves)
        valid = np.stack([e.out_length(lengths) for e in self.encoders], axis=1)

        t_max = int(valid.max())
        fused = np.zeros((len(waves), t_max, self.fused_dim), dtype=dt)
        off = 0
        for i, enc in enumerate(self.encoders):
            if self.cfg.ablate != f"enc{i + 1}":
                frames = np.lib.stride_tricks.sliding_window_view(
                    padded, enc.window, axis=1)[:, ::enc.stride]
                block = frames @ enc.proj.data
                block[np.arange(block.shape[1]) >= valid[:, i, None]] = 0.0
                fused[:, :block.shape[1], off:off + enc.dim] = block
            off += enc.dim
        mask = (np.arange(t_max) < valid.max(axis=1)[:, None]).astype(dt)
        return FusedFeatures(values=Tensor(fused), mask=mask, valid_lengths=valid)
