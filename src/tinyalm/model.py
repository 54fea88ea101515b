"""Full pipeline: frozen encoder bank -> input projection -> window
Q-Former -> prompt-routed expert projection -> (a) frozen decoder with LoRA
for token cross-entropy and (b) contrastive frame scoring. `cfg.ablate`
bypasses at most one stage."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, concat, embedding_lookup, linear, mul
from .config import PROMPT_VOCAB, Config
from .data import Record
from .encoders import EncoderBank, FusedFeatures
from .lm import DecodeCache, SequenceBatch, ToyDecoder, build_sequence, ce_loss
from .params import ParamStore, seeded_rng
from .qformer import QueryFeatures, WindowQFormer
from .saclm import Saclm, SaclmOutput
from .tapm import Tapm


@dataclass
class ForwardOut:
    loss: Tensor
    loss_ce: Tensor
    sac: SaclmOutput        # None when SACLM is disabled or skipped
    routing: Tensor         # [B, n_experts] or None when TAPM is disabled
    logits: Tensor
    seq: SequenceBatch
    fused: FusedFeatures
    zfeat: QueryFeatures
    phi: Tensor


class Model:
    def __init__(self, cfg: Config):
        cfg.validate()
        self.cfg = cfg
        self.store = store = ParamStore()
        d, dt = cfg.d_model, cfg.np_dtype
        self.encoders = EncoderBank(cfg, store)
        # per-frame adapter from the fused encoder width to the model width
        u, rng = self.encoders.fused_dim, seeded_rng(cfg.model_seed, 200)
        self.inproj_w = store.param("inproj.weight",
                                    rng.standard_normal((u, d)) / np.sqrt(u), dt)
        self.inproj_b = store.param("inproj.bias", np.zeros(d), dt)
        self.qformer = WindowQFormer(cfg, store)
        self.tapm = Tapm(cfg, store)
        self.saclm = Saclm(cfg, store)
        self.decoder = ToyDecoder(cfg, store)

        rng = seeded_rng(cfg.model_seed, 600)
        self.audio_w = store.param("inproj.audio.weight",
                                   rng.standard_normal((d, d)) / np.sqrt(d), dt)
        self.audio_b = store.param("inproj.audio.bias", np.zeros(d), dt)
        self.lm_prompt_embed = store.param(
            "inproj.prompt_embed", rng.standard_normal((PROMPT_VOCAB, d)) * 0.02, dt)

    def trainable_count(self) -> int:
        return self.store.trainable_count()

    def pad_audio(self, audio_prefix: Tensor, audio_valid: np.ndarray):
        """Right-pad the audio segment to `cfg.audio_len_bound()`, the longest
        prefix the data spec can produce, with pad slots key-masked. The
        decoder's positions are absolute, so prompt and text tokens then sit
        at the same positions in every batch and in every decoding step."""
        b, l, d = audio_prefix.shape
        bound = max(self.cfg.audio_len_bound(), l)
        if l < bound:
            pad = Tensor(np.zeros((b, bound - l, d), dtype=self.cfg.np_dtype))
            audio_prefix = concat([audio_prefix, pad], axis=1)
            audio_valid = np.concatenate(
                [audio_valid, np.zeros((b, bound - l), dtype=audio_valid.dtype)],
                axis=1)
        return audio_prefix, audio_valid

    def front_end(self, records: list):
        """Shared by training and decoding: encode, project, query and route
        the audio, then build the padded audio prefix and the prompt
        embedding. Returns (fused, zfeat, phi, routing, audio_prefix,
        audio_valid, prompt_vecs); routing is None when TAPM is disabled."""
        cfg = self.cfg
        fused = self.encoders.encode_all([r.samples for r in records])
        proj = linear(fused.values, self.inproj_w, self.inproj_b)
        zfeat = self.qformer.forward(proj, fused.mask)

        task_ids = np.array([r.task_id for r in records])
        prompt_ids = np.stack([r.prompt_ids for r in records])
        if cfg.ablate == "tapm":
            phi, routing = zfeat.values, None
        else:
            projected = self.tapm.forward(zfeat.values, task_ids, prompt_ids)
            phi, routing = projected.values, projected.routing_weights

        audio_prefix = linear(phi, self.audio_w, self.audio_b)
        audio_prefix, audio_valid = self.pad_audio(audio_prefix, zfeat.valid)
        prompt_vecs = embedding_lookup(self.lm_prompt_embed, prompt_ids)
        return fused, zfeat, phi, routing, audio_prefix, audio_valid, prompt_vecs

    def forward_batch(self, records: list, rng: np.random.Generator,
                      compute_saclm: bool = True,
                      saclm_decisions=None) -> ForwardOut:
        cfg = self.cfg
        (fused, zfeat, phi, routing, audio_prefix, audio_valid,
         prompt_vecs) = self.front_end(records)
        seq = build_sequence(cfg, self.decoder, audio_prefix, audio_valid, prompt_vecs,
                             [list(map(int, r.targets)) for r in records])
        logits = self.decoder.forward(seq.hidden, seq.key_valid, keep=seq.labels.shape[1])
        l_ce = ce_loss(logits, seq.labels, seq.loss_mask)

        sac = None
        if compute_saclm and cfg.ablate != "saclm":
            supervised = seq.loss_mask > 0  # each example's targets, left-aligned
            text_ids = np.where(supervised, seq.labels, cfg.pad_id)
            sac = self.saclm.forward(phi, self.decoder.embed_tokens(text_ids),
                                     supervised.sum(axis=1), rng, decisions=saclm_decisions)
            loss = add(mul(l_ce, cfg.alpha_mix),
                       mul(sac.loss_sac, 1.0 - cfg.alpha_mix))
        else:
            loss = l_ce
        return ForwardOut(loss=loss, loss_ce=l_ce, sac=sac, routing=routing,
                          logits=logits, seq=seq, fused=fused, zfeat=zfeat,
                          phi=phi)

    def greedy_decode(self, record: Record) -> list:
        """Argmax decoding of one example, at most `cfg.max_tokens + 2` tokens
        with ties to the lowest id: one decoder call reads [audio prefix;
        prompt; BOS] into a key/value cache, then each further call feeds
        only the token just emitted."""
        cfg = self.cfg
        *_, audio_prefix, audio_valid, prompt_vecs = self.front_end([record])

        # a lone-EOS target makes the text segment just BOS
        seq = build_sequence(cfg, self.decoder, audio_prefix, audio_valid,
                             prompt_vecs, [[cfg.eos_id]])
        hidden, key_valid, cache = seq.hidden, seq.key_valid, DecodeCache()
        out = []
        for step in range(cfg.max_tokens + 2):
            if step:
                hidden = self.decoder.embed_tokens(np.array([out[-1:]]))
                key_valid = None
            logits = self.decoder.forward(hidden, key_valid, cache=cache, keep=1)
            out.append(int(np.argmax(logits.data[0, -1])))
            if out[-1] == cfg.eos_id:
                break
        return out
