"""Task-aware projection: a router turns the prompt embedding into softmax
weights over a stacked bank of expert MLPs, and the projected features are
the dense weighted combination of all expert outputs, applied per frame."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, embedding_lookup, linear, matmul, mean, mul,
                       relu, reshape, softmax, sum_, transpose)
from .config import PROMPT_VOCAB, Config
from .params import ParamStore, seeded_rng


@dataclass
class ProjectedFeatures:
    values: Tensor           # [B, L, d_model]
    routing_weights: Tensor  # [B, n_experts], rows on the simplex


class Tapm:
    def __init__(self, cfg: Config, store: ParamStore):
        self.cfg = cfg
        d, dt, E, hid = cfg.d_model, cfg.np_dtype, cfg.n_experts, cfg.expert_hidden
        rng = seeded_rng(cfg.model_seed, 300)

        def reg(name, arr):
            return store.param(f"tapm.{name}", arr, dt)

        self.task_embed = reg("task_embed",
                              rng.standard_normal((2, cfg.d_text)) * 0.02)
        # 8 rows, the vocabulary's size before PROMPT_VOCAB: later draws keep their bits
        self.prompt_embed = reg("prompt_embed",
                                rng.standard_normal((8, cfg.d_text))[:PROMPT_VOCAB] * 0.02)
        self.router = reg("router",
                          rng.standard_normal((cfg.d_text, cfg.n_experts)) * 0.02)
        # drawn expert by expert, w1 then w2: this order fixes the initial weights
        w1, w2 = zip(*((rng.standard_normal((d, hid)) / np.sqrt(d),
                        rng.standard_normal((hid, d)) / np.sqrt(hid))
                       for _ in range(E)))
        self.w1 = reg("experts.w1", np.stack(w1))         # [E, d, h]
        self.b1 = reg("experts.b1", np.zeros((E, 1, hid)))
        self.w2 = reg("experts.w2", np.stack(w2))         # [E, h, d]
        self.b2 = reg("experts.b2", np.zeros((E, 1, d)))

    def e_text(self, task_ids: np.ndarray, prompt_ids: np.ndarray) -> Tensor:
        """Prompt embedding: per-task vector plus mean of prompt token vectors."""
        task = embedding_lookup(self.task_embed, np.asarray(task_ids))
        toks = embedding_lookup(self.prompt_embed, np.asarray(prompt_ids))
        return add(task, mean(toks, axis=1))

    def route(self, e_text: Tensor) -> Tensor:
        return softmax(matmul(e_text, self.router), axis=-1)

    def project(self, z: Tensor, w: Tensor) -> Tensor:
        """Dense combination: every expert runs, outputs weighted by w."""
        (B, L, d), E = z.shape, w.shape[-1]
        x = reshape(z, (B * L, d))
        hidden = relu(linear(x, self.w1, self.b1))  # [E, B·L, h]
        out = reshape(linear(hidden, self.w2, self.b2), (E, B, L, d))
        weights = reshape(transpose(w), (E, B, 1, 1))
        return sum_(mul(out, weights), axis=0)

    def forward(self, z: Tensor, task_ids, prompt_ids) -> ProjectedFeatures:
        w = self.route(self.e_text(task_ids, prompt_ids))
        return ProjectedFeatures(values=self.project(z, w), routing_weights=w)
