"""Criterion 3's oracle: the trainable parameter count, worked out by hand
from the config rather than read from the model."""

from tinyalm.config import PROMPT_VOCAB, Config


def trainable_param_formula(cfg: Config, fused_dim: int) -> int:
    """Analytic count of every trainable tensor the model registers."""
    d, dt_ = cfg.d_model, cfg.d_text
    h, hs, ha = cfg.expert_hidden, cfg.score_hidden, cfg.agg_hidden
    inproj = fused_dim * d + d          # fused-width adapter
    inproj += d * d + d                 # audio-to-decoder adapter
    inproj += PROMPT_VOCAB * d          # prompt embedding on the decoder side
    qf = cfg.n_queries * d + 4 * d * d + 2 * 2 * d  # query, v and o weights, two norms
    # an attention's q and k weights (and the cross-attention's norm) exist
    # only where it has several keys: N queries, or W frames per window
    qf += 2 * d * d * (cfg.n_queries > 1) + (2 * d * d + 2 * d) * (cfg.window_frames > 1)
    tapm = 2 * dt_ + PROMPT_VOCAB * dt_ + dt_ * cfg.n_experts
    tapm += cfg.n_experts * (d * h + h + h * d + d)
    saclm = (2 * d) * hs + hs + hs * 1 + 1
    saclm += d * ha + ha + ha * d + d
    lora = cfg.lm_layers * 2 * (d * cfg.lora_rank + cfg.lora_rank * d)
    return inproj + qf + tapm + saclm + lora
