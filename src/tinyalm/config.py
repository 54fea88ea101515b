"""Run configuration: one flat key=value namespace covering model dimensions,
the synthetic task spec, and the training schedule.

The file format is deliberately dumb: `key = value` lines, `#` comments.
Unknown keys are an error so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np


class ConfigError(ValueError):
    pass


# task id -> (name, prompt token ids in the separate prompt vocabulary)
TASKS = {0: ("copy", (0, 1)), 1: ("reverse", (2, 3))}
PROMPT_VOCAB = 1 + max(max(ids) for _, ids in TASKS.values())  # prompt embedding rows

# values of `ablate`: no ablation, bypass TAPM, drop the SACLM loss, or zero
# one encoder's channel block
ABLATIONS = ("none", "tapm", "saclm", "enc1", "enc2", "enc3")

# (window, stride) in samples of each mock encoder: like the frozen pretrained
# encoders they stand in for, their framing is fixed
ENCODER_GEOMETRY = ((16, 16), (32, 32), (64, 64))

# synthetic signal: samples per base frame, the share of noise base frames,
# and the seed of the motif table shared by datasets of any seed
SAMPLES_PER_FRAME, NOISE_RATIO, MOTIF_SEED = 16, 0.3, 7


@dataclass
class Config:
    # model dimensions
    d_model: int = 64
    d_text: int = 32
    n_queries: int = 1
    window_frames: int = 8
    n_experts: int = 3
    expert_hidden: int = 128
    score_hidden: int = 128
    agg_hidden: int = 128
    lora_rank: int = 8
    lm_layers: int = 2
    lm_heads: int = 4
    vocab_symbols: int = 32
    max_seq: int = 128
    threshold: float = 0.5
    dtype: str = "float32"
    model_seed: int = 0

    # output channels of each mock encoder
    enc1_dim: int = 8
    enc2_dim: int = 8
    enc3_dim: int = 8

    # synthetic task spec
    frames_per_token: int = 4
    min_tokens: int = 3
    max_tokens: int = 8

    # training
    lr: float = 5e-5
    weight_decay: float = 1e-6
    warmup_ratio: float = 0.13
    batch_size: int = 8
    total_steps: int = 1000
    alpha_mix: float = 0.5
    lambda_sparsity: float = 0.01
    margin: float = 0.2
    seed: int = 0

    ablate: str = "none"  # one of ABLATIONS

    # derived token ids (32 content symbols, then the three specials)
    @property
    def bos_id(self) -> int:
        return self.vocab_symbols

    @property
    def eos_id(self) -> int:
        return self.vocab_symbols + 1

    @property
    def pad_id(self) -> int:
        return self.vocab_symbols + 2

    @property
    def vocab_total(self) -> int:
        return self.vocab_symbols + 3

    def noise_frames(self, n_signal: int) -> int:
        """Noise base frames interleaved with n_signal signal frames."""
        return int(round(n_signal * NOISE_RATIO / (1.0 - NOISE_RATIO)))

    def record_frames(self, n_tokens: int) -> int:
        """Base frames of a record of n_tokens tokens: signal plus noise."""
        n_signal = n_tokens * self.frames_per_token
        return n_signal + self.noise_frames(n_signal)

    @property
    def encoder_specs(self) -> tuple:
        """(window, stride, dim) of each mock encoder."""
        dims = (self.enc1_dim, self.enc2_dim, self.enc3_dim)
        return tuple((*geometry, dim) for geometry, dim in zip(ENCODER_GEOMETRY, dims))

    def audio_len_bound(self) -> int:
        """Largest audio-prefix length the data spec can produce: the query
        positions over the longest encoder output of the longest record."""
        samples = self.record_frames(self.max_tokens) * SAMPLES_PER_FRAME
        frames = max((samples - window) // stride + 1
                     for window, stride, _ in self.encoder_specs)
        return -(-frames // self.window_frames) * self.n_queries

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def validate(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("lm_heads", "lm_layers", "n_queries", "window_frames",
                     "frames_per_token", "batch_size", "min_tokens", "n_experts",
                     "expert_hidden", "score_hidden", "agg_hidden", "vocab_symbols",
                     "d_text", "lora_rank", "total_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("enc1_dim", "enc2_dim", "enc3_dim", "seed", "model_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.enc1_dim + self.enc2_dim + self.enc3_dim == 0:
            raise ConfigError("enc1_dim, enc2_dim and enc3_dim are 0: no output channels")
        if self.ablate not in ABLATIONS:
            raise ConfigError(f"ablate must be one of {', '.join(ABLATIONS)}, "
                              f"got {self.ablate!r}")
        if not (0.0 < self.warmup_ratio < 1.0):
            raise ConfigError(f"warmup_ratio must lie in (0,1), got {self.warmup_ratio}")
        if not (0.0 <= self.alpha_mix <= 1.0):
            raise ConfigError(f"alpha_mix must lie in [0,1], got {self.alpha_mix}")
        for name in ("lr", "weight_decay", "margin", "lambda_sparsity"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.lora_rank >= self.d_model:
            raise ConfigError(f"lora_rank {self.lora_rank} must be < d_model {self.d_model}")
        if self.d_model % self.lm_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by lm_heads {self.lm_heads}")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"threshold must lie in (0,1), got {self.threshold}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.max_tokens < self.min_tokens:
            raise ConfigError("token length range is empty")
        # limits of the u8/u16 fields of the binary dataset format; its u32
        # sample count holds 65535 frames of SAMPLES_PER_FRAME samples
        for what, value, limit in (
                ("token id vocab_symbols + 2 =", self.vocab_total - 1, 255),
                ("targets per record max_tokens + 1 =", self.max_tokens + 1, 255),
                ("frames per record", self.record_frames(self.max_tokens), 65535)):
            if value > limit:
                raise ConfigError(f"{what} {value} exceeds the dataset format's "
                                  f"limit of {limit}")
        shortest = self.record_frames(self.min_tokens) * SAMPLES_PER_FRAME
        widest = max(window for window, _, _ in self.encoder_specs)
        if shortest < widest:
            raise ConfigError(f"the shortest record has {shortest} samples, fewer "
                              f"than the widest encoder window {widest}")
        # decoder sequence: audio prefix, prompt, then BOS and the text tokens
        longest = (self.audio_len_bound() + max(len(ids) for _, ids in TASKS.values())
                   + self.max_tokens + 1)
        if longest > self.max_seq:
            raise ConfigError(f"max_seq {self.max_seq} is shorter than the longest "
                              f"decoder sequence the spec can build, {longest}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _parse_value(key, raw, typ):
    raw = raw.strip()
    try:
        if typ in ("int", int):
            return int(raw)
        if typ in ("float", float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config(text: str) -> Config:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, _FIELD_TYPES[key])
    return Config(**values).validate()


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def dump_config(cfg: Config) -> str:
    lines = []
    for f in fields(Config):
        v = getattr(cfg, f.name)
        if isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def save_config(cfg: Config, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))


def fingerprint(config_text: str) -> str:
    """sha256 hex digest of a config text, as embedded in checkpoints."""
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()
