"""Synthetic copy/reverse audio tasks.

Each content token owns a fixed random waveform motif (frames_per_token
base frames of samples_per_frame samples). A record concatenates its token
motifs and interleaves pure-noise base frames at recorded positions, so the
frame scorer can later be judged against ground truth. Records are a pure
function of (spec fields, seed, index).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .config import Config, ConfigError
from .params import seeded_rng

MAGIC = b"TALM"
FORMAT_VERSION = 1

# task id -> (name, prompt token ids in the separate prompt vocabulary)
TASKS = {0: ("copy", (0, 1)), 1: ("reverse", (2, 3))}


class DataFormatError(ValueError):
    pass


@dataclass
class Record:
    index: int
    task_id: int
    prompt_ids: np.ndarray     # [P] int
    tokens: np.ndarray         # [n] content token ids
    targets: np.ndarray        # [n+1] target ids, EOS-terminated
    noise_positions: np.ndarray  # base-frame indices that are noise
    samples: np.ndarray        # [n_frames * samples_per_frame] float32


def motif_table(cfg: Config) -> np.ndarray:
    """[vocab, frames_per_token * samples_per_frame] fixed random motifs."""
    rng = seeded_rng(cfg.motif_seed)
    width = cfg.frames_per_token * cfg.samples_per_frame
    return rng.standard_normal((cfg.vocab_symbols, width)).astype(np.float32)


def make_targets(tokens: np.ndarray, task_id: int, eos_id: int) -> np.ndarray:
    body = tokens[::-1] if task_id == 1 else tokens
    return np.concatenate([body, [eos_id]]).astype(np.int64)


def gen_record(cfg: Config, seed: int, index: int,
               motifs: np.ndarray = None) -> Record:
    if motifs is None:
        motifs = motif_table(cfg)
    rng = seeded_rng(seed, index)
    task_id = index % 2
    n_tok = int(rng.integers(cfg.min_tokens, cfg.max_tokens + 1))
    tokens = rng.integers(0, cfg.vocab_symbols, size=n_tok)

    spf = cfg.samples_per_frame
    n_signal = n_tok * cfg.frames_per_token
    n_noise = cfg.noise_frames(n_signal)
    total = n_signal + n_noise
    noise_at = np.sort(rng.choice(total, size=n_noise, replace=False)) \
        if n_noise else np.empty(0, dtype=np.int64)

    signal = np.concatenate([motifs[t] for t in tokens]).reshape(n_signal, spf)
    frames = np.zeros((total, spf), dtype=np.float32)
    is_noise = np.zeros(total, dtype=bool)
    is_noise[noise_at] = True
    frames[~is_noise] = signal
    if n_noise:
        frames[is_noise] = rng.standard_normal((n_noise, spf)).astype(np.float32)

    return Record(index=index, task_id=task_id,
                  prompt_ids=np.asarray(TASKS[task_id][1], dtype=np.int64),
                  tokens=tokens.astype(np.int64),
                  targets=make_targets(tokens, task_id, cfg.eos_id),
                  noise_positions=noise_at.astype(np.int64),
                  samples=frames.reshape(-1))


def gen_dataset(cfg: Config, seed: int, n: int) -> list:
    if n < 1:
        raise ConfigError(f"need at least one record, got n={n}")
    motifs = motif_table(cfg)
    return [gen_record(cfg, seed, i, motifs) for i in range(n)]


def window_labels(record: Record, window_frames: int,
                  samples_per_frame: int) -> list:
    """Label each qformer window 'noise', 'signal', or 'mixed' from the
    recorded noise-frame positions. Ragged last windows use real frames only."""
    n_frames = record.samples.size // samples_per_frame
    is_noise = np.zeros(n_frames, dtype=bool)
    is_noise[record.noise_positions] = True
    labels = []
    for w0 in range(0, n_frames, window_frames):
        frac = is_noise[w0:w0 + window_frames].mean()
        labels.append("noise" if frac == 1.0 else
                      "signal" if frac == 0.0 else "mixed")
    return labels


# ---------------------------------------------------------------------------
# serialization: length-prefixed binary records plus a jsonl inspection twin
# ---------------------------------------------------------------------------

def _pack_record(r: Record) -> bytes:
    body = struct.pack("<BB", r.task_id, len(r.prompt_ids))
    body += bytes(int(x) for x in r.prompt_ids)
    body += struct.pack("<B", len(r.tokens)) + bytes(int(x) for x in r.tokens)
    body += struct.pack("<B", len(r.targets)) + bytes(int(x) for x in r.targets)
    body += struct.pack("<H", len(r.noise_positions))
    body += struct.pack(f"<{len(r.noise_positions)}H",
                        *[int(x) for x in r.noise_positions])
    samples = np.asarray(r.samples, dtype="<f4")
    body += struct.pack("<I", samples.size) + samples.tobytes()
    return struct.pack("<I", len(body)) + body


def spec_line(cfg: Config) -> str:
    """Generation-relevant fields only; embedded in the file header so a
    mismatched config is caught before training on foreign data."""
    return (f"vocab={cfg.vocab_symbols} frames_per_token={cfg.frames_per_token} "
            f"samples_per_frame={cfg.samples_per_frame} noise_ratio={cfg.noise_ratio!r} "
            f"tokens={cfg.min_tokens}..{cfg.max_tokens} motif_seed={cfg.motif_seed}")


def save_dataset(path, records: list, cfg: Config):
    spec_b = spec_line(cfg).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IH", FORMAT_VERSION, len(spec_b)))
        f.write(spec_b)
        f.write(struct.pack("<I", len(records)))
        for r in records:
            f.write(_pack_record(r))


def load_dataset(path):
    """Returns (records, spec_line). Raises DataFormatError on damage."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:4]!r}")
    try:
        version, spec_len = struct.unpack_from("<IH", raw, 4)
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        off = 10
        spec_line = raw[off:off + spec_len].decode()
        off += spec_len
        (n,) = struct.unpack_from("<I", raw, off)
        off += 4
        records = []
        for i in range(n):
            (blen,) = struct.unpack_from("<I", raw, off)
            off += 4
            body = raw[off:off + blen]
            if len(body) != blen:
                raise DataFormatError(f"{path}: record {i} truncated")
            off += blen
            records.append(_unpack_record(body, i))
        if off != len(raw):
            raise DataFormatError(f"{path}: {len(raw) - off} trailing bytes")
    except (struct.error, UnicodeDecodeError) as e:
        raise DataFormatError(f"{path}: truncated or damaged file ({e})") from None
    return records, spec_line


def _unpack_record(body: bytes, index: int) -> Record:
    off = 0

    def take(dtype, count=1):
        nonlocal off
        count = int(count)
        end = off + np.dtype(dtype).itemsize * count
        if end > len(body):
            raise DataFormatError(f"record {index}: a count overruns the record")
        arr = np.frombuffer(body, dtype, count, off)
        off = end
        return arr

    task_id, n_prompt = take("u1", 2)
    prompt = take("u1", n_prompt).astype(np.int64)
    tokens = take("u1", take("u1")[0]).astype(np.int64)
    targets = take("u1", take("u1")[0]).astype(np.int64)
    noise = take("<u2", take("<u2")[0]).astype(np.int64)
    samples = take("<f4", take("<u4")[0]).copy()
    if off != len(body):
        raise DataFormatError(f"record {index}: {len(body) - off} stray bytes")
    return Record(index=index, task_id=int(task_id), prompt_ids=prompt,
                  tokens=tokens, targets=targets, noise_positions=noise,
                  samples=samples)


def write_jsonl(path, records: list):
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps({
                "index": r.index, "task": TASKS[r.task_id][0],
                "prompt_ids": r.prompt_ids.tolist(),
                "tokens": r.tokens.tolist(), "targets": r.targets.tolist(),
                "noise_positions": r.noise_positions.tolist(),
                "n_samples": int(r.samples.size),
            }) + "\n")


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()
