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

from .config import TASKS, Config, ConfigError
from .params import seeded_rng

MAGIC = b"TALM"
FORMAT_VERSION = 1

# Noise frames are NumPy standard normals, whose ziggurat sampler on 53-bit
# uniforms never returns |x| > r + sqrt(106 ln 2) ~= 3.65 + 8.57 = 12.2.
NOISE_BOUND = 16.0


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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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


class Reader:
    """Bounds-checked little-endian reads over the bytes of one file, shared
    by the dataset and checkpoint formats. Any damage raises `error` (the
    format's own exception) with `where` (the path) in the message."""

    def __init__(self, raw, where, error):
        self.raw = memoryview(raw)
        self.off = 0
        self.where = where
        self.error = error

    @classmethod
    def open(cls, path, magic: bytes, version: int, error):
        """Read the whole file and check its magic and format version."""
        with open(path, "rb") as f:
            r = cls(f.read(), path, error)
        if r.raw[:4] != magic:
            r.fail(f"bad magic {bytes(r.raw[:4])!r}")
        r.off = 4
        (found,) = r.unpack("<I")
        if found != version:
            r.fail(f"unsupported format version {found}")
        return r

    def fail(self, msg: str):
        raise self.error(f"{self.where}: {msg}")

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.raw):
            self.fail(f"truncated: {n} bytes wanted at offset {self.off}")
        self.off += n
        return self.raw[self.off - n:self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """`count` items of `dtype`: a read-only view of the file's bytes."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype)

    def text(self, n: int) -> str:
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            self.fail(f"text at offset {self.off - n} is not UTF-8")

    def done(self):
        if self.off != len(self.raw):
            self.fail(f"{len(self.raw) - self.off} trailing bytes")


def load_dataset(path, cfg: Config) -> list:
    """Records of a dataset written under cfg's task spec. Raises
    DataFormatError on damage, a foreign spec, no records (gen_dataset
    makes at least one), or a record the spec cannot produce."""
    r = Reader.open(path, MAGIC, FORMAT_VERSION, DataFormatError)
    spec, want = r.text(*r.unpack("<H")), spec_line(cfg)
    if spec != want:
        r.fail(f"dataset spec does not match the config\n"
               f"  data:   {spec}\n  config: {want}")
    (count,) = r.unpack("<I")
    if count == 0:
        r.fail("no records")
    records, motifs = [], motif_table(cfg)
    for i in range(count):
        body = Reader(r.take(*r.unpack("<I")), f"{path}: record {i}",
                      DataFormatError)
        rec = _unpack_record(body, i)
        why = _unproducible(rec, cfg, motifs)
        if why:
            body.fail(why)
        records.append(rec)
    r.done()
    return records


def _unpack_record(r: Reader, index: int) -> Record:
    task_id, n_prompt = r.unpack("<BB")
    prompt = r.array("u1", n_prompt).astype(np.int64)
    tokens = r.array("u1", *r.unpack("<B")).astype(np.int64)
    targets = r.array("u1", *r.unpack("<B")).astype(np.int64)
    noise = r.array("<u2", *r.unpack("<H")).astype(np.int64)
    samples = r.array("<f4", *r.unpack("<I")).copy()
    r.done()
    return Record(index=index, task_id=task_id, prompt_ids=prompt,
                  tokens=tokens, targets=targets, noise_positions=noise,
                  samples=samples)


def _unproducible(r: Record, cfg: Config, motifs: np.ndarray) -> str:
    """Why gen_record could not have produced r under cfg, or ''."""
    n_tok, noise = len(r.tokens), r.noise_positions
    frames = cfg.record_frames(n_tok)
    if r.task_id not in TASKS or r.prompt_ids.tolist() != list(TASKS[r.task_id][1]):
        return f"task {r.task_id} with prompt {r.prompt_ids.tolist()} is not a task"
    if not cfg.min_tokens <= n_tok <= cfg.max_tokens or r.tokens.max() >= cfg.vocab_symbols:
        return (f"tokens {r.tokens.tolist()} are not {cfg.min_tokens}.."
                f"{cfg.max_tokens} ids below vocab_symbols {cfg.vocab_symbols}")
    if not np.array_equal(r.targets, make_targets(r.tokens, r.task_id, cfg.eos_id)):
        return "targets are not the task's output for the tokens"
    if (noise.size != frames - n_tok * cfg.frames_per_token
            or np.any(np.diff(noise) <= 0) or np.any(noise >= frames)
            or r.samples.size != frames * cfg.samples_per_frame):
        return f"noise positions or sample count do not fit {frames} frames"
    by_frame = r.samples.reshape(frames, cfg.samples_per_frame)
    is_noise = np.isin(np.arange(frames), noise)
    signal = motifs[r.tokens].reshape(-1, cfg.samples_per_frame)
    if not np.array_equal(by_frame[~is_noise], signal):
        return "signal frames are not the tokens' motifs"
    if not np.all(np.abs(by_frame[is_noise]) < NOISE_BOUND):
        return f"noise samples reach {NOISE_BOUND} or are not finite"
    return ""


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
