"""Checkpoint format: a little-endian binary container holding the config
(text plus its sha256 fingerprint), the global step, every named tensor as
row-major float32, and AdamW moments for the trainable set. Save -> load ->
save is byte-identical; loading refuses a foreign config fingerprint unless
forced."""

from __future__ import annotations

import struct

import numpy as np

from .config import fingerprint

MAGIC = b"TCKP"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _write_tensor(f, name: str, arr: np.ndarray):
    nb = name.encode()
    f.write(struct.pack("<H", len(nb)))
    f.write(nb)
    f.write(struct.pack("<B", arr.ndim))
    for ext in arr.shape:
        f.write(struct.pack("<I", ext))
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.raw[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def tensor(self):
        (nlen,) = self.unpack("<H")
        name = self.take(nlen).decode()
        (rank,) = self.unpack("<B")
        shape = tuple(self.unpack("<I")[0] for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(self.take(4 * count), dtype="<f4").reshape(shape)
        return name, data.copy()


def save_checkpoint(path, store, opt, step: int, config_text: str):
    items = list(store.items())
    for name, t in items:
        if t.data.dtype != np.float32:
            raise CheckpointError(f"checkpoint format stores float32 tensors; "
                                  f"{name} is {t.data.dtype}")
    fp = fingerprint(config_text).encode()
    cfg_b = config_text.encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(fp)
        f.write(struct.pack("<I", len(cfg_b)))
        f.write(cfg_b)
        f.write(struct.pack("<Q", step))
        f.write(struct.pack("<I", len(items)))
        for name, t in items:
            _write_tensor(f, name, t.data)
        trainable = list(store.trainable_items())
        f.write(struct.pack("<I", len(trainable)))
        for name, _ in trainable:
            _write_tensor(f, name + ".m", opt.m[name])
            _write_tensor(f, name + ".v", opt.v[name])


def peek_checkpoint(path) -> dict:
    """Header only: version, fingerprint, config text, step."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    r = _Reader(raw, path)
    r.take(4)
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    fp = r.take(64).decode()
    (clen,) = r.unpack("<I")
    config_text = r.take(clen).decode()
    (step,) = r.unpack("<Q")
    if fingerprint(config_text) != fp:
        raise CheckpointError(f"{path}: fingerprint does not match the "
                              f"embedded config text")
    return {"version": version, "fingerprint": fp,
            "config_text": config_text, "step": step, "_reader": r}


def load_checkpoint(path, store, opt=None, config_text: str = None,
                    force: bool = False) -> int:
    """Restore parameters (and moments when opt is given); returns the step.

    config_text, when provided, must fingerprint-match the checkpoint
    unless force=True.
    """
    head = peek_checkpoint(path)
    if config_text is not None and not force:
        want = fingerprint(config_text)
        if want != head["fingerprint"]:
            raise CheckpointError(
                f"{path}: config fingerprint mismatch (checkpoint "
                f"{head['fingerprint'][:12]}.., current {want[:12]}..); "
                f"pass force to override")
    r = head["_reader"]
    (n_tensors,) = r.unpack("<I")
    named = dict(store.items())
    seen = set()
    staged = []
    for _ in range(n_tensors):
        name, data = r.tensor()
        if name not in named:
            raise CheckpointError(f"{path}: unknown tensor {name!r}")
        if named[name].data.shape != data.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}: "
                                  f"{data.shape} vs {named[name].data.shape}")
        staged.append((name, data))
        seen.add(name)
    missing = set(named) - seen
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)[:4]}")

    trainable = {n: t.data.shape for n, t in store.trainable_items()}
    staged_moments = []
    (n_mom,) = r.unpack("<I")
    for _ in range(n_mom):
        m_name, m_data = r.tensor()
        v_name, v_data = r.tensor()
        base = m_name[:-2]
        if not (m_name.endswith(".m") and v_name == base + ".v"):
            raise CheckpointError(f"{path}: malformed moment pair "
                                  f"{m_name!r}/{v_name!r}")
        if base not in trainable:
            raise CheckpointError(f"{path}: moments for unknown trainable "
                                  f"{base!r}")
        if m_data.shape != trainable[base] or v_data.shape != trainable[base]:
            raise CheckpointError(f"{path}: moment shape mismatch for {base}: "
                                  f"{m_data.shape}/{v_data.shape} vs "
                                  f"{trainable[base]}")
        staged_moments.append((base, m_data, v_data))
    missing = set(trainable) - {base for base, _, _ in staged_moments}
    if missing:
        raise CheckpointError(f"{path}: missing moments {sorted(missing)[:4]}")
    if r.off != len(r.raw):
        raise CheckpointError(f"{path}: {len(r.raw) - r.off} trailing bytes")

    # all validated: apply atomically
    for name, data in staged:
        named[name].data[...] = data
    if opt is not None:
        for base, m_data, v_data in staged_moments:
            opt.m[base][...] = m_data
            opt.v[base][...] = v_data
        opt.step_count = head["step"]
    return head["step"]
