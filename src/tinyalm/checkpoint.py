"""Checkpoint format: a little-endian binary container holding the config
(text plus its sha256 fingerprint), the global step, every named tensor as
row-major float32, and AdamW moments for the trainable set. Save -> load ->
save is byte-identical; loading refuses a foreign config fingerprint when
it is given the current config text. A save writes a sibling temporary file
and renames it onto the path, so a failed save leaves the old file whole."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .config import fingerprint
from .data import Reader

MAGIC = b"TCKP"
FORMAT_VERSION = 2  # 2: TAPM experts stored as one stacked bank


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


def _read_tensors(r: Reader, count: int, what: str, shapes: dict) -> dict:
    """Read count tensors whose names and shapes must be exactly `shapes`
    and whose values must be finite; each value is a read-only view of the
    file's bytes."""
    got = {}
    for _ in range(count):
        name = r.text(*r.unpack("<H"))
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I")
        if name not in shapes:
            r.fail(f"unknown {what} {name!r}")
        if shape != shapes[name]:
            r.fail(f"{what} shape mismatch for {name}: {shape} vs {shapes[name]}")
        got[name] = r.array("<f4", math.prod(shape)).reshape(shape)
        if not np.isfinite(got[name]).all():
            r.fail(f"non-finite value in {what} {name}")
    missing = shapes.keys() - got.keys()
    if missing:
        r.fail(f"missing {what}s {sorted(missing)[:4]}")
    return got


def save_checkpoint(path, store, opt, step: int, config_text: str):
    items = list(store.items())
    for name, t in items:
        if t.data.dtype != np.float32:
            raise CheckpointError(f"checkpoint format stores float32 tensors; "
                                  f"{name} is {t.data.dtype}")
    fp = fingerprint(config_text).encode()
    cfg_b = config_text.encode()
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
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
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def peek_checkpoint(path) -> dict:
    """Header only: version, fingerprint, config text, step."""
    r = Reader.open(path, MAGIC, FORMAT_VERSION, CheckpointError)
    fp = r.text(64)
    config_text = r.text(*r.unpack("<I"))
    (step,) = r.unpack("<Q")
    if fingerprint(config_text) != fp:
        r.fail("fingerprint does not match the embedded config text")
    return {"version": FORMAT_VERSION, "fingerprint": fp,
            "config_text": config_text, "step": step, "_reader": r}


def load_checkpoint(path, store, opt=None, config_text: str = None) -> int:
    """Restore parameters (and moments when opt is given); returns the step.

    config_text, when provided, must fingerprint-match the checkpoint.
    """
    head = peek_checkpoint(path)
    if config_text is not None:
        want = fingerprint(config_text)
        if want != head["fingerprint"]:
            raise CheckpointError(
                f"{path}: config fingerprint mismatch (checkpoint "
                f"{head['fingerprint'][:12]}.., current {want[:12]}..)")
    return apply_checkpoint(head, store, opt)


def apply_checkpoint(head: dict, store, opt=None) -> int:
    """Restore the tensors that follow a `peek_checkpoint` header into store
    (and the moments into opt), all or nothing; returns the step. It reads
    on from the header's reader, so each header serves one call."""
    r = head["_reader"]
    named = dict(store.items())
    staged = _read_tensors(r, *r.unpack("<I"), "tensor",
                           {n: t.data.shape for n, t in named.items()})
    trainable = [n for n, _ in store.trainable_items()]
    moments = _read_tensors(r, 2 * r.unpack("<I")[0], "moment",
                            {f"{n}.{k}": named[n].data.shape
                             for n in trainable for k in "mv"})
    r.done()

    # all validated: apply atomically
    for name, data in staged.items():
        named[name].data[...] = data
    if opt is not None:
        for n in trainable:
            opt.m[n][...] = moments[n + ".m"]
            opt.v[n][...] = moments[n + ".v"]
        opt.step_count = head["step"]
    return head["step"]
