import struct

import numpy as np
import pytest

from tinyalm.checkpoint import (CheckpointError, _read_tensors, _write_tensor,
                                load_checkpoint, peek_checkpoint,
                                save_checkpoint)
from tinyalm.config import Config, dump_config, fingerprint
from tinyalm.data import gen_dataset
from tinyalm.model import Model
from tinyalm.optim import AdamW
from tinyalm.train import run_training


def make(tmp_path, steps=0, **over):
    """A model trained for `steps` steps of a `steps`-step schedule."""
    if steps:
        over = dict(total_steps=steps, batch_size=4, lr=1e-3, **over)
    cfg = Config(**over)
    model = Model(cfg)
    opt = AdamW(model.store, cfg)
    recs = gen_dataset(cfg, 0, 8)
    if steps:
        run_training(model, opt, recs)
    path = tmp_path / "ck.bin"
    return cfg, model, opt, recs, path


def test_save_load_save_byte_identical(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path, steps=4)
    text = dump_config(cfg)
    save_checkpoint(path, model.store, opt, 4, text)
    first = path.read_bytes()

    cfg2 = Config()
    m2 = Model(cfg2)
    o2 = AdamW(m2.store, cfg2)
    step = load_checkpoint(path, m2.store, o2, config_text=text)
    assert step == 4
    p2 = tmp_path / "ck2.bin"
    save_checkpoint(p2, m2.store, o2, step, text)
    assert p2.read_bytes() == first


def test_failed_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    cfg, model, opt, recs, path = make(tmp_path, steps=2)
    save_checkpoint(path, model.store, opt, 2, dump_config(cfg))
    good = path.read_bytes()
    calls = []

    def failing_write(f, name, arr):
        calls.append(name)
        if len(calls) == 3:
            raise OSError("disk full")
        _write_tensor(f, name, arr)

    monkeypatch.setattr("tinyalm.checkpoint._write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model.store, opt, 3, dump_config(cfg))
    assert len(calls) == 3
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_load_keeps_the_optimizer_views(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path, steps=2)
    save_checkpoint(path, model.store, opt, 2, dump_config(cfg))
    fresh = Model(cfg)
    o2 = AdamW(fresh.store, cfg)
    run_training(fresh, o2, recs, stop_after=1)  # the first step flattens
    load_checkpoint(path, fresh.store, o2)
    for name, p in fresh.store.trainable_items():
        assert np.shares_memory(p.data, o2.flat), name
        assert np.array_equal(p.data, model.store[name].data), name
        assert np.array_equal(o2.m[name], opt.m[name]), name
    assert np.array_equal(o2.flat, opt.flat)


def test_version_1_file_rejected(tmp_path):
    # version 1 stored twelve per-expert TAPM tensors; version 2 stores the
    # stacked bank, so an old file fails on its header, not on a name
    cfg, model, opt, recs, path = make(tmp_path)
    save_checkpoint(path, model.store, opt, 0, dump_config(cfg))
    raw = path.read_bytes()
    assert raw[4:8] == struct.pack("<I", 2)
    path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    with pytest.raises(CheckpointError, match="unsupported format version 1"):
        load_checkpoint(path, Model(cfg).store)


def test_load_restores_exact_values(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path, steps=3)
    text = dump_config(cfg)
    save_checkpoint(path, model.store, opt, 3, text)
    m2 = Model(Config(seed=5, model_seed=5))  # different init
    o2 = AdamW(m2.store, Config(seed=5, model_seed=5))
    load_checkpoint(path, m2.store, o2, config_text=text)
    for name, t in model.store.items():
        assert np.array_equal(t.data, dict(m2.store.items())[name].data), name
    for name in opt.m:
        assert np.array_equal(opt.m[name], o2.m[name])
        assert np.array_equal(opt.v[name], o2.v[name])


def test_fingerprint_mismatch_refused_force_overrides(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path)
    save_checkpoint(path, model.store, opt, 0, dump_config(cfg))
    other = dump_config(Config(lr=1.0))
    m2 = Model(Config())
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_checkpoint(path, m2.store, config_text=other)
    # without a config text there is nothing to compare: the load proceeds
    assert load_checkpoint(path, m2.store) == 0


def test_bad_magic_leaves_store_untouched(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path)
    save_checkpoint(path, model.store, opt, 0, dump_config(cfg))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    m2 = Model(Config())
    before = {n: t.data.copy() for n, t in m2.store.items()}
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path, m2.store)
    for n, t in m2.store.items():
        assert np.array_equal(t.data, before[n])


def test_truncated_file_rejected_atomically(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path)
    save_checkpoint(path, model.store, opt, 0, dump_config(cfg))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 37])
    m2 = Model(Config())
    before = {n: t.data.copy() for n, t in m2.store.items()}
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path, m2.store)
    for n, t in m2.store.items():  # no partial application
        assert np.array_equal(t.data, before[n])


def test_trailing_bytes_rejected(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path)
    save_checkpoint(path, model.store, opt, 0, dump_config(cfg))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path, Model(Config()).store)


@pytest.mark.parametrize("where", ["fingerprint", "config_text", "tensor_name"])
def test_non_utf8_text_rejected(tmp_path, where):
    cfg, model, opt, recs, path = make(tmp_path)
    text = dump_config(cfg)
    save_checkpoint(path, model.store, opt, 0, text)
    raw = bytearray(path.read_bytes())
    # magic, u32 version, 64-byte fingerprint, u32 length + config text,
    # u64 step, u32 tensor count, then the first tensor's u16 name length
    at = {"fingerprint": 8, "config_text": 8 + 64 + 4 + 10,
          "tensor_name": 8 + 64 + 4 + len(text) + 8 + 4 + 2}[where]
    raw[at] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path, Model(cfg).store)


def test_overflowing_tensor_shape_rejected(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path)
    text = dump_config(cfg)
    save_checkpoint(path, model.store, opt, 0, text)
    header = path.read_bytes()[:8 + 64 + 4 + len(text) + 8]
    name = next(iter(model.store.items()))[0].encode()
    # 2**31 * 2**31 * 4 elements wraps to 0 in int64
    path.write_bytes(header + struct.pack("<IH", 1, len(name)) + name
                     + struct.pack("<B3I", 3, 2 ** 31, 2 ** 31, 4))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, Model(cfg).store)


def test_shape_mismatch_rejected(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path)
    save_checkpoint(path, model.store, opt, 0, dump_config(cfg))
    bigger = Config(d_model=48)
    m2 = Model(bigger)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        load_checkpoint(path, m2.store)


def test_peek_reads_header_without_model(tmp_path):
    cfg, model, opt, recs, path = make(tmp_path, steps=2)
    text = dump_config(cfg)
    save_checkpoint(path, model.store, opt, 2, text)
    head = peek_checkpoint(path)
    assert head["step"] == 2
    assert head["config_text"] == text
    assert head["fingerprint"] == fingerprint(text)


@pytest.mark.parametrize("fault", ["broadcast_shape", "missing_pair",
                                   "unknown_name"])
def test_bad_moments_rejected_atomically(tmp_path, fault):
    cfg, model, opt, recs, path = make(tmp_path, steps=2)
    save_checkpoint(path, model.store, opt, 2, dump_config(cfg))
    r = peek_checkpoint(path)["_reader"]
    _read_tensors(r, *r.unpack("<I"), "tensor",
                  {n: t.data.shape for n, t in model.store.items()})
    names = [n for n, _ in model.store.trainable_items()]
    vector = next(n for n in names if opt.m[n].ndim == 1 and opt.m[n].size > 1)
    pairs = [(n, opt.m[n], opt.v[n]) for n in names]
    if fault == "broadcast_shape":   # (1,) would broadcast into (d,)
        pairs = [(n, m[:1], v[:1]) if n == vector else (n, m, v)
                 for n, m, v in pairs]
    elif fault == "missing_pair":
        pairs = [p for p in pairs if p[0] != vector]
    else:
        pairs = [("nope", m, v) if n == vector else (n, m, v)
                 for n, m, v in pairs]
    with open(path, "wb") as f:
        f.write(r.raw[:r.off])
        f.write(struct.pack("<I", len(pairs)))
        for n, m, v in pairs:
            _write_tensor(f, n + ".m", m)
            _write_tensor(f, n + ".v", v)

    fresh = Model(cfg)
    o2 = AdamW(fresh.store, cfg)
    for n in o2.m:
        o2.m[n][...] = 0.5
        o2.v[n][...] = 0.25
    o2.step_count = 7
    before = {n: t.data.copy() for n, t in fresh.store.items()}
    with pytest.raises(CheckpointError, match="moment"):
        load_checkpoint(path, fresh.store, o2)
    for n, t in fresh.store.items():
        assert np.array_equal(t.data, before[n]), n
    assert o2.step_count == 7
    assert all(np.all(o2.m[n] == 0.5) and np.all(o2.v[n] == 0.25) for n in o2.m)


@pytest.mark.parametrize("where", ["parameter", "moment"])
def test_non_finite_tensor_rejected_atomically(tmp_path, where):
    cfg, model, opt, recs, path = make(tmp_path, steps=2)
    if where == "parameter":   # a frozen encoder weight
        msg, bad = "tensor encoders.enc1.proj", model.store["encoders.enc1.proj"].data
    else:
        msg, bad = "moment inproj.weight.v", opt.v["inproj.weight"]
    bad[0, 0] = np.inf if where == "parameter" else np.nan
    save_checkpoint(path, model.store, opt, 2, dump_config(cfg))

    fresh = Model(cfg)
    o2 = AdamW(fresh.store, cfg)
    before = {n: t.data.copy() for n, t in fresh.store.items()}
    with pytest.raises(CheckpointError, match=f"non-finite value in {msg}$"):
        load_checkpoint(path, fresh.store, o2)
    for n, t in fresh.store.items():
        assert np.array_equal(t.data, before[n]), n
    assert o2.step_count == 0
    assert all(not o2.m[n].any() and not o2.v[n].any() for n in o2.m)


def test_f64_store_refused(tmp_path):
    cfg = Config(dtype="float64")
    model = Model(cfg)
    opt = AdamW(model.store, cfg)
    with pytest.raises(CheckpointError, match="float32"):
        save_checkpoint(tmp_path / "x.bin", model.store, opt, 0,
                        dump_config(cfg))


def test_resume_equals_uninterrupted_run(tmp_path):
    """Paired-run oracle: train 8 straight vs train 4, checkpoint, resume 4."""
    over = dict(total_steps=8, batch_size=4, lr=1e-3)
    cfg = Config(**over)
    recs = gen_dataset(cfg, 0, 8)

    ma = Model(cfg)
    oa = AdamW(ma.store, cfg)
    run_training(ma, oa, recs)

    mb = Model(cfg)
    ob = AdamW(mb.store, cfg)
    run_training(mb, ob, recs, stop_after=4)
    path = tmp_path / "mid.bin"
    save_checkpoint(path, mb.store, ob, 4, dump_config(cfg))

    mc = Model(Config(model_seed=9, **over))  # scrambled init, same schedule
    occ = AdamW(mc.store, cfg)
    step = load_checkpoint(path, mc.store, occ, config_text=dump_config(cfg))
    run_training(mc, occ, recs, start_step=step)

    for name, t in ma.store.items():
        assert np.array_equal(t.data, dict(mc.store.items())[name].data), name
