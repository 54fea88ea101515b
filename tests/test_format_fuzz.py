"""Format fuzzer for the binary dataset and checkpoint files.

Each example makes one mutation of a small valid file: a truncation, one
byte set to any value, or a 1-, 2- or 4-byte field overwritten with a large
count. A damaged file must fail as the format's own error, leave the store
and optimizer untouched, and never end `tinyalm eval` in a traceback. A
flipped byte inside a float32 payload or the step field cannot be detected,
as the formats carry no checksum, so such files must simply load whole.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyalm.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tinyalm.cli import main
from tinyalm.config import SAMPLES_PER_FRAME, Config, dump_config
from tinyalm.data import DataFormatError, gen_dataset, load_dataset, save_dataset
from tinyalm.model import Model
from tinyalm.optim import AdamW

CFG = Config(d_model=8, d_text=4, n_experts=2, expert_hidden=4, score_hidden=4,
             agg_hidden=4, lora_rank=2, lm_layers=1, lm_heads=2, vocab_symbols=4,
             enc1_dim=2, enc2_dim=2, enc3_dim=2, window_frames=2,
             frames_per_token=4, min_tokens=1, max_tokens=2, batch_size=2)
FILE_CFG = dataclasses.replace(CFG, model_seed=1)   # a different init
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def producible(r, cfg):
    """What gen_record guarantees of a record and the format can break."""
    tokens, noise = r.tokens.tolist(), r.noise_positions.tolist()
    n_signal = len(tokens) * cfg.frames_per_token
    n_frames = n_signal + cfg.noise_frames(n_signal)
    return (r.task_id in (0, 1)
            and r.prompt_ids.tolist() == [[0, 1], [2, 3]][r.task_id]
            and cfg.min_tokens <= len(tokens) <= cfg.max_tokens
            and all(0 <= t < cfg.vocab_symbols for t in tokens)
            and r.targets.tolist()
            == (tokens[::-1] if r.task_id else tokens) + [cfg.eos_id]
            and noise == sorted(set(noise)) and all(p < n_frames for p in noise)
            and len(noise) == n_frames - n_signal
            and r.samples.size == n_frames * SAMPLES_PER_FRAME
            and bool(np.isfinite(r.samples).all()))


@st.composite
def mutated(draw, raw, structural):
    """raw with one mutation; offsets favour the non-payload bytes."""
    kind = draw(st.sampled_from(["cut", "byte", "count"]))
    width = draw(st.sampled_from([1, 2, 4])) if kind == "count" else 1
    at = draw(st.sampled_from([i for i in structural if i <= len(raw) - width])
              | st.integers(0, len(raw) - width))
    out = bytearray(raw)
    if kind == "cut":
        return bytes(out[:at])
    if kind == "byte":
        out[at] = draw(st.integers(0, 255))
    else:
        big = draw(st.integers(2 ** (8 * width - 1), 2 ** (8 * width) - 1))
        out[at:at + width] = big.to_bytes(width, "little")
    return bytes(out)


def _same_bytes(a: bytes, b: bytes) -> list:
    return [i for i, (x, y) in enumerate(zip(a, b)) if x == y]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid dataset and checkpoint, each with the offsets of its bytes
    that stay put when the float payloads and the step change."""
    root = tmp_path_factory.mktemp("fuzz")
    records = gen_dataset(CFG, 0, 3)
    save_dataset(root / "d.bin", records, CFG)
    for r in records:
        r.samples = r.samples + 1
    save_dataset(root / "d2.bin", records, CFG)

    model = Model(FILE_CFG)
    opt = AdamW(model.store, FILE_CFG)
    for n in opt.m:
        opt.m[n][...], opt.v[n][...] = 0.125, 0.0625
    text = dump_config(FILE_CFG)
    save_checkpoint(root / "c.bin", model.store, opt, 3, text)
    for _, t in model.store.items():
        t.data += 1
    for n in opt.m:
        opt.m[n] += 1
        opt.v[n] += 1
    save_checkpoint(root / "c2.bin", model.store, opt, 4, text)

    data, ckpt = (root / "d.bin").read_bytes(), (root / "c.bin").read_bytes()
    return {"root": root, "text": text, "data": data, "ckpt": ckpt,
            "data_structural": _same_bytes(data, (root / "d2.bin").read_bytes()),
            "ckpt_structural": _same_bytes(ckpt, (root / "c2.bin").read_bytes())}


def test_damaged_dataset_fails_typed_or_yields_producible_records(files):
    path = files["root"] / "mut_d.bin"

    @FUZZ
    @given(mutated(files["data"], files["data_structural"]))
    def check(raw):
        path.write_bytes(raw)
        try:
            records = load_dataset(path, CFG)
        except DataFormatError:
            return
        assert all(producible(r, CFG) for r in records)

    check()


def test_damaged_checkpoint_fails_typed_and_atomically(files):
    path, again = files["root"] / "mut_c.bin", files["root"] / "again.bin"
    model = Model(CFG)
    opt = AdamW(model.store, CFG)
    for n in opt.m:
        opt.m[n][...], opt.v[n][...] = 0.5, 0.25
    arrays = ([t.data for _, t in model.store.items()]
              + [a for n in opt.m for a in (opt.m[n], opt.v[n])])
    saved = [a.copy() for a in arrays]

    @FUZZ
    @given(mutated(files["ckpt"], files["ckpt_structural"]))
    def check(raw):
        path.write_bytes(raw)
        opt.step_count = 7
        try:
            step = load_checkpoint(path, model.store, opt,
                                   config_text=files["text"])
        except CheckpointError:
            assert opt.step_count == 7
            assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, saved))
            return
        save_checkpoint(again, model.store, opt, step, files["text"])
        assert again.read_bytes() == raw    # every byte was applied
        for a, b in zip(arrays, saved):
            a[...] = b

    check()


def test_eval_on_a_damaged_file_exits_0_or_2(files):
    root = files["root"]
    data, ckpt = root / "cli_d.bin", root / "cli_c.bin"

    @FUZZ
    @given(st.sampled_from(["data", "ckpt"]).flatmap(
        lambda which: st.tuples(st.just(which), mutated(
            files[which], files[which + "_structural"]))))
    def check(case):
        which, raw = case
        data.write_bytes(raw if which == "data" else files["data"])
        ckpt.write_bytes(raw if which == "ckpt" else files["ckpt"])
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) in (0, 2)

    check()
