import numpy as np
import pytest

from tinyalm.config import Config
from tinyalm.data import (DataFormatError, Record, file_digest, gen_dataset,
                          gen_record, load_dataset, make_targets, motif_table,
                          save_dataset, window_labels, write_jsonl)

GOLDEN_DIGEST_N128_SEED0 = \
    "b63697e905d461dc0763a08b996418adf903565b80eca24e4a335e0c9d63df7b"


def test_record_is_pure_function_of_seed_and_index():
    cfg = Config()
    a = gen_record(cfg, seed=3, index=17)
    b = gen_record(cfg, seed=3, index=17)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.tokens, b.tokens)
    np.testing.assert_array_equal(a.noise_positions, b.noise_positions)
    c = gen_record(cfg, seed=4, index=17)
    assert not np.array_equal(a.samples, c.samples)


def test_tasks_alternate_and_targets_match():
    cfg = Config()
    for i in range(6):
        r = gen_record(cfg, 0, i)
        assert r.task_id == i % 2
        body = r.tokens[::-1] if r.task_id == 1 else r.tokens
        np.testing.assert_array_equal(r.targets[:-1], body)
        assert r.targets[-1] == cfg.eos_id
        assert list(r.prompt_ids) == ([0, 1] if r.task_id == 0 else [2, 3])


def test_token_length_range_and_vocab():
    cfg = Config()
    for r in gen_dataset(cfg, 1, 64):
        assert cfg.min_tokens <= len(r.tokens) <= cfg.max_tokens
        assert r.tokens.min() >= 0 and r.tokens.max() < cfg.vocab_symbols


def test_signal_frames_reproduce_motifs():
    cfg = Config()
    motifs = motif_table(cfg)
    r = gen_record(cfg, 0, 2, motifs)
    spf = cfg.samples_per_frame
    frames = r.samples.reshape(-1, spf)
    is_noise = np.zeros(len(frames), dtype=bool)
    is_noise[r.noise_positions] = True
    signal = frames[~is_noise].reshape(-1)
    want = np.concatenate([motifs[t] for t in r.tokens])
    np.testing.assert_array_equal(signal, want)


def test_noise_ratio_zero_records_nothing():
    cfg = Config(noise_ratio=0.0)
    r = gen_record(cfg, 0, 5)
    assert r.noise_positions.size == 0
    assert r.samples.size == len(r.tokens) * 4 * 16


def test_noise_ratio_approximation():
    cfg = Config()  # rho = 0.3
    recs = gen_dataset(cfg, 0, 64)
    fracs = [len(r.noise_positions) / (r.samples.size / 16) for r in recs]
    assert abs(np.mean(fracs) - 0.3) < 0.02


def test_motif_table_shared_across_dataset_seeds():
    cfg = Config()
    a = gen_record(cfg, seed=0, index=0)
    b = gen_record(cfg, seed=99, index=0)
    # different seeds, same token -> identical motif for that token's frames
    ta = motif_table(cfg)
    np.testing.assert_array_equal(ta, motif_table(cfg))
    assert not np.array_equal(a.samples, b.samples)


def test_roundtrip_and_golden_digest(tmp_path):
    cfg = Config()
    recs = gen_dataset(cfg, 0, 128)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(p1, recs, cfg)
    save_dataset(p2, gen_dataset(cfg, 0, 128), cfg)
    assert file_digest(p1) == file_digest(p2)
    assert file_digest(p1) == GOLDEN_DIGEST_N128_SEED0

    back = load_dataset(p1, cfg)
    assert len(back) == 128
    with pytest.raises(DataFormatError, match="does not match"):
        load_dataset(p1, Config(noise_ratio=0.5))
    for r, b in zip(recs, back):
        np.testing.assert_array_equal(r.samples, b.samples)
        np.testing.assert_array_equal(r.tokens, b.tokens)
        np.testing.assert_array_equal(r.targets, b.targets)
        np.testing.assert_array_equal(r.noise_positions, b.noise_positions)
        np.testing.assert_array_equal(r.prompt_ids, b.prompt_ids)
        assert r.task_id == b.task_id


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DataFormatError, match="magic"):
        load_dataset(p, Config())


def test_dataset_without_records_rejected(tmp_path):
    # gen_dataset makes at least one record; training needs one to batch
    cfg = Config()
    p = tmp_path / "empty.bin"
    save_dataset(p, [], cfg)
    with pytest.raises(DataFormatError, match="no records"):
        load_dataset(p, cfg)


def test_truncated_file_rejected(tmp_path):
    cfg = Config()
    p = tmp_path / "d.bin"
    save_dataset(p, gen_dataset(cfg, 0, 4), cfg)
    whole = p.read_bytes()
    p.write_bytes(whole[:len(whole) - 7])
    with pytest.raises(DataFormatError):
        load_dataset(p, cfg)


@pytest.mark.parametrize("field", ["prompt", "tokens"])
def test_inflated_inner_count_rejected(tmp_path, field):
    cfg = Config()
    p = tmp_path / "d.bin"
    save_dataset(p, gen_dataset(cfg, 0, 2), cfg)
    raw = bytearray(p.read_bytes())
    spec_len = int.from_bytes(raw[8:10], "little")
    body = 10 + spec_len + 4 + 4   # header, record count, first length prefix
    # body: task id, prompt count, prompt ids, token count, ...
    at = body + 1 if field == "prompt" else body + 2 + raw[body + 1]
    raw[at] = 200
    p.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="record 0"):
        load_dataset(p, cfg)


@pytest.mark.parametrize("field", ["task", "prompt", "token", "signal", "noise"])
def test_record_the_spec_cannot_produce_rejected(tmp_path, field):
    cfg = Config()
    p = tmp_path / "d.bin"
    recs = gen_dataset(cfg, 0, 2)
    save_dataset(p, recs, cfg)
    raw = bytearray(p.read_bytes())
    spec_len = int.from_bytes(raw[8:10], "little")
    body = 10 + spec_len + 4 + 4   # header, record count, first length prefix
    if field in ("task", "prompt", "token"):
        # task id 2, prompt id 9, or a token that no longer matches the targets
        at = {"task": body, "prompt": body + 2,
              "token": body + 2 + raw[body + 1] + 1}[field]
        raw[at] = {"task": 2, "prompt": 9,
                   "token": (raw[at] + 1) % cfg.vocab_symbols}[field]
    else:
        # one sample of the first signal frame nudged by one ulp, or one
        # sample of the first noise frame set to a finite 2.4e36
        r = recs[0]
        samples = body + 2 + len(r.prompt_ids) + 1 + len(r.tokens) + 1 \
            + len(r.targets) + 2 + 2 * len(r.noise_positions) + 4
        noise = set(r.noise_positions.tolist())
        frames = set(range(r.samples.size // cfg.samples_per_frame))
        frame = min(noise) if field == "noise" else min(frames - noise)
        at = samples + 4 * frame * cfg.samples_per_frame
        value = np.float32(2.4e36) if field == "noise" else \
            np.nextafter(r.samples[frame * cfg.samples_per_frame], np.float32(np.inf))
        raw[at:at + 4] = np.float32(value).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="record 0"):
        load_dataset(p, cfg)


def test_jsonl_twin(tmp_path):
    import json
    cfg = Config()
    recs = gen_dataset(cfg, 0, 3)
    p = tmp_path / "d.jsonl"
    write_jsonl(p, recs)
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 3
    row = json.loads(lines[1])
    assert row["task"] == "reverse"
    assert row["targets"] == recs[1].targets.tolist()


def test_window_labels():
    r = Record(index=0, task_id=0, prompt_ids=np.array([0, 1]),
               tokens=np.array([1]), targets=np.array([1, 33]),
               noise_positions=np.array([2, 3, 4, 5]),
               samples=np.zeros(8 * 16, dtype=np.float32))
    assert window_labels(r, 2, 16) == ["signal", "noise", "noise", "signal"]
    assert window_labels(r, 4, 16) == ["mixed", "mixed"]
    assert window_labels(r, 1, 16) == ["signal", "signal", "noise", "noise",
                                       "noise", "noise", "signal", "signal"]
