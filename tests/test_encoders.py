import hashlib

import numpy as np
import pytest

from tinyalm.config import Config
from tinyalm.encoders import EncoderBank
from tinyalm.params import ParamStore, seeded_rng


def make_bank(**over):
    cfg = Config(**over)
    store = ParamStore()
    return cfg, store, EncoderBank(cfg, store)


def test_framing_length_law():
    _, _, bank = make_bank()
    enc = bank.encoders[0]  # window 16, stride 16
    assert enc.out_length(160) == 10
    assert enc.out_length(16) == 1
    assert enc.out_length(31) == 1
    assert enc.out_length(32) == 2


def test_too_short_waveform_raises():
    _, _, bank = make_bank()
    with pytest.raises(ValueError, match="shorter than encoder window 64"):
        bank.encode_all([np.zeros(160, dtype=np.float32),
                         np.zeros(63, dtype=np.float32)])


def test_default_bank_shapes_on_160_samples():
    cfg, _, bank = make_bank()
    wave = seeded_rng(7).standard_normal(160).astype(np.float32)
    fused = bank.encode_all([wave])
    assert fused.values.data.shape == (1, 10, 24)
    assert list(fused.valid_lengths[0]) == [10, 5, 2]
    assert fused.mask.shape == (1, 10)
    assert fused.mask.sum() == 10.0


def test_padding_is_exactly_zero():
    _, _, bank = make_bank()
    wave = seeded_rng(7).standard_normal(160).astype(np.float32)
    fused = bank.encode_all([wave])
    block2 = fused.values.data[0, :, 8:16]   # encoder 2 valid for 5 frames
    block3 = fused.values.data[0, :, 16:24]  # encoder 3 valid for 2 frames
    assert np.all(block2[5:] == 0.0)
    assert np.all(block3[2:] == 0.0)
    assert np.any(block2[:5] != 0.0)
    assert np.any(block3[:2] != 0.0)


def test_batch_padding_to_common_length():
    _, _, bank = make_bank()
    rng = seeded_rng(3)
    waves = [rng.standard_normal(320).astype(np.float32),
             rng.standard_normal(64).astype(np.float32)]
    fused = bank.encode_all(waves)
    assert fused.values.data.shape[1] == 20  # driven by the longer example
    assert list(fused.valid_lengths[1]) == [4, 2, 1]
    assert np.all(fused.mask[1, 4:] == 0.0)
    assert np.all(fused.values.data[1, 4:, :] == 0.0)


def test_zero_waveform_gives_zero_frames():
    _, _, bank = make_bank()
    fused = bank.encode_all([np.zeros(160, dtype=np.float32)])
    assert np.all(fused.values.data == 0.0)
    assert fused.mask.sum() == 10.0  # framing geometry unaffected


def test_degenerate_single_encoder_bank():
    cfg, _, bank = make_bank(enc2_dim=0, enc3_dim=0)
    wave = seeded_rng(11).standard_normal(160).astype(np.float32)
    fused = bank.encode_all([wave])
    assert fused.values.data.shape == (1, 10, 8)
    frames = np.lib.stride_tricks.sliding_window_view(wave, 16)[::16]
    direct = frames @ bank.encoders[0].proj.data
    np.testing.assert_array_equal(fused.values.data[0], direct)


def test_zero_encoder_ablation_blanks_only_that_block():
    _, _, bank = make_bank()
    _, _, ablated_bank = make_bank(ablate="enc2")
    wave = seeded_rng(5).standard_normal(160).astype(np.float32)
    base = bank.encode_all([wave])
    ablated = ablated_bank.encode_all([wave])
    assert np.all(ablated.values.data[:, :, 8:16] == 0.0)
    np.testing.assert_array_equal(ablated.values.data[:, :, :8],
                                  base.values.data[:, :, :8])
    np.testing.assert_array_equal(ablated.values.data[:, :, 16:],
                                  base.values.data[:, :, 16:])
    np.testing.assert_array_equal(ablated.mask, base.mask)


def test_projections_registered_frozen():
    _, store, _ = make_bank()
    names = [n for n, _ in store.frozen_items()]
    assert names == ["encoders.enc1.proj", "encoders.enc2.proj", "encoders.enc3.proj"]
    assert store.trainable_count() == 0
    for _, t in store.frozen_items():
        assert not t.requires_grad


def test_same_seed_same_weights_digest():
    _, _, a = make_bank(model_seed=0)
    _, _, b = make_bank(model_seed=0)
    _, _, c = make_bank(model_seed=1)
    da = hashlib.sha256(a.encoders[0].proj.data.tobytes()).hexdigest()
    db = hashlib.sha256(b.encoders[0].proj.data.tobytes()).hexdigest()
    dc = hashlib.sha256(c.encoders[0].proj.data.tobytes()).hexdigest()
    assert da == db
    assert da != dc


def test_encode_all_deterministic_bytes():
    _, _, bank = make_bank()
    wave = seeded_rng(9).standard_normal(160).astype(np.float32)
    one = bank.encode_all([wave]).values.data.tobytes()
    two = bank.encode_all([wave]).values.data.tobytes()
    assert one == two
