import hashlib

import numpy as np
import pytest

from tinyalm.checks import model_check_config
from tinyalm.checkpoint import save_checkpoint
from tinyalm.config import Config, dump_config
from tinyalm.model import Model
from tinyalm.optim import AdamW
from tinyalm.params import ParamStore


def store_digest(store: ParamStore) -> str:
    """sha256 over each tensor, in store order: its name, dtype, trainable
    flag and bytes. Any moved draw or registration changes it."""
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(f"{name}|{t.data.dtype.str}|{int(t.requires_grad)}|".encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


# the initial weights of three configs, pinned when every module still
# registered its own tensors
@pytest.mark.parametrize("cfg, want", [
    (Config(), "f12575a870649cc98f98f27c746638ac69471dc8067a8a331a13aeff78247c72"),
    (Config(d_model=128, window_frames=1),
     "efbeea1358c5d6a212083684dad27e0ccd73301b785b03e55fa446fec1120648"),
    (model_check_config(),
     "9d30e4f44847dd79496e27320e4d73e0c0d83ae36ce1cb238d1182914ac5e28c"),
], ids=["default", "d128-w1", "model-check"])
def test_initial_store_golden_digest(cfg, want):
    assert store_digest(Model(cfg).store) == want


def test_untrained_checkpoint_golden_digest(tmp_path):
    cfg = Config()
    model = Model(cfg)
    path = tmp_path / "untrained.ckpt"
    text = dump_config(cfg)
    save_checkpoint(path, model.store, AdamW(model.store, cfg), 0, text)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == \
        "d0d7e6b00fe4a24d986ac9f50d29a4463dd619d98b932cf0c72674001fe58e23"
    # the bytes from the step field on (after magic, version, fingerprint,
    # config length and text) pin the tensors apart from the config text
    assert hashlib.sha256(raw[76 + len(text.encode()):]).hexdigest() == \
        "16ba20cf3647d934068a963c41fc9808e6f50af526700f5a8b8ac118fd2dea86"


def test_param_casts_and_sets_trainable_flag():
    store = ParamStore()
    w = store.param("w", [[1, 2]], np.float32)
    g = store.param("g", np.ones(3), np.float64, trainable=False)
    assert w.data.dtype == np.float32 and w.requires_grad
    assert g.data.dtype == np.float64 and not g.requires_grad
    assert [n for n, _ in store.items()] == ["w", "g"]
    assert store["w"] is w


def test_duplicate_name_raises_and_leaves_store_unchanged():
    store = ParamStore()
    first = store.param("enc.proj", np.ones((2, 2)), np.float32, trainable=False)
    store.param("enc.bias", np.zeros(2), np.float32)
    for trainable in (True, False):
        with pytest.raises(ValueError, match="already registered: enc.proj"):
            store.param("enc.proj", np.full((3,), 7.0), np.float64, trainable)
    assert [n for n, _ in store.items()] == ["enc.proj", "enc.bias"]
    assert store["enc.proj"] is first
    assert not first.requires_grad and first.data.dtype == np.float32
    np.testing.assert_array_equal(first.data, np.ones((2, 2), dtype=np.float32))
    assert store.trainable_count() == 2
