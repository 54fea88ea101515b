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


# the initial weights of three configs
@pytest.mark.parametrize("cfg, want", [
    (Config(), "860849d651378821e39791598675f1787df8ef540e39f1ac02faca78f8630e23"),
    (Config(d_model=128, window_frames=1),
     "5c8bb219088dad47d455bf2bfbe26aa8bbc871c0fbc101d93a57df3c714b40aa"),
    (model_check_config(),
     "6cb2facbbc912b45ab7fdc7b92ca06ffea514b4db0e53e7ec44e2d4e3391b0ca"),
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
        "ed5855497c583c562eb7073b665f963a984785e84577f3d89a73e26c0164a1e2"
    # the bytes from the step field on (after magic, version, fingerprint,
    # config length and text) pin the tensors apart from the config text
    assert hashlib.sha256(raw[76 + len(text.encode()):]).hexdigest() == \
        "65c33680e5c93cc639ec296e79e3ee354af9ba67c3ca00a87d36e71a3ad1fcb6"


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
