import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import tinyalm
from tinyalm import optim, saclm
from tinyalm.autodiff import cosine_distance
from tinyalm.config import (ABLATIONS, ENCODER_GEOMETRY, MOTIF_SEED, NOISE_RATIO,
                            SAMPLES_PER_FRAME, Config, ConfigError, dump_config,
                            fingerprint, load_config, parse_config)


def test_defaults_match_reference_training_recipe():
    cfg = Config()
    assert cfg.lambda_sparsity == 0.01
    assert cfg.alpha_mix == 0.5
    assert cfg.lora_rank == 8
    assert cfg.n_experts == 3
    assert cfg.n_queries == 1
    assert cfg.lr == 5e-5
    assert cfg.weight_decay == 1e-6
    assert cfg.warmup_ratio == 0.13
    assert cfg.threshold == 0.5


def test_dump_parse_roundtrip_every_field():
    cfg = Config(d_model=48, lr=3e-3, ablate="tapm", alpha_mix=0.45,
                 dtype="float64", lm_heads=4)
    back = parse_config(dump_config(cfg))
    assert back == cfg
    assert fingerprint(dump_config(back)) == fingerprint(dump_config(cfg))


def test_parse_ignores_comments_and_blank_lines():
    cfg = parse_config("# schedule\nlr = 0.001  # peak\n\nbatch_size=4\n")
    assert cfg.lr == 0.001
    assert cfg.batch_size == 4


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("learning_rate = 0.1\n")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("lr = 0.1\nlr = 0.2\n")


def test_malformed_line_is_an_error():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("batch_size = eight\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("lr = fast\n")


def test_ablate_takes_exactly_the_listed_values():
    for name in ABLATIONS:
        assert parse_config(f"ablate = {name}\n").ablate == name
    for bad in ("enc5", "enc0", "true", "", "TAPM"):
        with pytest.raises(ConfigError, match="ablate must be one of"):
            Config(ablate=bad).validate()


def test_validate_rejects_out_of_range():
    with pytest.raises(ConfigError, match="warmup_ratio"):
        Config(warmup_ratio=1.5).validate()
    with pytest.raises(ConfigError, match="lora_rank"):
        Config(lora_rank=64).validate()
    with pytest.raises(ConfigError, match="divisible"):
        Config(d_model=66).validate()
    with pytest.raises(ConfigError, match="dtype"):
        Config(dtype="f16").validate()


RANGE_GAPS = [
    (dict(lm_heads=0), "lm_heads"),
    (dict(frames_per_token=0), "frames_per_token"),
    (dict(batch_size=0), "batch_size"),
    (dict(prompt_vocab=2), "prompt_vocab"),
    # 1 token of 1 frame is 16 samples, narrower than the 64-sample window
    (dict(min_tokens=1, frames_per_token=1), "encoder window"),
    (dict(n_experts=0), "n_experts"),
    (dict(expert_hidden=0), "expert_hidden"),
    (dict(score_hidden=0), "score_hidden"),
    (dict(agg_hidden=0), "agg_hidden"),
    (dict(vocab_symbols=0), "vocab_symbols"),
    (dict(lm_layers=-1), "lm_layers"),
    (dict(enc1_dim=-1), "enc1_dim"),
    # default spec: 6 audio positions + 2 prompt + BOS and 8 tokens = 17
    (dict(max_seq=16), "max_seq 16"),
    (dict(max_seq=10), "max_seq 10"),
    (dict(lr=-1e-3), "lr"),
    (dict(weight_decay=-1e-6), "weight_decay"),
    (dict(margin=-0.2), "margin"),
    (dict(lambda_sparsity=-0.01), "lambda_sparsity"),
    # the router reads a d_text-wide prompt embedding; 0 leaves it no input
    (dict(d_text=0), "d_text"),
    (dict(d_text=-1), "d_text"),
    # rank 0 leaves the decoder with no trainable family
    (dict(lora_rank=0), "lora_rank"),
    (dict(lora_rank=-1), "lora_rank"),
    (dict(seed=-1), "^seed must be >= 0"),
    (dict(model_seed=-1), "model_seed"),
    (dict(total_steps=0), "total_steps"),
    (dict(total_steps=-3), "total_steps"),
]


# ids name each case's overrides, so removing one case renames no other
@pytest.mark.parametrize("over, match", RANGE_GAPS, ids=[
    ",".join(f"{k}={v}" for k, v in over.items()) for over, _ in RANGE_GAPS])
def test_validate_rejects_range_gaps(over, match):
    with pytest.raises(ConfigError, match=match):
        Config(**over).validate()


FLOAT_FIELDS = [f.name for f in dataclasses.fields(Config) if f.type in ("float", float)]


def test_float_fields_cover_the_unbounded_ones():
    assert {"lr", "weight_decay", "margin", "lambda_sparsity"} <= set(FLOAT_FIELDS)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_validate_rejects_nonfinite_floats(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        Config(**{name: value}).validate()
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        parse_config(f"{name} = {value}\n")


# Settings no run varied, now constants: each retired key's constant and the
# value the key defaulted to
RETIRED = {
    "adam_beta1": (optim.BETA1, 0.9),
    "adam_beta2": (optim.BETA2, 0.999),
    "adam_eps": (optim.EPS, 1e-8),
    "eps_norm": (inspect.signature(cosine_distance).parameters["eps"].default, 1e-8),
    "eps_agg": (saclm.EPS_AGG, 1e-8),
    **{f"enc{i}_{key}": (ENCODER_GEOMETRY[i - 1][k], 16 * 2 ** (i - 1))
       for i in (1, 2, 3) for k, key in enumerate(("window", "stride"))},
    "samples_per_frame": (SAMPLES_PER_FRAME, 16),
    "noise_ratio": (NOISE_RATIO, 0.3),
    "motif_seed": (MOTIF_SEED, 7),
}


@pytest.mark.parametrize("name", list(RETIRED))
def test_retired_setting_keeps_its_default_and_range(name):
    value, default = RETIRED[name]
    assert value == default
    if name.startswith("adam_beta") or name == "noise_ratio":
        # AdamW's bias corrections divide by 1 - beta**t, which is 0 at beta = 1,
        # and a record's noise frames by 1 - noise_ratio
        assert 0.0 <= value < 1.0
    elif name.startswith(("enc", "samples_per_frame")):
        assert isinstance(value, int) and value >= 1
    elif name == "motif_seed":
        assert isinstance(value, int) and value >= 0
    else:
        assert 0.0 < value < float("inf")


def test_first_encoder_frames_one_base_frame_per_step():
    # the score statistics map score positions onto base-frame windows
    assert ENCODER_GEOMETRY[0] == (SAMPLES_PER_FRAME, SAMPLES_PER_FRAME)


@pytest.mark.parametrize("name", list(RETIRED))
def test_retired_key_is_unknown(name):
    # a config file or an older checkpoint's config text naming it fails,
    # whatever the value
    assert name not in {f.name for f in dataclasses.fields(Config)}
    for value in ("1e-08", "inf"):
        with pytest.raises(ConfigError, match=f"^line 2: unknown key '{name}'$"):
            parse_config(f"lr = 0.001\n{name} = {value}\n")


def test_load_config_error_names_the_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("lr = 0.001\neps_norm = 1e-08\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: line 2: unknown key 'eps_norm'"
    path.write_bytes(b"lr = \xff\n")
    with pytest.raises(ConfigError, match="^" + str(path).replace("\\", "\\\\")
                       + ": not UTF-8 text"):
        load_config(path)


def test_validate_rejects_token_ids_beyond_u8():
    # ids run to vocab_symbols + 2 (PAD) and the dataset stores them as u8
    Config(vocab_symbols=253).validate()
    for v in (254, 300):
        with pytest.raises(ConfigError, match="vocab_symbols"):
            Config(vocab_symbols=v).validate()


def test_validate_rejects_target_count_beyond_u8():
    # a record stores max_tokens + 1 targets (EOS included) behind a u8 count
    Config(max_tokens=254, max_seq=439).validate()
    with pytest.raises(ConfigError, match="max_tokens"):
        Config(max_tokens=255).validate()


def test_validate_rejects_frames_beyond_u16():
    # noise positions are u16 frame indices behind a u16 count
    # 200 * 229 = 45,800 signal frames and 19,629 noise frames: 65,429
    Config(max_tokens=200, frames_per_token=229, max_seq=8382).validate()
    # 200 * 230 = 46,000 signal frames and 19,714 noise frames: 65,714
    with pytest.raises(ConfigError, match="65535"):
        Config(max_tokens=200, frames_per_token=230).validate()


def test_fingerprint_tracks_content():
    assert (fingerprint(dump_config(Config()))
            != fingerprint(dump_config(Config(lr=1e-4))))
    assert fingerprint(dump_config(Config())) == fingerprint(dump_config(Config()))


def test_derived_token_ids():
    cfg = Config()
    assert (cfg.bos_id, cfg.eos_id, cfg.pad_id) == (32, 33, 34)
    assert cfg.vocab_total == 35


def test_max_seq_bound_is_tight():
    Config(max_seq=17).validate()
    Config(lm_layers=0, enc2_dim=0, enc3_dim=0).validate()


def test_every_config_field_is_read():
    """A field that no code reads as an attribute is a dead knob."""
    read = set()
    for path in Path(tinyalm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f.name for f in dataclasses.fields(Config) if f.name not in read]
    assert unread == []
