import numpy as np
import pytest

from tinyalm.checkpoint import load_checkpoint, save_checkpoint
from tinyalm.cli import main
from tinyalm.config import dump_config, load_config
from tinyalm.data import Reader, file_digest, load_dataset, save_dataset
from tinyalm.model import Model
from tinyalm.optim import AdamW
from tinyalm.train import evaluate

SMALL = "total_steps = 12\nbatch_size = 4\nlr = 0.001\n"


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL)
    data = tmp_path / "data.bin"
    rc = main(["gen-data", "--spec", str(cfg), "--n", "8",
               "--seed", "0", "--out", str(data)])
    assert rc == 0
    return tmp_path, cfg, data


def test_gen_data_deterministic(workdir, tmp_path):
    root, cfg, data = workdir
    again = tmp_path / "again.bin"
    assert main(["gen-data", "--spec", str(cfg), "--n", "8",
                 "--seed", "0", "--out", str(again)]) == 0
    assert file_digest(str(data)) == file_digest(str(again))
    assert (tmp_path / "again.bin.jsonl").exists()
    recs = load_dataset(str(data), load_config(str(cfg)))
    assert len(recs) == 8


def test_train_then_eval_and_routing(workdir, capsys):
    root, cfg, data = workdir
    out = root / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(data),
               "--out-dir", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "trainable parameters: " in captured
    assert "step=0 " in captured and "L_sparsity=" in captured
    assert (out / "final.ckpt").exists()
    assert (out / "config.txt").exists()

    rc = main(["eval", "--ckpt", str(out / "final.ckpt"), "--data", str(data)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "token_accuracy" in captured and "exact_match" in captured

    rc = main(["inspect-routing", "--ckpt", str(out / "final.ckpt"),
               "--data", str(data)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "copy" in captured and "reverse" in captured
    assert "L1 distance" in captured


def test_one_head_decoder_trains_and_evaluates(workdir, capsys):
    # one head's scores have no head axis for the key mask to broadcast over
    root, cfg, data = workdir
    one_head = root / "one_head.txt"
    one_head.write_text(SMALL + "lm_heads = 1\n")
    assert main(["train", "--config", str(one_head), "--data", str(data),
                 "--out-dir", str(root / "run")]) == 0
    assert main(["eval", "--ckpt", str(root / "run" / "final.ckpt"),
                 "--data", str(data)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_ablate_flag_sets_the_config_key(workdir, capsys):
    root, cfg, data = workdir
    out = root / "ablated"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out-dir", str(out), "--ablate", "tapm"]) == 0
    assert load_config(str(out / "config.txt")).ablate == "tapm"
    capsys.readouterr()
    rc = main(["inspect-routing", "--ckpt", str(out / "final.ckpt"),
               "--data", str(data)])
    assert rc == 2
    assert "TAPM disabled" in capsys.readouterr().err


def test_dump_scores_without_saclm_is_usage_error(workdir, capsys):
    # it used to write an empty file and exit 0
    root, cfg, data = workdir
    out, scores = root / "ablated", root / "scores.jsonl"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out-dir", str(out), "--ablate", "saclm"]) == 0
    capsys.readouterr()
    rc = main(["inspect-routing", "--ckpt", str(out / "final.ckpt"),
               "--data", str(data), "--dump-scores", str(scores)])
    assert rc == 2
    assert "SACLM disabled" in capsys.readouterr().err
    assert not scores.exists()


def test_restore_reads_the_checkpoint_once(workdir, monkeypatch):
    root, cfg, data = workdir
    out = root / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out-dir", str(out)]) == 0
    ckpt = str(out / "final.ckpt")
    opened = []
    real_open = Reader.open.__func__

    def counting_open(cls, path, *args):
        opened.append(str(path))
        return real_open(cls, path, *args)

    monkeypatch.setattr(Reader, "open", classmethod(counting_open))
    for cmd in ("eval", "inspect-routing"):
        opened.clear()
        assert main([cmd, "--ckpt", ckpt, "--data", str(data)]) == 0
        assert opened.count(ckpt) == 1, (cmd, opened)


def test_inspect_routing_uses_evaluates_batches(tmp_path, capsys):
    # 3 records in batches of 2: the last batch has one record and no SACLM
    spec = tmp_path / "cfg.txt"
    spec.write_text(SMALL.replace("batch_size = 4", "batch_size = 2"))
    data, run = tmp_path / "d.bin", tmp_path / "run"
    assert main(["gen-data", "--spec", str(spec), "--n", "3",
                 "--out", str(data)]) == 0
    assert main(["train", "--config", str(spec), "--data", str(data),
                 "--out-dir", str(run)]) == 0
    capsys.readouterr()
    scores = tmp_path / "scores.jsonl"
    assert main(["inspect-routing", "--ckpt", str(run / "final.ckpt"),
                 "--data", str(data), "--dump-scores", str(scores)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"wrote scores of 2 of 3 records to {scores}" in lines
    assert len(scores.read_text().splitlines()) == 2

    cfg = load_config(str(spec))
    model = Model(cfg)
    load_checkpoint(run / "final.ckpt", model.store)
    metrics = evaluate(model, load_dataset(str(data), cfg))
    for task, name in ((0, "copy"), (1, "reverse")):
        row = next(line for line in lines if line.startswith(name)).split()
        assert row[1:] == [f"{w:.4f}" for w in metrics[f"routing_task{task}"]]


def test_train_resume_matches_straight_run(workdir, capsys):
    root, cfg, data = workdir
    half = root / "halfcfg.txt"
    half.write_text(SMALL.replace("total_steps = 12", "total_steps = 6"))

    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out-dir", str(root / "full")]) == 0
    assert main(["train", "--config", str(half), "--data", str(data),
                 "--out-dir", str(root / "half")]) == 0
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--data", str(data),
               "--out-dir", str(root / "resumed"),
               "--resume", str(root / "half" / "final.ckpt")])
    captured = capsys.readouterr().out
    assert rc == 2  # fingerprint differs: total_steps 6 vs 12 is a new schedule
    # resuming under the matching config works and only runs the tail
    assert main(["train", "--config", str(half), "--data", str(data),
                 "--out-dir", str(root / "tail"),
                 "--resume", str(root / "half" / "final.ckpt")]) == 0
    captured = capsys.readouterr().out
    assert "resumed from" in captured
    assert "step=6" not in captured  # total_steps=6 means nothing left to run


def test_unknown_config_key_is_usage_error(workdir, capsys):
    root, cfg, data = workdir
    bad = root / "bad.txt"
    bad.write_text("learning_rate = 0.1\n")
    rc = main(["train", "--config", str(bad), "--data", str(data),
               "--out-dir", str(root / "x")])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("ablate = enc5", "ablate must be one of"),
    ("zero_encoder = 5", "unknown key 'zero_encoder'"),
    ("n_experts = 0", "n_experts must be >= 1"),
    ("max_seq = 10", "max_seq 10 is shorter"),
    # Adam's betas and eps and SACLM's eps are constants in optim.py and saclm.py
    ("adam_beta1 = 1.0", "unknown key 'adam_beta1'"),
    ("adam_beta2 = 0.999", "unknown key 'adam_beta2'"),
    ("adam_eps = 1e-08", "unknown key 'adam_eps'"),
    ("eps_norm = 1e-08", "line 4: unknown key 'eps_norm'"),
    ("eps_agg = 1e-08", "unknown key 'eps_agg'"),
    ("d_text = -1", "d_text must be >= 1"),
    ("lora_rank = -1", "lora_rank must be >= 1"),
    ("seed = -1", "seed must be >= 0"),
    ("model_seed = -1", "model_seed must be >= 0"),
    ("prompt_vocab = 8", "unknown key 'prompt_vocab'"),
    # no layer trains on the prompt rows, no channel fails in the backward
    ("lm_layers = 0", "lm_layers must be >= 1"),
    ("enc1_dim = 0\nenc2_dim = 0\nenc3_dim = 0", "no output channels"),
])
def test_malformed_config_is_usage_error(workdir, capsys, line, message):
    root, cfg, data = workdir
    bad = root / "bad.txt"
    bad.write_text(SMALL + line + "\n")
    rc = main(["train", "--config", str(bad), "--data", str(data),
               "--out-dir", str(root / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad}: ") and message in err
    assert "Traceback" not in err
    assert not (root / "x").exists()


def untrained_checkpoint(root, cfg, extra=""):
    """A step-0 checkpoint of cfg's model whose embedded config text is the
    dumped config followed by `extra`."""
    config = load_config(cfg)
    model = Model(config)
    path = root / "untrained.ckpt"
    save_checkpoint(path, model.store, AdamW(model.store, config), 0,
                    dump_config(config) + extra)
    return path


@pytest.mark.parametrize("command", ["eval", "inspect-routing"])
def test_checkpoint_config_error_names_the_checkpoint(workdir, capsys, command):
    # an embedded config naming a key the namespace does not have
    root, cfg, data = workdir
    ckpt = untrained_checkpoint(root, cfg, "eps_norm = 1e-08\n")
    rc = main([command, "--ckpt", str(ckpt), "--data", str(data)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {ckpt}: embedded config: line ")
    assert "unknown key 'eps_norm'" in err


@pytest.mark.parametrize("command", ["train", "eval", "inspect-routing"])
def test_empty_dataset_is_usage_error_before_step_0(workdir, capsys, command):
    root, cfg, data = workdir
    save_dataset(data, [], load_config(cfg))
    if command == "train":
        argv = ["train", "--config", str(cfg), "--out-dir", str(root / "x")]
    else:
        argv = [command, "--ckpt", str(untrained_checkpoint(root, cfg))]
    rc = main(argv + ["--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {data}: no records\n"
    assert "step=" not in captured.out and "expert" not in captured.out
    assert not (root / "x").exists()


def test_batch_of_one_with_saclm_is_usage_error_before_step_0(workdir, capsys):
    # SACLM draws each row's negative from another row of the batch
    root, cfg, data = workdir
    one = root / "one.txt"
    one.write_text(SMALL.replace("batch_size = 4", "batch_size = 1"))
    rc = main(["train", "--config", str(one), "--data", str(data),
               "--out-dir", str(root / "x")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: SACLM's in-batch negatives need batch_size >= 2\n"
    assert captured.out == ""
    assert not (root / "x").exists()

    # without SACLM a batch of one trains
    one.write_text("total_steps = 2\nbatch_size = 1\n")
    rc = main(["train", "--config", str(one), "--data", str(data),
               "--out-dir", str(root / "x"), "--ablate", "saclm"])
    assert rc == 0
    assert "step=1 " in capsys.readouterr().out


def test_negative_total_steps_is_usage_error(workdir, capsys):
    # SMALL sets total_steps already; a second line would be a duplicate key
    root, cfg, data = workdir
    bad = root / "bad.txt"
    bad.write_text(SMALL.replace("total_steps = 12", "total_steps = -3"))
    rc = main(["train", "--config", str(bad), "--data", str(data),
               "--out-dir", str(root / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "total_steps must be >= 1" in err
    assert "Traceback" not in err


def test_infinite_lr_is_usage_error(workdir, capsys):
    # an infinite lr used to pass validation and abort at step 1 on a NaN loss
    root, cfg, data = workdir
    bad = root / "bad.txt"
    bad.write_text(SMALL.replace("lr = 0.001", "lr = inf"))
    rc = main(["train", "--config", str(bad), "--data", str(data),
               "--out-dir", str(root / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "lr must be finite, got inf" in err
    assert not (root / "x").exists()


def test_float64_train_is_usage_error_before_step_0(workdir, capsys):
    # checkpoints store float32: a float64 run used to fail only at its save
    root, cfg, data = workdir
    f64 = root / "f64.txt"
    f64.write_text(SMALL + "dtype = float64\n")
    rc = main(["train", "--config", str(f64), "--data", str(data),
               "--out-dir", str(root / "x")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "float32" in captured.err
    assert "step=" not in captured.out
    assert not (root / "x").exists()


def test_spec_mismatch_is_usage_error(workdir, capsys):
    root, cfg, data = workdir
    other = root / "other.txt"
    other.write_text(SMALL + "min_tokens = 4\n")
    rc = main(["train", "--config", str(other), "--data", str(data),
               "--out-dir", str(root / "x")])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_missing_checkpoint_is_usage_error(workdir, capsys):
    root, cfg, data = workdir
    rc = main(["eval", "--ckpt", str(root / "nope.ckpt"), "--data", str(data)])
    assert rc == 2


def test_version_1_checkpoint_is_usage_error(workdir, capsys):
    root, cfg, data = workdir
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out-dir", str(root / "run")]) == 0
    ckpt = root / "run" / "final.ckpt"
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:])
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    assert rc == 2
    assert "unsupported format version 1" in capsys.readouterr().err


def test_corrupt_dataset_is_usage_error(workdir, capsys):
    root, cfg, data = workdir
    data.write_bytes(b"XXXX" + data.read_bytes()[4:])
    rc = main(["eval", "--ckpt", str(root / "nope.ckpt"), "--data", str(data)])
    assert rc == 2


def test_gen_data_zero_records_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL)
    rc = main(["gen-data", "--spec", str(cfg), "--n", "0",
               "--out", str(tmp_path / "d.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec, seed, message", [
    (SMALL, "-1", "seed must be >= 0"),
    # the motif seed is a constant; a spec naming it fails as an unknown key
    (SMALL + "motif_seed = -1\n", "0", "unknown key 'motif_seed'"),
], ids=["seed", "motif_seed"])
def test_gen_data_negative_seed_is_usage_error(tmp_path, capsys, spec, seed,
                                               message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(spec)
    rc = main(["gen-data", "--spec", str(cfg), "--n", "4", "--seed", seed,
               "--out", str(tmp_path / "d.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "d.bin").exists()


def test_checkpoint_directory_is_usage_error(workdir, capsys):
    root, cfg, data = workdir
    rc = main(["eval", "--ckpt", str(root), "--data", str(data)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_dir_that_is_a_file_is_usage_error(workdir, capsys):
    # os.makedirs raises FileExistsError, an OSError the CLI did not name
    root, cfg, data = workdir
    rc = main(["train", "--config", str(cfg), "--data", str(data),
               "--out-dir", str(data)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_config_that_is_not_utf8_is_usage_error(workdir, capsys):
    root, cfg, data = workdir
    bad = root / "bad.txt"
    bad.write_bytes(SMALL.encode() + b"# \xff\n")
    rc = main(["train", "--config", str(bad), "--data", str(data),
               "--out-dir", str(root / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "not UTF-8" in err
    assert not (root / "x").exists()


def test_gradcheck_op_scope_passes(capsys):
    rc = main(["gradcheck", "--scope", "op"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "gradcheck: PASS" in captured
    assert "ste_threshold" in captured


def test_gradcheck_reports_failure_exit_code(capsys, monkeypatch):
    import tinyalm.cli as cli
    monkeypatch.setattr(cli, "run_op_suite",
                        lambda: (False, [{"name": "rigged", "ok": False,
                                          "max_rel_err": 1.0}]))
    rc = main(["gradcheck", "--scope", "op"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_tolerance_is_not_a_flag():
    # criterion 1's FD gate is fixed; no flag can loosen it
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--tol", "1"])
    assert exc.value.code == 2
