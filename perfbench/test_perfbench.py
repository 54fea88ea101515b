"""Tests of the benchmark itself: a smoke run of every workload at a tiny
length, untraced and traced, and the metric schema. Wall-clock values are
never checked.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# names a reader of each workload sees in the report, with their units
REPORT_UNITS = {
    "train-default": {"setup_s": "s", "step_ms.p50": "ms", "step_ms.p90": "ms",
                      "train_examples_per_s": "examples/s", "loss_tail": "loss",
                      "peak_rss_mb": "MB", "failed_frac": "share"},
    "decode": {"setup_s": "s", "decode_ms.p50": "ms", "decode_ms.p90": "ms",
               "decode_tokens_per_s": "tokens/s", "decoded_ce_tail": "loss",
               "peak_rss_mb": "MB", "failed_frac": "share"},
}
REPORT_UNITS["train-wide"] = REPORT_UNITS["train-default"]

PER_LAYER_UNITS = {
    "model.forward_ms": "ms", "autodiff.backward_ms": "ms", "optim.step_ms": "ms",
    "encoders.encode_all_ms": "ms", "qformer.inproj_ms": "ms",
    "qformer.forward_ms": "ms", "tapm.forward_ms": "ms",
    "lm.build_sequence_ms": "ms", "lm.decoder_forward_ms": "ms",
    "lm.ce_loss_ms": "ms", "saclm.forward_ms": "ms",
    "qformer.backward_ms": "ms", "tapm.backward_ms": "ms",
    "lm.decoder.backward_ms": "ms", "lm.ce.backward_ms": "ms",
    "saclm.backward_ms": "ms", "model.glue.backward_ms": "ms",
    "autodiff.nodes_per_step": "count", "qformer.nodes_per_step": "count",
    "tapm.nodes_per_step": "count", "lm.decoder.nodes_per_step": "count",
    "lm.ce.nodes_per_step": "count", "saclm.nodes_per_step": "count",
    "model.glue.nodes_per_step": "count",
    "autodiff.bwd_nodes_without_grad_frac": "share",
    "autodiff.tape_bytes_per_step": "bytes",
    "lm.positions_per_decode_forward": "count", "lm.useful_position_frac": "share",
    "data.gen_dataset_ms": "ms", "model.init_ms": "ms",
    "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes", "bench.trace_overhead_ms": "ms",
}


def bench(cwd, workload, trace, seed=0, seconds=1):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (report lines, result) of one tiny run."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, name, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[name, trace] = lines[:-1], json.loads(lines[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(runs, workload, trace):
    _, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_metrics_match_benchmark_json(runs, workload, trace):
    _, result = runs[workload, trace]
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_names_every_metric_with_unit(runs, workload):
    lines, _ = runs[workload, 0]
    shown = {line.split()[0]: line.split()[2] for line in lines
             if line.startswith("  ")}
    for name, unit in REPORT_UNITS[workload].items():
        assert shown.get(name) == unit, name
    assert any("OPENBLAS_NUM_THREADS=1" in line for line in lines)
    assert any("numpy=" in line and "blas=" in line and "cpu_count=" in line
               for line in lines)


def test_every_per_layer_name_has_its_unit():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, unit in PER_LAYER_UNITS.items():
        assert units.get(name) == unit, name


def test_node_counts_repeat_exactly(runs):
    first = runs["train-default", 1][1]["metrics"]
    again = json.loads(bench(ROOT, "train-default", 1).stdout.splitlines()[-1])
    for name, entry in first.items():
        if name.endswith("nodes_per_step"):
            assert entry["value"] == again["metrics"][name]["value"], name
    assert first["autodiff.nodes_per_step"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
