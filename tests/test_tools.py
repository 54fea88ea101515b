"""The scripts under tools/ run outside the test suite, but they import
tests/test_acceptance.py, perfbench/workload.py and the model API. Importing
them here catches a moved or renamed name; their __main__ guards keep the
import from running anything. Short runs exercise train_digest's and
step_memory's bodies as well."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tinyalm.autodiff import Tensor
from tinyalm.config import Config

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def import_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def keep_sys_path(monkeypatch):
    # each tool puts its own sibling directory on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))


def test_c6_spread_imports():
    tool = import_tool("c6_spread")
    assert callable(tool.main) and callable(tool.gap)
    Config(**tool.C6_EXPERIMENT).validate()


def test_train_digest_imports():
    tool = import_tool("train_digest")
    assert callable(tool.main)
    for name, _ in tool.RUNS:
        Config(**tool.WORKLOADS[name].config).validate()


def test_train_digest_runs_and_repeats():
    # runs the tool's body, so a change to the training API breaks it here
    tool = import_tool("train_digest")
    lines = tool.digest("train-default", 2)
    assert len(lines) == 5 and lines[0].startswith("train-default steps 2 last loss ")
    assert tool.digest("train-default", 2) == lines


def test_train_digest_checkpoint_line_repeats():
    tool = import_tool("train_digest")
    lines = tool.checkpoint_digest(2)
    whole, tail = lines.split("\n")
    assert whole.startswith("train-default checkpoint after 2 steps sha256 ")
    assert tail.startswith("train-default checkpoint after 2 steps from the "
                           "step field sha256 ")
    assert tool.checkpoint_digest(2) == lines


def test_train_digest_float64_mode_reads_zero_against_its_own_checkout(capsys):
    tool = import_tool("train_digest")
    assert tool.main(["--float64", tool.ROOT]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["c5", "c6"]
    assert all(line.endswith(" 0.000e+00") for line in lines)


def test_step_memory_counts_each_base_array_once():
    tool = import_tool("step_memory")
    shared, own, param = np.zeros(100), np.ones(7), np.ones(5)
    views = (shared[:10], shared[50:].reshape(5, 10))
    node = ("op", [Tensor(param, requires_grad=True), 0, None], None,
            lambda g: (views, own * g))
    assert tool.reachable_bytes([node]) == shared.nbytes + own.nbytes + param.nbytes
    assert tool.reachable_bytes([node], {id(param)}) == shared.nbytes + own.nbytes


def test_step_memory_runs():
    tool = import_tool("step_memory")
    assert tool.NAMES == ("train-default", "train-wide")
    for name in tool.NAMES:
        Config(**tool.WORKLOADS[name].config).validate()
    peak, kept = tool.measure("train-default", warmup=1)
    assert 0 < kept < peak
