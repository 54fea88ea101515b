"""The scripts under tools/ run outside the test suite, but they import
tests/test_acceptance.py, perfbench/workload.py and the model API. Importing
them here catches a moved or renamed name; their __main__ guards keep the
import from running anything. Short runs exercise train_digest's,
step_memory's and ab's bodies as well."""

import importlib.util
import os
import shutil
import subprocess
import sys
import time
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


def test_train_digest_float64_mode_rejects_unkeyed_projections(tmp_path):
    # before the per-tensor projections, test_trajectory.projections
    # returned one array per run: one line and exit 2, no traceback
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_trajectory.py").write_text(
        "import numpy as np\nRUNS = ('c5', 'c6')\n\n"
        "def projections(name):\n    return np.zeros(32)\n")
    done = subprocess.run([sys.executable, str(TOOLS / "train_digest.py"),
                           "--float64", str(tmp_path)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(TOOLS.parent / "src")))
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and "at or after f5702f3" in done.stderr


def test_ab_runs_two_copies_of_one_checkout(tmp_path):
    tool = import_tool("ab")
    assert tool.sign_test_p(15, 15) == 1.0 and tool.sign_test_p(0, 0) == 1.0
    assert tool.sign_test_p(9, 1) == tool.sign_test_p(1, 9) == 2 * 11 / 2 ** 10
    for side in ("a", "b"):
        shutil.copytree(TOOLS.parent / "src" / "tinyalm", tmp_path / side / "src" / "tinyalm",
                        ignore=shutil.ignore_patterns("__pycache__"))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, str(TOOLS / "ab.py"), str(tmp_path / "a"),
                           str(tmp_path / "b"), "--rounds", "2"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert time.perf_counter() - started < 10
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    rows = [line.split()[:2] for line in lines[4:-1]]
    assert rows == [[name, measure] for name in tool.WORKLOADS for measure in ("setup", "op")]
    assert lines[-1] == "failed ops: parent 0 change 0"


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
