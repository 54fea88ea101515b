"""The finite-difference oracle itself."""

import inspect
import re

import numpy as np
import pytest

from tinyalm import autodiff as ad
from tinyalm.autodiff import Tape, Tensor
from tinyalm.checks import _op_cases
from tinyalm.gradcheck import EvaluationError, grad_check
from tinyalm.params import seeded_rng


def test_quadratic_analytic():
    # f(x) = x^2 at x=3: autodiff and central difference both give 6
    x = Tensor(np.array([3.0]), requires_grad=True)
    report = grad_check(lambda: ad.sum_(ad.mul(x, x)), {"x": x})
    assert report.passed
    assert report.per_param["x"] < 1e-7  # central diff error is O(eps^2)


def test_frozen_parameter_marked_skipped():
    frozen = Tensor(np.array([2.0]), requires_grad=False)
    live = Tensor(np.array([1.0]), requires_grad=True)
    report = grad_check(lambda: ad.sum_(ad.mul(frozen, live)),
                        {"frozen": frozen, "live": live})
    assert report.skipped == ["frozen"]
    assert "live" in report.per_param and report.passed
    assert "frozen, skipped" in report.format_table()


def test_nonfinite_objective_raises_evaluation_error():
    # 1e200 squared overflows float64 to inf at the base point
    x = Tensor(np.array([1e200]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(EvaluationError):
        grad_check(lambda: ad.sum_(ad.mul(x, x)), {"x": x})


def test_rejects_single_precision_parameters():
    x = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: ad.sum_(x), {"x": x})


def test_detects_a_wrong_gradient():
    # sanity: the oracle actually fails when forward and backward disagree.
    x = Tensor(np.array([1.3]), requires_grad=True)

    def objective():
        # forward is sigmoid(x)^2, but the detached factor hides half the
        # gradient from the tape
        y = ad.sigmoid(x)
        return ad.sum_(ad.mul(y, Tensor(y.data)))

    report = grad_check(objective, {"x": x})
    assert not report.passed


def test_nan_tape_gradient_fails():
    # a NaN gradient must fail the check, not slip past every comparison
    x = Tensor(np.array([0.5, 1.0]), requires_grad=True)

    def objective():
        out = Tensor(x.data * 2.0)
        if ad._TAPE is not None:
            ad._TAPE._record("nan_grad", (x,), out, lambda _: lambda g: (g * np.nan,))
        return ad.sum_(out)

    report = grad_check(objective, {"x": x})
    assert not report.passed and report.max_rel_err == np.inf


def test_op_sweep_covers_every_primitive():
    # every op name autodiff records must appear on the tape of some FD case
    # in checks._op_cases; ste_threshold is checked analytically instead
    recorded = set(re.findall(r'_record\("(\w+)"', inspect.getsource(ad)))
    swept = set()
    for _name, fn, params in _op_cases(seeded_rng(0)):
        with Tape() as tape:
            fn(params)
        swept.update(op for op, *_ in tape.nodes)
    assert recorded == swept | {"ste_threshold"}
