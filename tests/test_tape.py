"""Tape mechanics: accumulation, ordering, and gradient hygiene."""

import numpy as np

from tinyalm import autodiff as ad
from tinyalm.autodiff import Tape, Tensor


def test_two_consumer_accumulation_analytic():
    # h = 2x feeds two paths: sum(h*h) + sum(5h).
    # d/dx = 2*(2h + 5) = 8x + 10.
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    with Tape() as tape:
        h = ad.mul(x, 2.0)
        y = ad.add(ad.sum_(ad.mul(h, h)), ad.sum_(ad.mul(h, 5.0)))
    tape.backward(y)
    np.testing.assert_allclose(x.grad, 8.0 * x.data + 10.0, rtol=1e-12)


def test_parameter_reused_across_terms():
    # y = x^2 + 3x -> dy/dx = 2x + 3
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.add(ad.sum_(ad.mul(x, x)), ad.sum_(ad.mul(x, 3.0)))
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [7.0])


def test_frozen_tensor_never_receives_gradient():
    frozen = Tensor(np.array([1.0, 2.0]), requires_grad=False)
    live = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.sum_(ad.mul(frozen, live))
    tape.backward(y)
    assert frozen.grad is None
    np.testing.assert_allclose(live.grad, frozen.data)


def test_nodes_append_in_execution_order():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        a = ad.relu(x)
        b = ad.sigmoid(a)
        ad.sum_(b)
    assert [n[0] for n in tape.nodes] == ["relu", "sigmoid", "sum"]


def test_no_recording_outside_tape():
    x = Tensor(np.ones(2), requires_grad=True)
    tape = Tape()
    # ops run outside the context: pure forward, nothing recorded
    y = ad.sum_(ad.relu(x))
    assert tape.nodes == [] and y.grad is None


def test_constant_subgraph_not_recorded():
    with Tape() as tape:
        c = ad.mul(Tensor(np.ones(3)), Tensor(np.full(3, 2.0)))
        live = Tensor(np.ones(3), requires_grad=True)
        y = ad.sum_(ad.mul(c, live))
    ops = [n[0] for n in tape.nodes]
    assert ops == ["mul", "sum"]  # the constant mul was skipped
    tape.backward(y)
    np.testing.assert_allclose(live.grad, c.data)


def test_backward_twice_accumulates_into_leaf():
    x = Tensor(np.array([1.5]), requires_grad=True)
    with Tape() as tape:
        y = ad.sum_(ad.mul(x, x))
    tape.backward(y)
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [6.0])  # 2 * (2x)


def test_first_nonfinite_reports_earliest_op():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape, np.errstate(over="ignore"):
        a = ad.mul(x, 1e154)
        b = ad.div(a, 1e-200)  # overflows to inf
        ad.sum_(b)
    assert tape.first_nonfinite() == "div"


def test_gradient_flows_through_shared_view_slices():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        top = ad.slice_(x, (slice(0, 1), slice(None)))
        bottom = ad.slice_(x, (slice(1, 2), slice(None)))
        y = ad.sum_(ad.add(ad.mul(top, top), bottom))
    tape.backward(y)
    expected = np.vstack([2 * x.data[0], np.ones(3)])
    np.testing.assert_allclose(x.grad, expected)
