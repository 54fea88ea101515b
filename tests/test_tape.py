"""Tape mechanics: accumulation, ordering, and gradient hygiene."""

import weakref

import numpy as np
import pytest

from tinyalm import autodiff as ad
from tinyalm.autodiff import Tape, Tensor
from tinyalm.config import Config
from tinyalm.optim import AdamW
from tinyalm.params import ParamStore, seeded_rng


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


def test_backward_consumes_the_tape():
    x = Tensor(np.array([1.5]), requires_grad=True)
    with Tape() as tape:
        y = ad.sum_(ad.mul(x, x))
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [3.0])
    assert tape.nodes == [] and not tape._produced
    for reuse in (lambda: tape.backward(y), tape.first_nonfinite):
        with pytest.raises(RuntimeError, match="already replayed"):
            reuse()
    np.testing.assert_allclose(x.grad, [3.0])  # nothing accumulated again


def test_backward_frees_each_node_before_earlier_ones_run():
    x = Tensor(np.arange(4.0), requires_grad=True)
    with Tape() as tape:
        first = ad.mul(x, 2.0)
        interior = ad.mul(first, 3.0)
        y = ad.sum_(interior)
    ref = weakref.ref(interior.data)
    del interior  # from here only the tape holds the array
    seen = []
    op, inputs, out, backward = tape.nodes[0]
    tape.nodes[0] = (op, inputs, out,
                     lambda g: (seen.append(ref() is None), backward(g))[1])
    tape.backward(y)
    assert seen == [True]
    np.testing.assert_array_equal(x.grad, np.full(4, 6.0))


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


def backward_by_sums(tape, root):
    """Leaf gradients as the tape once summed them, out of place: `g` for
    the first contribution, then `grad + g`. The in-place sums must match."""
    grads, interior = {}, {}

    def send(t, g):
        if t.requires_grad:
            grads[id(t)] = g if id(t) not in grads else grads[id(t)] + g
        elif id(t) in tape._produced:
            interior[id(t)] = g if id(t) not in interior else interior[id(t)] + g

    send(root, np.ones_like(root.data))
    for _op, inputs, out, backward in reversed(tape.nodes):
        g = interior.pop(id(out), None)
        if g is not None:
            for t, gt in zip(inputs, backward(g)):
                if gt is not None:
                    send(t, gt)
    return grads


def weighted_sum(t, rng):
    return ad.sum_(ad.mul(t, Tensor(rng.standard_normal(t.shape).astype(t.dtype))))


def several_consumers(leaves, rng):
    x, = leaves
    h = ad.mul(x, 2.0)
    return ad.add(ad.add(weighted_sum(ad.mul(h, h), rng), weighted_sum(h, rng)),
                  weighted_sum(ad.relu(x), rng))


def layer_norm_sends(leaves, rng):  # (x, x, gain, bias), and x once more
    x, gain, bias = leaves
    return ad.add(weighted_sum(ad.layer_norm(x, gain, bias), rng), weighted_sum(x, rng))


def cosine_distance_sends(leaves, rng):  # (b, b, a, a, a, b)
    a, b = leaves
    return weighted_sum(ad.cosine_distance(a, b), rng)


ACCUMULATION_CASES = {
    "several_consumers": (several_consumers, [(3, 5)]),
    "layer_norm": (layer_norm_sends, [(2, 3, 6), (6,), (6,)]),
    "cosine_distance": (cosine_distance_sends, [(4, 7), (4, 7)]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(ACCUMULATION_CASES))
def test_leaf_sums_match_whether_grad_starts_none_or_flat(case, dtype):
    build, shapes = ACCUMULATION_CASES[case]
    values = [seeded_rng(5, i).standard_normal(s).astype(dtype)
              for i, s in enumerate(shapes)]

    def run(start):
        store = ParamStore()
        leaves = [store.param(f"p{i}", v.copy(), dtype) for i, v in enumerate(values)]
        flat_grad = None
        if start == "flat":
            _, flat_grad = store.flatten([f"p{i}" for i in range(len(leaves))])
        with Tape() as tape:
            y = build(leaves, seeded_rng(6))
        if start == "sums":
            got = backward_by_sums(tape, y)
            return [got[id(t)] for t in leaves]
        tape.backward(y)
        if flat_grad is not None:
            assert all(np.shares_memory(t.grad, flat_grad) for t in leaves)
        return [t.grad for t in leaves]

    want = [g + dtype(0.0) for g in run("sums")]  # a lone -0.0 now reads +0.0
    for start in ("none", "flat"):
        got = run(start)
        assert [g.dtype for g in got] == [dtype] * len(values)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], start


def test_lone_negative_zero_reads_positive_zero_and_steps_alike():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        y = ad.sum_(ad.mul(x, Tensor(np.full(3, -0.0, dtype=np.float32))))
    assert np.all(np.signbit(backward_by_sums(tape, y)[id(x)]))
    tape.backward(y)
    assert x.grad.tobytes() == np.zeros(3, np.float32).tobytes()

    def stepped(grad):
        store = ParamStore()
        p = store.param("w", np.ones(3), np.float32)
        opt = AdamW(store, Config())
        opt.gradient()
        p.grad[...] = grad
        opt.step(0.1)
        return p.data.tobytes(), opt.m["w"].tobytes(), opt.v["w"].tobytes()

    assert stepped(np.float32(-0.0)) == stepped(np.float32(0.0))
