"""Forward semantics and gradient fidelity of every tensor primitive.

Expected gradients come from the central finite-difference oracle
(grad_check), never from the op's own backward rule.
"""

import numpy as np
import pytest

from tinyalm import autodiff as ad
from tinyalm.autodiff import ShapeError, Tape, Tensor
from tinyalm.checks import OP_SEED, _op_cases
from tinyalm.gradcheck import grad_check
from tinyalm.params import seeded_rng

RNG = np.random.default_rng(1234)


def rand_t(*shape, lo=-2.0, hi=2.0):
    return Tensor(RNG.uniform(lo, hi, shape), requires_grad=True)


def fd_assert(objective, params, tol=1e-4):
    report = grad_check(objective, params, eps=1e-4, tol=tol)
    assert report.passed, report.format_table()


class scalarize:
    """Project to a scalar through random weights frozen at first call, so
    the objective stays deterministic while the FD check still exercises the
    whole Jacobian."""

    def __init__(self):
        self.w = None

    def __call__(self, t):
        if t.size == 1:
            return ad.sum_(t)
        if self.w is None:
            self.w = Tensor(RNG.uniform(-1.0, 1.0, t.shape))
        return ad.sum_(ad.mul(t, self.w))


# --------------------------------------------------------------------- matmul

def test_matmul_identity():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = ad.matmul(Tensor(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_permutation():
    p = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    q = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(ad.matmul(p, q).data, q.data)


def test_matmul_gradients_match_finite_differences():
    a, b, sc = rand_t(3, 4), rand_t(4, 2), scalarize()
    fd_assert(lambda: sc(ad.matmul(a, b)), {"a": a, "b": b})


def test_matmul_batched_broadcast_gradients():
    a, b, sc = rand_t(2, 3, 4), rand_t(4, 5), scalarize()
    fd_assert(lambda: sc(ad.matmul(a, b)), {"a": a, "b": b})


@pytest.mark.parametrize("a_shape,b_shape", [
    ((320, 1, 128), (128, 128)),   # per-window frames @ a shared weight
    ((1, 128), (320, 128, 1)),     # the shared cross query @ per-window keys^T
])
def test_matmul_shared_operand_gradient_matches_summed_batch(a_shape, b_shape):
    # d128 / one-frame-window Q-Former sizes: 8 records x 40 windows
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
    g = rng.standard_normal(np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
                            + (a_shape[-2], b_shape[-1]))
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(ad.matmul(a, b), Tensor(g))))
    # reference: the per-entry gradient stack, summed over the batch
    ga = ad._unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a_shape)
    gb = ad._unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b_shape)
    np.testing.assert_allclose(a.grad, ga, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.grad, gb, rtol=1e-12, atol=1e-12)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.matmul(rand_t(3, 4), rand_t(3, 2))
    assert "(3, 4)" in str(err.value) and "(3, 2)" in str(err.value)


# -------------------------------------------------------------------- softmax

def test_softmax_symmetry():
    out = ad.softmax(Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_softmax_analytic_ratios():
    out = ad.softmax(Tensor(np.log([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_then_dot_gradient():
    x = rand_t(5)
    w = Tensor(RNG.uniform(-1, 1, 5))
    fd_assert(lambda: ad.sum_(ad.mul(ad.softmax(x, axis=-1), w)), {"x": x})


def test_softmax_simplex_property():
    # nonnegative, axis sums within 1e-6 of 1, for any finite input
    for _ in range(20):
        x = Tensor(RNG.uniform(-50, 50, (4, 7)))
        s = ad.softmax(x, axis=-1).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)


def test_log_softmax_matches_log_of_softmax():
    x = rand_t(4, 6)
    ls = ad.log_softmax(x, axis=-1).data
    np.testing.assert_allclose(np.exp(ls).sum(axis=-1), 1.0, atol=1e-9)
    sc = scalarize()
    fd_assert(lambda: sc(ad.log_softmax(x, axis=-1)), {"x": x})


# --------------------------------------------------------------- elementwise

def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(np.zeros(1))).data[0] == pytest.approx(0.5)


@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axis", [None, 0, 2, -1, -2, (0, 2), (-1, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mean_bit_identical_to_numpy_mean(dtype, axis, keepdims):
    x = seeded_rng(40).standard_normal((5, 7, 9)).astype(dtype) * 10.0
    with Tape() as tape:
        out = ad.mean(Tensor(x, requires_grad=True), axis=axis, keepdims=keepdims)
    want = np.asarray(np.mean(x, axis=axis, keepdims=keepdims))
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.data.tobytes() == want.tobytes()

    # backward equals the spread gradient divided by the count as np.int64
    axes = range(x.ndim) if axis is None else np.atleast_1d(axis)
    n = np.int64(np.prod([x.shape[ax] for ax in axes]))
    g = seeded_rng(41).standard_normal(want.shape).astype(dtype)
    spread = np.broadcast_to(
        g if keepdims or axis is None else np.expand_dims(g, axis), x.shape)
    (_, _, _, backward), = tape.nodes
    got, = backward(g)
    assert got.dtype == x.dtype
    assert got.tobytes() == (spread / n).astype(dtype).tobytes()


def test_concat_extent_mismatch():
    with pytest.raises(ShapeError):
        ad.concat([rand_t(2, 3), rand_t(2, 4)], axis=0)


# every primitive's FD case, the same sweep as acceptance criterion 1; the ids
# keep the name-<lambda>-<lambda> form, so each case's test id stays stable
OP_CASES = list(_op_cases(seeded_rng(*OP_SEED)))


@pytest.mark.parametrize("name,fn,params", OP_CASES,
                         ids=[f"{name}-<lambda>-<lambda>" for name, _, _ in OP_CASES])
def test_primitive_gradients(name, fn, params):
    report = grad_check(lambda: fn(params), params, eps=1e-6, tol=1e-4)
    assert report.passed, report.format_table()


def test_embedding_lookup_gradient_scatter_adds():
    # exact: a repeated id's row receives the sum of its upstream rows
    table = Tensor(np.zeros((6, 4)), requires_grad=True)
    ids = np.array([1, 3, 1, 5])
    g = RNG.uniform(-1.0, 1.0, (4, 4))
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(ad.embedding_lookup(table, ids), Tensor(g))))
    want = np.zeros((6, 4))
    want[1], want[3], want[5] = g[0] + g[2], g[1], g[3]
    np.testing.assert_array_equal(table.grad, want)


BASIC_KEYS = [slice(1, 4), slice(None, None, 2), slice(-3, None), 2, -1,
              np.int64(3), (slice(None), slice(-4, -1, 2)),
              (1, slice(None, None, -1)), (slice(1, 5, 3), -2, slice(None)),
              (-1, 2, 3)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("key", BASIC_KEYS, ids=[repr(k) for k in BASIC_KEYS])
def test_slice_basic_key_backward_bytes_match_add_at(key, dtype):
    # slices and ints repeat no index, so adding in place into zeros gives
    # the bytes np.add.at gives, a -0.0 upstream entry included
    rng = seeded_rng(11)
    a = Tensor(rng.standard_normal((5, 6, 4)).astype(dtype), requires_grad=True)
    with Tape() as tape:
        out = ad.slice_(a, key)
    (_, _, _, backward), = tape.nodes
    g = rng.standard_normal(out.shape).astype(dtype)
    g.reshape(-1)[::3] = -0.0
    want = np.zeros_like(a.data)
    np.add.at(want, key, g)
    got, = backward(g)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


# ----------------------------------------------------------- cosine_distance

def test_cosine_distance_identical_vectors():
    a = Tensor(np.array([1.0, 2.0, -3.0]))
    assert abs(ad.cosine_distance(a, a).item()) < 1e-6


def test_cosine_distance_orthogonal():
    a = Tensor(np.array([1.0, 0.0]))
    b = Tensor(np.array([0.0, 2.0]))
    assert ad.cosine_distance(a, b).item() == pytest.approx(1.0, abs=1e-9)
    # row-wise along the last axis: orthogonal, identical, opposite rows
    rows_a = Tensor(np.array([[1.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
    rows_b = Tensor(np.array([[0.0, 2.0], [3.0, 4.0], [-2.0, -2.0]]))
    np.testing.assert_allclose(ad.cosine_distance(rows_a, rows_b).data,
                               [1.0, 0.0, 2.0], atol=1e-9)


def test_cosine_distance_gradient():
    # closed form: d(1 - cos)/da = -(b / (|a||b|) - cos * a / |a|^2); the FD
    # cases cosine_distance and cosine_vector are in the sweep above
    a, b = rand_t(3, 6), rand_t(3, 6)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.cosine_distance(a, b)))
    na = np.linalg.norm(a.data, axis=-1, keepdims=True)
    nb = np.linalg.norm(b.data, axis=-1, keepdims=True)
    cos = (a.data * b.data).sum(-1, keepdims=True) / (na * nb)
    np.testing.assert_allclose(a.grad, -(b.data / (na * nb) - cos * a.data / na**2),
                               rtol=1e-6, atol=1e-12)
    np.testing.assert_allclose(b.grad, -(a.data / (na * nb) - cos * b.data / nb**2),
                               rtol=1e-6, atol=1e-12)


def test_cosine_distance_zero_row_gradient_is_minus_b_over_eps():
    # at a = 0 the guarded expression is 1 - a.b / eps to first order: its
    # gradient is -b / eps for a and 0 for b, finite where sqrt's own
    # derivative is not
    a = Tensor(np.zeros((2, 4)), requires_grad=True)
    b = Tensor(np.ones((2, 4)), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.cosine_distance(a, b, eps=1e-8)))
    assert np.all(np.isfinite(a.grad)) and np.all(np.isfinite(b.grad))
    np.testing.assert_allclose(a.grad, -b.data / 1e-8, rtol=1e-12)
    np.testing.assert_array_equal(b.grad, 0.0)


# ------------------------------------------------------------- ste_threshold

def test_ste_forward_inclusive_boundary():
    s = Tensor(np.array([0.7, 0.2, 0.5]))
    np.testing.assert_array_equal(ad.ste_threshold(s, 0.5).data, [1.0, 0.0, 1.0])


def test_ste_all_zero_input():
    s = Tensor(np.zeros(4))
    np.testing.assert_array_equal(ad.ste_threshold(s, 0.5).data, np.zeros(4))


def test_ste_backward_is_identity():
    s = Tensor(np.array([0.7, 0.2, 0.5]), requires_grad=True)
    with Tape() as tape:
        y = ad.sum_(ad.ste_threshold(s, 0.5))
    tape.backward(y)
    np.testing.assert_array_equal(s.grad, np.ones(3))


def test_ste_rejects_degenerate_threshold():
    with pytest.raises(ValueError):
        ad.ste_threshold(Tensor(np.zeros(2)), 1.0)


# ---------------------------------------------------------------- invariants

def test_forward_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-2, 2, (4, 5)))
        w = Tensor(rng.uniform(-2, 2, (5, 3)))
        return ad.softmax(ad.matmul(ad.relu(x), w), axis=-1).data.tobytes()

    assert run() == run()


def test_random_primitive_sweep_in_range():
    # spec invariant: every primitive, random inputs in [-2, 2], rel err < 1e-4
    x = rand_t(2, 3)
    makers = [
        lambda: ad.relu(ad.add(ad.mul(x, x), 0.3)),
        lambda: ad.sigmoid(ad.sub(x, 0.1)),
        lambda: ad.softmax(x, axis=0),
        lambda: ad.sigmoid(ad.mul(x, 2.5)),
    ]
    for make in makers:
        sc = scalarize()
        fd_assert(lambda: sc(make()), {"x": x})
