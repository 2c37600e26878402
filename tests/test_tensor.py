import itertools

import numpy as np
import pytest

from advseg.layers import sigmoid
from advseg.losses import PROB_EPS
from advseg.tensor import (
    GraphError,
    ShapeError,
    Tensor,
    add,
    backward,
    clamp,
    concat_channels,
    grad_check,
    log,
    max_with_scalar,
    mul,
    neg,
    reduce_mean,
    reduce_sum,
    slice_batch,
    slice_channels,
    sub,
)


def test_scalar_scaling():
    out = mul(Tensor([1.0, 2.0, 3.0]), 2.0)
    np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])


def test_additive_inverse():
    x = Tensor([[1.0, -2.0], [0.5, 7.0]])
    out = add(x, neg(x))
    np.testing.assert_array_equal(out.data, np.zeros((2, 2)))


def test_log_gradient_matches_finite_difference():
    err = grad_check(lambda t: reduce_sum(log(t)), Tensor([0.5]), h=1e-6)
    assert err < 1e-6
    x = Tensor([0.5], requires_grad=True)
    backward(reduce_sum(log(x)))
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, [2.0], rtol=1e-12)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_log_domain_error():
    with pytest.raises(ValueError):
        log(Tensor([1.0, 0.0]))


def test_reduce_examples():
    assert reduce_sum(Tensor(np.ones((2, 2)))).item() == 4.0
    assert reduce_mean(Tensor([1.0, 3.0])).item() == 2.0
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    backward(reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_reduce_axis_out_of_range():
    with pytest.raises(ShapeError):
        reduce_sum(Tensor(np.ones((2, 2))), axes=(2,))


def test_concat_channels():
    a = Tensor(np.full((3, 4, 4), 1.0), requires_grad=True)
    b = Tensor(np.full((3, 4, 4), 2.0), requires_grad=True)
    out = concat_channels([a, b])
    assert out.shape == (6, 4, 4)
    backward(reduce_sum(out))
    np.testing.assert_array_equal(a.grad, np.ones((3, 4, 4)))
    np.testing.assert_array_equal(b.grad, np.ones((3, 4, 4)))


def test_concat_spatial_mismatch():
    with pytest.raises(ShapeError):
        concat_channels([Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 4, 5)))])


def test_slice_channels_roundtrip():
    x = Tensor(np.arange(24.0).reshape(2, 3, 2, 2), requires_grad=True)
    mid = slice_channels(x, 1, 2)
    np.testing.assert_array_equal(mid.data, x.data[:, 1:2])
    backward(reduce_sum(mid))
    expect = np.zeros((2, 3, 2, 2))
    expect[:, 1:2] = 1.0
    np.testing.assert_array_equal(x.grad, expect)


def test_slice_batch_halves_and_zero_filled_gradient():
    x = Tensor(np.arange(24.0).reshape(2, 3, 2, 2), requires_grad=True)
    first, second = slice_batch(x, 0, 1), slice_batch(x, 1, 2)
    assert first.node.op_kind == "slice_batch"
    np.testing.assert_array_equal(first.data, x.data[:1])
    np.testing.assert_array_equal(second.data, x.data[1:])
    backward(reduce_sum(mul(second, 2.0)))
    expect = np.zeros((2, 3, 2, 2))
    expect[1] = 2.0
    np.testing.assert_array_equal(x.grad, expect)
    for bad in ((1, 1), (0, 3), (-1, 1)):
        with pytest.raises(ShapeError):
            slice_batch(x, *bad)


def test_backward_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(reduce_sum(mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_constant_wrt_leaf():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    backward(reduce_sum(mul(x, x)))
    assert y.grad is None


def test_backward_nonscalar_root_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        backward(add(x, 1.0))


def test_backward_accumulates_and_resets():
    x = Tensor([1.0, 2.0], requires_grad=True)

    def run():
        backward(reduce_sum(mul(x, x)))

    run()
    first = x.grad.copy()
    run()
    np.testing.assert_array_equal(x.grad, 2 * first)
    x.zero_grad()
    run()
    np.testing.assert_array_equal(x.grad, first)


def test_composed_graph_matches_finite_differences():
    rng = np.random.default_rng(7)

    def f(t):
        a = mul(t, t)
        b = sigmoid(neg(clamp(t, -1.5, 1.5)))
        c = mul(a, log(add(b, 1.0)))
        return reduce_sum(mul(c, c))

    for _ in range(5):
        x = Tensor(rng.uniform(-1.2, 1.2, size=(3, 2)))
        assert grad_check(f, x) < 1e-4


def test_grad_check_linear_exact():
    x = Tensor(np.random.default_rng(1).normal(size=(4,)))
    assert grad_check(reduce_sum, x) < 1e-9


def test_grad_check_sigmoid_like():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(5,)))

    def f(t):
        return reduce_sum(log(sigmoid(t)))

    assert grad_check(f, x) < 1e-4


def test_grad_check_clamp_away_from_boundary():
    rng = np.random.default_rng(4)
    vals = rng.uniform(-2.0, 2.0, size=(6,))
    vals = vals[np.abs(np.abs(vals) - 1.0) > 1e-3][:4]

    def f(t):
        return reduce_sum(mul(clamp(t, -1.0, 1.0), t))

    assert grad_check(f, Tensor(vals)) < 1e-4


def test_grad_check_rejects_nonscalar():
    with pytest.raises(GraphError):
        grad_check(lambda t: add(t, 1.0), Tensor([1.0, 2.0]))


def test_direct_elementwise_and_reduce_ops():
    x = Tensor([1.0, 2.0])
    np.testing.assert_array_equal(add(x, 1.0).data, [2.0, 3.0])
    np.testing.assert_array_equal(neg(x).data, [-1.0, -2.0])
    np.testing.assert_array_equal(clamp(x, 0.0, 1.5).data, [1.0, 1.5])
    assert reduce_mean(x).item() == 1.5


# signed zeros, infinities, NaN, the clamp bounds used in the package and
# the sigmoid clip at +-30, each exactly
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, PROB_EPS, 1.0 - PROB_EPS, 2.5,
         -30.0, 30.0, np.nextafter(30.0, 31.0), np.nextafter(-30.0, -31.0)]


def test_rewritten_primitives_match_numpy_bit_for_bit():
    # clamp and sigmoid clip through np.minimum/np.maximum, and the reductions
    # call np.add.reduce: each must give the bits of the numpy formulation
    # written here, on ties with the bounds and at lengths that leave
    # vector loops different tails
    rng = np.random.default_rng(17)
    for n in (0, 1, 3, 8, 17, 1000):
        x = rng.permutation(np.concatenate([EDGES, rng.normal(scale=20.0, size=n)]))
        for lo, hi in ((0.0, 2.5), (-0.0, 0.0), (0.0, -0.0), (2.5, 2.5),
                       (PROB_EPS, 1.0 - PROB_EPS), (-30.0, 30.0)):
            assert clamp(Tensor(x), lo, hi).data.tobytes() == \
                np.clip(x, lo, hi).tobytes(), (n, lo, hi)
        z = np.clip(x, -30.0, 30.0)
        assert sigmoid(Tensor(x)).data.tobytes() == \
            (1.0 / (1.0 + np.exp(-z))).tobytes(), n
    a = rng.normal(size=(2, 3, 4, 5))
    a.reshape(-1)[:len(EDGES)] = EDGES
    with np.errstate(invalid="ignore"):  # inf - inf
        for arr in (a, a[:, :, :1, :1], np.array(-0.0), np.array(2.5)):
            for r in range(arr.ndim + 1):
                for axes in itertools.combinations(range(arr.ndim), r):
                    t = Tensor(arr)
                    assert reduce_sum(t, axes).data.tobytes() == \
                        arr.sum(axis=axes).tobytes(), (arr.shape, axes)
                    assert reduce_mean(t, axes).data.tobytes() == \
                        arr.mean(axis=axes).tobytes(), (arr.shape, axes)
            assert reduce_sum(Tensor(arr)).data.tobytes() == arr.sum().tobytes()
            assert reduce_mean(Tensor(arr)).data.tobytes() == arr.mean().tobytes()


def test_max_with_scalar_tie_gives_zero_grad():
    x = Tensor([0.0, 1.0, -1.0], requires_grad=True)
    backward(reduce_sum(max_with_scalar(x, 0.0)))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    y = mul(x.detach(), 3.0)
    assert not y.requires_grad
    z = add(mul(x, 1.0), y)
    backward(reduce_sum(z))
    np.testing.assert_array_equal(x.grad, [1.0])


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = reduce_sum(mul(log(add(sigmoid(mul(x, 0.5)), 1.0)), x))
        backward(y)
        return y.data.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1.tobytes() == v2.tobytes()
    assert g1.tobytes() == g2.tobytes()
