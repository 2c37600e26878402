import itertools
import sys
import threading

import numpy as np
import pytest

import advseg.layers as layers
from advseg.gradcheck import TOLERANCE, _layer_cases
from advseg.layers import (
    ConvParams,
    channel_softmax,
    conv2d,
    local_contrast_normalize,
    maxpool2,
    relu,
    sigmoid,
)
from advseg.tensor import ShapeError, Tensor, backward, grad_check, reduce_sum

from oracles import conv2d_grads_naive, conv2d_naive, dilate_kernel, maxpool2_gather


def _params(kernel, bias=None, **kw):
    kernel = np.asarray(kernel, dtype=float)
    if bias is None:
        bias = np.zeros(kernel.shape[0])
    return ConvParams(Tensor(kernel), Tensor(bias), **kw)


def test_conv_all_ones_single_window():
    x = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, _params(np.ones((1, 1, 3, 3))))
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 9.0


def test_conv_dilation2_effective_extent5():
    x = Tensor(np.ones((1, 1, 5, 5)))
    out = conv2d(x, _params(np.ones((1, 1, 3, 3)), dilation=2))
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 9.0


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 1, 4, 5)))
    out = conv2d(x, _params(np.ones((1, 1, 1, 1))))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_nonpositive_extent_errors():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((1, 1, 2, 2))), _params(np.ones((1, 1, 3, 3))))


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for stride, dilation, padding in [(1, 1, 0), (2, 1, 1), (1, 2, 0), (2, 2, 2), (1, 3, 3)]:
        x = rng.normal(size=(2, 3, 9, 8))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        p = _params(k, b, stride=stride, dilation=dilation, padding=padding)
        got = conv2d(Tensor(x), p).data
        want = conv2d_naive(x, k, b, stride, dilation, padding)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv_dilation_equals_zero_expanded_kernel():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        x = rng.normal(size=(1, 2, 11, 11))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        dilated = conv2d(Tensor(x), _params(k, b, dilation=d)).data
        expanded = conv2d(Tensor(x), _params(dilate_kernel(k, d), b)).data
        np.testing.assert_allclose(dilated, expanded, atol=1e-12)


def test_conv_grad_check_all_leaves():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(1, 2, 5, 5)))
    k = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.5)
    b = Tensor(rng.normal(size=2) * 0.5)
    p = ConvParams(k, b, stride=2, dilation=1, padding=1)

    def loss_wrt(t):
        return lambda _: reduce_sum(
            conv2d(x, p) * conv2d(x, p))

    for leaf in (x, k, b):
        assert grad_check(loss_wrt(leaf), leaf) < 1e-4


# (stride, dilation, padding, kh, kw): square and rectangular kernels,
# strides that do and do not divide the padded extent, and padding wider
# than the effective kernel extent
CONV_GEOMETRIES = [(1, 1, 0, 3, 3), (2, 1, 1, 3, 3), (1, 2, 2, 3, 3),
                   (2, 2, 1, 2, 3), (3, 1, 1, 3, 2), (1, 3, 3, 1, 3),
                   (3, 1, 2, 1, 1), (2, 1, 0, 4, 1)]


def test_conv_backward_matches_loop_oracle():
    rng = np.random.default_rng(10)
    for stride, dilation, padding, kh, kw in CONV_GEOMETRIES:
        x = Tensor(rng.normal(size=(2, 3, 9, 8)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, kh, kw)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        out = conv2d(x, ConvParams(k, b, stride, dilation, padding))
        g = rng.normal(size=out.shape)
        gx, gk, gb = out.node.backward_fn(g)
        want_gx, want_gk = conv2d_grads_naive(x.data, k.data, g, stride,
                                              dilation, padding)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gk, want_gk, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)


def test_conv_input_grad_exactly_zero_where_never_read():
    # 2x3 kernel, stride 3, padding 1 on 6x6: padded rows 2 and 5 and
    # padded column 6 are never read, i.e. input rows 1, 4 and column 5
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 2, 3)))
    out = conv2d(x, ConvParams(k, Tensor(np.zeros(3)), 3, 1, 1))
    gx = out.node.backward_fn(rng.normal(size=out.shape))[0]
    unread = np.zeros((6, 6), dtype=bool)
    unread[[1, 4], :] = True
    unread[:, 5] = True
    assert np.all(gx[:, :, unread] == 0.0)
    assert np.all(gx[:, :, ~unread] != 0.0)


def test_conv_backward_only_for_operands_that_required_grad():
    rng = np.random.default_rng(12)
    xd, kd, bd = (rng.normal(size=(1, 2, 5, 5)), rng.normal(size=(3, 2, 3, 3)),
                  rng.normal(size=3))
    for flags in itertools.product((False, True), repeat=3):
        if not any(flags):
            continue
        x, k, b = (Tensor(d, requires_grad=f) for d, f in zip((xd, kd, bd), flags))
        out = conv2d(x, ConvParams(k, b, stride=2, padding=1))
        # flags set after the op is built do not change what backward computes
        for t in (x, k, b):
            t.requires_grad = True
        grads = out.node.backward_fn(np.ones(out.shape))
        assert [gr is not None for gr in grads] == list(flags)


def test_conv_consecutive_calls_leave_earlier_results_unchanged():
    rng = np.random.default_rng(13)

    def op(shape, kshape, **geom):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        p = ConvParams(Tensor(rng.normal(size=kshape), requires_grad=True),
                       Tensor(rng.normal(size=kshape[0]), requires_grad=True), **geom)
        return x, p

    x1, p1 = op((2, 3, 7, 6), (4, 3, 3, 2), stride=2, padding=1)
    first = conv2d(x1, p1)
    fresh = conv2d(x1, p1)
    g1 = rng.normal(size=first.shape)
    want_out = fresh.data.copy()
    want_grads = [a.copy() for a in fresh.node.backward_fn(g1)]
    # the second call is larger, so it also grows the shared column buffer
    x2, p2 = op((3, 5, 12, 12), (6, 5, 3, 3), dilation=2, padding=2)
    second = conv2d(x2, p2)
    np.testing.assert_array_equal(first.data, want_out)
    grads = first.node.backward_fn(g1)
    second.node.backward_fn(rng.normal(size=second.shape))
    conv2d(x1, p1).node.backward_fn(g1)
    np.testing.assert_array_equal(first.data, want_out)
    for got, want in zip(grads, want_grads):
        np.testing.assert_array_equal(got, want)


def test_conv_threads_do_not_share_columns():
    rng = np.random.default_rng(14)
    jobs = []
    for i in range(4):
        x = Tensor(rng.normal(size=(2, 3, 10 + 2 * i, 9)), requires_grad=True)
        p = ConvParams(Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True),
                       Tensor(rng.normal(size=4)), dilation=1 + i % 2, padding=1)
        out = conv2d(x, p)
        g = rng.normal(size=out.shape)
        jobs.append((x, p, g, out.data, out.node.backward_fn(g)))
    mismatches = []

    def work(x, p, g, want_out, want_grads):
        for _ in range(30):
            out = conv2d(x, p)
            grads = out.node.backward_fn(g)
            if not (np.array_equal(out.data, want_out) and all(
                    np.array_equal(a, b) for a, b in zip(grads[:2], want_grads[:2]))):
                mismatches.append(x.shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_gradcheck_flags_conv_input_grad_with_unflipped_kernel(monkeypatch):
    """Negative control: an input gradient that correlates with the kernel
    as stored (unflipped) must fail every conv input-gradient case."""
    real = layers.conv2d

    def unflipped(x, p):
        out = real(x, p)
        if x.requires_grad:
            # the input gradient of a conv with the flipped kernel is the
            # correlation with the unflipped one
            q = ConvParams(Tensor(p.kernel.data[:, :, ::-1, ::-1]), p.bias,
                           p.stride, p.dilation, p.padding)
            wrong = real(x, q).node.backward_fn
            right = out.node.backward_fn
            out.node.backward_fn = lambda g: (wrong(g)[0],) + right(g)[1:]
        return out

    monkeypatch.setattr(layers, "conv2d", unflipped)
    input_cases = [(name, x, f) for name, x, f in _layer_cases()
                   if name.startswith("conv2d")
                   and not name.startswith(("conv2d_kernel", "conv2d_bias"))]
    assert len(input_cases) == 4
    for name, x, f in input_cases:
        assert grad_check(f, x) > TOLERANCE, name


def test_maxpool_single_window():
    out = maxpool2(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert out.item() == 4.0


def test_maxpool_tie_first_in_window():
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    backward(reduce_sum(maxpool2(x)))
    np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_two_levels_shrink_16x():
    x = Tensor(np.arange(64.0).reshape(1, 1, 8, 8))
    out = maxpool2(maxpool2(x))
    assert out.shape == (1, 1, 2, 2)
    assert x.size == 16 * out.size


def test_maxpool_odd_extent_errors():
    with pytest.raises(ShapeError):
        maxpool2(Tensor(np.ones((1, 1, 3, 4))))


def test_maxpool_grad_check():
    rng = np.random.default_rng(4)
    x = Tensor(rng.permutation(16.0 * np.arange(1, 17)).reshape(1, 1, 4, 4))
    assert grad_check(lambda t: reduce_sum(maxpool2(t) * maxpool2(t)), x) < 1e-4


def _tied_pool_input():
    """Random (2, 3, 8, 6) input whose 72 windows cycle through: all zero,
    all equal, the maximum tied at each of the 6 pairs of positions, and
    distinct values."""
    rng = np.random.default_rng(12)
    windows = rng.normal(size=(2, 3, 4, 3, 4))  # last axis: row-major position
    flat = windows.reshape(-1, 4)
    pairs = list(itertools.combinations(range(4), 2))
    for k, win in enumerate(flat):
        kind = k % 9
        if kind == 0:
            win[:] = 0.0
        elif kind == 1:
            win[:] = win[0]
        elif kind < 8:
            a, b = pairs[kind - 2]
            win[[a, b]] = win.max() + 1.0
    return windows.reshape(2, 3, 4, 3, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 8, 6)


def _pool_layer(x, g):
    t = Tensor(x, requires_grad=True)
    out = maxpool2(t)
    return out.data, out.node.backward_fn(g)[0]


def _pool_last_max(x, g):
    """maxpool2 on the input flipped in both spatial axes: each window's
    gradient goes to its last maximum instead of its first."""
    out, gx = _pool_layer(x[..., ::-1, ::-1], g[..., ::-1, ::-1])
    return out[..., ::-1, ::-1], gx[..., ::-1, ::-1]


def _assert_pool_matches_gather(pool):
    x = _tied_pool_input()
    g = np.random.default_rng(13).normal(size=(2, 3, 4, 3))
    out, gx = pool(x, g)
    ref_out, ref_gx = maxpool2_gather(x, g)
    assert out.tobytes() == ref_out.tobytes()
    assert gx.tobytes() == ref_gx.tobytes()


def test_maxpool_ties_bit_identical_to_gather():
    _assert_pool_matches_gather(_pool_layer)


def test_maxpool_last_max_fails_tie_test():
    with pytest.raises(AssertionError):
        _assert_pool_matches_gather(_pool_last_max)


def test_maxpool_nan_window_outputs_nan_and_passes_no_gradient():
    x = np.arange(8.0).reshape(1, 1, 2, 4)
    x[0, 0, 1, 0] = np.nan
    out, gx = _pool_layer(x, np.ones((1, 1, 1, 2)))
    assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 7.0
    np.testing.assert_array_equal(gx[0, 0], [[0, 0, 0, 0], [0, 0, 0, 1]])


def test_maxpool_batched_gradcheck_case_and_negative_control(monkeypatch):
    (x, f), = [(x, f) for name, x, f in _layer_cases() if name == "maxpool2_batched"]
    assert x.shape[:2] == (2, 3)
    assert grad_check(f, x) < TOLERANCE
    real = layers.maxpool2

    def scaled(t):
        out = real(t)
        bw = out.node.backward_fn
        out.node.backward_fn = lambda g: (1.5 * bw(g)[0],)
        return out

    monkeypatch.setattr(layers, "maxpool2", scaled)
    assert grad_check(f, x) > TOLERANCE


def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).item() == 0.5


def test_sigmoid_saturates_finite():
    out = sigmoid(Tensor([-1e6, 1e6])).data
    assert np.all(np.isfinite(out))
    assert out[0] > 0.0 and out[1] < 1.0


def test_relu_values():
    np.testing.assert_array_equal(
        relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_channel_softmax_uniform_on_zeros():
    out = channel_softmax(Tensor(np.zeros((1, 3, 2, 2))))
    np.testing.assert_allclose(out.data, 1.0 / 3.0, rtol=1e-15)


def test_channel_softmax_is_distribution():
    rng = np.random.default_rng(5)
    out = channel_softmax(Tensor(rng.normal(scale=5.0, size=(2, 4, 3, 3)))).data
    assert np.all(out > 0.0) and np.all(out < 1.0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_channel_softmax_needs_two_channels():
    with pytest.raises(ShapeError):
        channel_softmax(Tensor(np.zeros((1, 1, 2, 2))))


def test_channel_softmax_grad_check():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(1, 3, 2, 2)))
    weights = Tensor(rng.normal(size=(1, 3, 2, 2)))

    def f(t):
        return reduce_sum(channel_softmax(t) * weights)

    assert grad_check(f, x) < 1e-4


def test_sigmoid_grad_check():
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(-2, 2, size=(3, 3)))
    assert grad_check(lambda t: reduce_sum(sigmoid(t) * sigmoid(t)), x) < 1e-4


def test_lcn_constant_image_is_zero():
    img = np.full((3, 12, 12), 0.7)
    out = local_contrast_normalize(img, window=5)
    # numerator is zero up to box-sum rounding; the 0.01 floor caps the blowup
    np.testing.assert_allclose(out, np.zeros_like(img), atol=1e-9)


def test_lcn_interior_local_mean_near_zero():
    rng = np.random.default_rng(8)
    img = rng.uniform(size=(1, 3, 24, 24))
    out = local_contrast_normalize(img, window=5)[0]
    r = 2
    for c in range(3):
        for i in range(8, 16):
            for j in range(8, 16):
                window = out[c, i - r: i + r + 1, j - r: j + r + 1]
                # local stats shift slightly because each neighbor has its
                # own window; near zero, not exactly zero
                assert abs(window.mean()) < 0.35


def test_lcn_bright_pixel():
    img = np.full((1, 1, 15, 15), 0.2)
    img[0, 0, 7, 7] = 1.0
    out = local_contrast_normalize(img, window=5)[0, 0]
    assert out[7, 7] > 0
    assert out[7, 6] < 0 and out[6, 7] < 0


def test_lcn_even_window_errors():
    with pytest.raises(ValueError):
        local_contrast_normalize(np.zeros((3, 8, 8)), window=4)


def test_lcn_window_too_large_errors():
    with pytest.raises(ValueError):
        local_contrast_normalize(np.zeros((3, 8, 8)), window=9)


def test_lcn_tensor_passthrough_is_constant():
    out = local_contrast_normalize(Tensor(np.random.default_rng(9).uniform(size=(1, 3, 9, 9))))
    assert isinstance(out, Tensor)
    assert not out.requires_grad and out.node is None
