import itertools
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from advseg.tensor import (
    ShapeError,
    Tensor,
    backward,
    grad_check,
    mul,
    overridden_backward,
    reduce_sum,
)

from oracles import (
    conv2d_grads_naive,
    conv2d_naive,
    dilate_kernel,
    lcn_per_plane,
    maxpool2_gather,
)


def _params(kernel, bias=None, **kw):
    kernel = np.asarray(kernel, dtype=float)
    if bias is None:
        bias = np.zeros(kernel.shape[0])
    return ConvParams(Tensor(kernel), Tensor(bias), **kw)


def _same(k, dilation):
    """The loop oracles' geometry of a same-padded conv: stride 1, padding
    dilation*(k-1)/2."""
    return 1, dilation, dilation * (k - 1) // 2


def _set_band(m, positions):
    """Bands of ``positions`` output positions per image (whole rows, at
    least one) at every batch size: none widens toward ``WIDE``."""
    m.setattr(layers, "BAND", positions)
    m.setattr(layers, "WIDE", positions)


def test_conv_all_ones_single_window():
    x = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, _params(np.ones((1, 1, 3, 3))))
    assert out.shape == (1, 1, 3, 3)
    # taps that land on the zero padding add nothing
    np.testing.assert_array_equal(out.data[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])


def test_conv_dilation2_effective_extent5():
    x = Tensor(np.ones((1, 1, 5, 5)))
    out = conv2d(x, _params(np.ones((1, 1, 3, 3)), dilation=2))
    assert out.shape == (1, 1, 5, 5)
    # taps at offsets -2, 0, 2: all three land inside only at the centre
    inside = np.array([2.0, 2.0, 3.0, 2.0, 2.0])
    np.testing.assert_array_equal(out.data[0, 0], np.outer(inside, inside))


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 1, 4, 5)))
    out = conv2d(x, _params(np.ones((1, 1, 1, 1))))
    np.testing.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize("shape", [(3, 3, 2, 2), (3, 3, 3, 1), (3, 3, 1, 3),
                                   (3, 3, 4, 4)])
def test_conv_params_reject_kernels_that_are_not_odd_squares(shape):
    with pytest.raises(ShapeError):
        _params(np.ones(shape))


@pytest.mark.parametrize("shape", [(1, 1, 0, 4), (1, 1, 4, 0), (1, 4, 4)])
def test_conv_rejects_inputs_that_are_not_4d_images(shape):
    with pytest.raises(ShapeError, match="4D with nonzero extents"):
        conv2d(Tensor(np.ones(shape)), _params(np.ones((1, 1, 3, 3))))


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for k, dilation in [(3, 1), (3, 2), (3, 3), (1, 2), (5, 1)]:
        x = rng.normal(size=(2, 3, 9, 8))
        kern = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        got = conv2d(Tensor(x), _params(kern, b, dilation=dilation)).data
        want = conv2d_naive(x, kern, b, *_same(k, dilation))
        assert got.shape == want.shape == (2, 4, 9, 8)
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
    p = ConvParams(k, b)

    def loss_wrt(t):
        return lambda _: reduce_sum(
            mul(conv2d(x, p), conv2d(x, p)))

    for leaf in (x, k, b):
        assert grad_check(loss_wrt(leaf), leaf) < 1e-4


# (k, dilation) on 9x8 inputs: 1x1, 3x3 and 5x5 kernels, and a dilated
# kernel wider than the image
CONV_GEOMETRIES = [(3, 1), (3, 2), (1, 3), (5, 1), (3, 4)]


def test_conv_backward_matches_loop_oracle():
    rng = np.random.default_rng(10)
    for k, dilation in CONV_GEOMETRIES:
        x = Tensor(rng.normal(size=(2, 3, 9, 8)), requires_grad=True)
        kern = Tensor(rng.normal(size=(4, 3, k, k)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        out = conv2d(x, ConvParams(kern, b, dilation))
        g = rng.normal(size=out.shape)
        gx, gk, gb = out.node.backward_fn(g)
        want_gx, want_gk = conv2d_grads_naive(x.data, kern.data, g, *_same(k, dilation))
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gk, want_gk, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)


def test_conv_kernel_grad_of_a_frozen_input_matches_loop_oracle():
    # only the kernel and bias need a gradient: the rule takes the
    # forward's columns of the input instead of the output gradient's
    rng = np.random.default_rng(13)
    for k, dilation in CONV_GEOMETRIES:
        x = Tensor(rng.normal(size=(2, 3, 9, 8)))
        kern = Tensor(rng.normal(size=(4, 3, k, k)), requires_grad=True)
        out = conv2d(x, ConvParams(kern, Tensor(np.zeros(4)), dilation))
        g = rng.normal(size=out.shape)
        gx, gk, gb = out.node.backward_fn(g)
        assert gx is None and gb is None
        assert gk.flags.c_contiguous
        want_gk = conv2d_grads_naive(x.data, kern.data, g, *_same(k, dilation))[1]
        np.testing.assert_allclose(gk, want_gk, rtol=1e-12, atol=1e-12)


def test_conv_kernel_grad_check_with_a_frozen_input():
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(0.2, 1.0, size=(2, 3, 9, 9)))
    k = Tensor(rng.uniform(-0.5, 0.5, size=(4, 3, 3, 3)))
    b = Tensor(rng.uniform(-0.2, 0.2, size=4))

    def f(t):  # dilation 2; x never needs a gradient
        out = conv2d(x, ConvParams(t, b, 2))
        return reduce_sum(mul(out, out))

    assert grad_check(f, k) < TOLERANCE
    with overridden_backward(
            "conv2d", lambda grads: (grads[0], grads[1][:, :, ::-1, ::-1], grads[2])):
        assert grad_check(f, k) > TOLERANCE


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), c=st.integers(1, 2), h=st.integers(1, 12),
       w=st.integers(1, 12), k=st.sampled_from([1, 3, 5]), dilation=st.integers(1, 4),
       band=st.integers(1, 40), seed=st.integers(0, 2 ** 16))
def test_conv_same_padded_matches_loop_oracles(n, c, h, w, k, dilation, band, seed):
    # images smaller than the dilated kernel included; a small band splits
    # forward and backward into several bands of columns
    rng = np.random.default_rng(seed)
    x, g = rng.normal(size=(n, c, h, w)), rng.normal(size=(n, 2, h, w))
    kern, b = rng.normal(size=(2, c, k, k)), rng.normal(size=2)
    geom = _same(k, dilation)
    want_gx, want_gk = conv2d_grads_naive(x, kern, g, *geom)
    with pytest.MonkeyPatch.context() as m:
        _set_band(m, band)
        xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, kern, b))
        out = conv2d(xt, ConvParams(kt, bt, dilation))
        gx, gk, gb = out.node.backward_fn(g)
        # the kernel-only path: the input needs no gradient
        frozen = conv2d(Tensor(x), ConvParams(kt, Tensor(b), dilation))
        fgx, fgk, fgb = frozen.node.backward_fn(g)
    assert out.shape == (n, 2, h, w) and gx.shape == x.shape
    np.testing.assert_allclose(out.data, conv2d_naive(x, kern, b, *geom),
                               rtol=1e-12, atol=1e-12)
    assert frozen.data.tobytes() == out.data.tobytes()
    np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gk, want_gk, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)
    assert fgx is None and fgb is None
    np.testing.assert_allclose(fgk, want_gk, rtol=1e-12, atol=1e-12)


def test_conv_backward_only_for_operands_that_required_grad():
    rng = np.random.default_rng(12)
    xd, kd, bd = (rng.normal(size=(1, 2, 5, 5)), rng.normal(size=(3, 2, 3, 3)),
                  rng.normal(size=3))
    for flags in itertools.product((False, True), repeat=3):
        if not any(flags):
            continue
        x, k, b = (Tensor(d, requires_grad=f) for d, f in zip((xd, kd, bd), flags))
        out = conv2d(x, ConvParams(k, b))
        # flags set after the op is built do not change what backward computes
        for t in (x, k, b):
            t.requires_grad = True
        grads = out.node.backward_fn(np.ones(out.shape))
        assert [gr is not None for gr in grads] == list(flags)


def test_dropped_activations_are_freed_before_backward():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
    p = _params(rng.normal(size=(4, 3, 3, 3)))
    p.kernel.requires_grad = p.bias.requires_grad = True
    frozen = _params(rng.normal(size=(2, 4, 3, 3)))
    pre = conv2d(x, p)
    pre_ref = weakref.ref(pre.data)
    act = relu(pre)
    del pre  # relu's rule keeps a mask, not its input
    assert pre_ref() is None
    act_ref = weakref.ref(act.data)
    # a constant kernel needs no gradient, so the rule keeps no input array
    root = reduce_sum(conv2d(act, frozen))
    del act
    assert act_ref() is None
    backward(root)
    assert x.grad.shape == x.shape and p.kernel.grad.shape == p.kernel.shape


def test_conv_consecutive_calls_leave_earlier_results_unchanged():
    rng = np.random.default_rng(13)

    def op(shape, kshape, dilation):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        p = ConvParams(Tensor(rng.normal(size=kshape), requires_grad=True),
                       Tensor(rng.normal(size=kshape[0]), requires_grad=True), dilation)
        return x, p

    x1, p1 = op((2, 3, 7, 6), (4, 3, 3, 3), 1)
    first = conv2d(x1, p1)
    fresh = conv2d(x1, p1)
    g1 = rng.normal(size=first.shape)
    want_out = fresh.data.copy()
    want_grads = [a.copy() for a in fresh.node.backward_fn(g1)]
    # the second call is larger, so it also grows the shared column buffer
    x2, p2 = op((3, 5, 12, 12), (6, 5, 3, 3), 2)
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
        # 20 columns wide and 30 or more rows high: forward and backward
        # span several bands of columns
        x = Tensor(rng.normal(size=(2, 3, 30 + 2 * i, 20)), requires_grad=True)
        p = ConvParams(Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True),
                       Tensor(rng.normal(size=4)), 1 + i % 2)
        out = conv2d(x, p)
        assert out.shape[2] > 2 * layers.band_rows(2, out.shape[3], p.kernel.size)
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


# (n, c, h, w, k, dilation): one image and several, dilation across band
# edges, and heights that leave a short last band at 2 rows per band (the
# outputs are 8 wide)
BANDED_GEOMETRIES = [(1, 3, 9, 8, 3, 1), (3, 2, 17, 8, 3, 1),
                     (2, 3, 13, 8, 3, 2), (2, 2, 23, 8, 5, 3)]
# outputs 4 wide: OpenBLAS sums a product only a few columns wide in another
# order than a wide one, so one row per band changes the last bits here
NARROW_GEOMETRY = (3, 2, 17, 4, 3, 1)


def _conv_fwd_bwd(x, k, b, g, dilation):
    xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, b))
    out = conv2d(xt, ConvParams(kt, bt, dilation))
    return (out.data,) + out.node.backward_fn(g)


def test_conv_results_do_not_depend_on_band_size(monkeypatch):
    rng = np.random.default_rng(15)
    for n, c, h, w, kk, dilation in BANDED_GEOMETRIES + [NARROW_GEOMETRY]:
        exact = (n, c, h, w, kk, dilation) != NARROW_GEOMETRY
        x = rng.normal(size=(n, c, h, w))
        k = rng.normal(size=(4, c, kk, kk))
        b = rng.normal(size=4)
        g = rng.normal(size=(n, 4, h, w))
        runs = []
        for band in (1, 17, 10 ** 6):  # one row per band, several, one band
            _set_band(monkeypatch, band)
            runs.append(_conv_fwd_bwd(x, k, b, g, dilation))
            if band == 17:  # several bands, the last one short
                rows = layers.band_rows(n, w, k.size)
                assert h > rows and h % rows
        geom = _same(kk, dilation)
        want_gx, want_gk = conv2d_grads_naive(x, k, g, *geom)
        for out, gx, gk, gb in runs:
            if exact:
                assert out.tobytes() == runs[-1][0].tobytes()
                assert gx.tobytes() == runs[-1][1].tobytes()
            np.testing.assert_allclose(out, runs[-1][0], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gx, runs[-1][1], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gk, runs[-1][2], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out, conv2d_naive(x, k, b, *geom),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gk, want_gk, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)


def test_conv_bands_large_enough_to_thread_match_einsum(monkeypatch):
    # at the shipped band size for two images, each band's products are
    # 16 x 144 x 256 multiply-adds per image, which OpenBLAS splits across
    # threads when it has more than one
    rng = np.random.default_rng(18)
    x, k = rng.normal(size=(2, 16, 32, 64)), rng.normal(size=(16, 16, 3, 3))
    g = rng.normal(size=(2, 16, 32, 64))
    assert layers.band_rows(2, 64, k.size) * 64 == 256
    shipped = _conv_fwd_bwd(x, k, np.zeros(16), g, 1)
    monkeypatch.setattr(layers, "BAND", 10 ** 6)
    whole = _conv_fwd_bwd(x, k, np.zeros(16), g, 1)
    assert shipped[0].tobytes() == whole[0].tobytes()
    assert shipped[1].tobytes() == whole[1].tobytes()
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3), axis=(2, 3))
    np.testing.assert_allclose(shipped[0], np.einsum("ncijab,ocab->noij", windows, k),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(shipped[2], np.einsum("ncijab,noij->ocab", windows, g),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(shipped[2], whole[2], rtol=1e-12, atol=1e-12)


def _strided_copy(a):
    """The values of ``a`` in an array that is not C-contiguous."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    return wide[..., ::2]


def _one_by_one_fwd_bwd(x, k, b, g, monkeypatch):
    """Forward and the three gradients of a 1x1 conv, plus whether the call
    wrote a zero grid (it starts from an empty scratch buffer)."""
    monkeypatch.setattr(layers, "_workspace", threading.local())
    xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, b))
    out = conv2d(xt, ConvParams(kt, bt, dilation=2))
    grads = out.node.backward_fn(g)
    # the kernel-only gradient reads the input's columns instead
    frozen = conv2d(Tensor(x), ConvParams(kt, bt)).node.backward_fn(g)[1]
    return ((out.data,) + grads + (frozen,),
            hasattr(layers._workspace, "buf"))


def test_conv_1x1_reads_its_input_as_columns(monkeypatch):
    rng = np.random.default_rng(19)
    x, g = rng.normal(size=(3, 5, 9, 8)), rng.normal(size=(3, 4, 9, 8))
    k, b = rng.normal(size=(4, 5, 1, 1)), rng.normal(size=4)
    for band in (1, 17, 10 ** 6):  # one row per band, 2 rows, one band
        _set_band(monkeypatch, band)
        as_is, wrote_grid = _one_by_one_fwd_bwd(x, k, b, g, monkeypatch)
        assert not wrote_grid
        # views that are not C-contiguous go through the zero grid
        grid, wrote_grid = _one_by_one_fwd_bwd(_strided_copy(x), k, b,
                                               _strided_copy(g), monkeypatch)
        assert wrote_grid
        for got, want in zip(as_is, grid):
            assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(as_is[0], np.einsum("ncij,oc->noij", x, k[:, :, 0, 0])
                               + b.reshape(1, 4, 1, 1), rtol=1e-12, atol=1e-12)


def test_conv_1x1_broadcast_output_gradient_takes_the_grid(monkeypatch):
    rng = np.random.default_rng(20)
    xd, kd, bd = (rng.normal(size=(2, 6, 8, 8)), rng.normal(size=(3, 6, 1, 1)),
                  rng.normal(size=3))
    grads = []
    for through_sum in (True, False):
        monkeypatch.setattr(layers, "_workspace", threading.local())
        x, k, b = (Tensor(a, requires_grad=True) for a in (xd, kd, bd))
        out = conv2d(x, ConvParams(k, b))
        assert not hasattr(layers._workspace, "buf")
        if through_sum:
            # reduce_sum's backward hands the rule a broadcast view of ones
            backward(reduce_sum(out))
            assert hasattr(layers._workspace, "buf")
            grads.append((x.grad, k.grad, b.grad))
        else:
            grads.append(out.node.backward_fn(np.ones(out.shape)))
            assert not hasattr(layers._workspace, "buf")
    for got, want in zip(*grads):
        assert got.tobytes() == want.tobytes()


def test_conv_scratch_holds_grid_and_one_band():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(2, 3, 40, 20)), requires_grad=True)
    p = ConvParams(Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True),
                   Tensor(np.zeros(4)))
    sizes = []

    def work():  # in a thread of its own, so the scratch buffer starts empty
        out = conv2d(x, p)
        out.node.backward_fn(np.ones(out.shape))
        sizes.append(layers._workspace.buf.size)

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=60)
    # fewer than four images widen a band toward WIDE positions in all: for
    # two images, twice BAND's positions per image
    rows = layers.band_rows(2, 20, p.kernel.size)
    assert rows == 2 * layers.BAND // 20 < 40
    # zero grid (forward: 3 channels, backward: 4) plus one band of columns
    want = max(2 * c * 42 * 22 + 2 * c * 9 * rows * 20 for c in (3, 4))
    assert sizes == [want]


def test_conv_scratch_starts_on_a_cache_line():
    rng = np.random.default_rng(18)
    offsets = []

    def work():  # a fresh thread's buffer grows with every larger request
        for extent in range(6, 40, 3):
            x = Tensor(rng.normal(size=(1, 2, extent, extent + 1)))
            conv2d(x, ConvParams(Tensor(rng.normal(size=(3, 2, 3, 3))),
                                 Tensor(np.zeros(3))))
            offsets.append(layers._workspace.buf.ctypes.data % 64)

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=60)
    assert len(offsets) == 12 and set(offsets) == {0}


def test_gradcheck_banded_kernel_case_spans_several_bands(monkeypatch):
    (kern, f), = [(x, f) for name, x, f in _layer_cases()
                  if name == "conv2d_kernel_banded"]
    calls = []
    real = layers.conv2d

    def spy(x, p):
        out = real(x, p)
        calls.append((x.shape, out.shape))
        return out

    monkeypatch.setattr(layers, "conv2d", spy)
    f(kern)
    (x_shape, out_shape), = calls
    # forward bands cover the output's rows, backward bands the input's
    for h, w in (out_shape[2:], x_shape[2:]):
        assert h > layers.band_rows(x_shape[0], w, kern.size)
    monkeypatch.undo()
    assert grad_check(f, kern) < TOLERANCE


def test_gradcheck_flags_conv_kernel_grad_without_final_flip():
    """Negative control: a kernel gradient that comes back flipped must fail
    every conv kernel case, whichever columns it is formed from."""
    kernel_cases = [(name, x, f) for name, x, f in _layer_cases()
                    if name.startswith("conv2d_kernel")]
    assert len(kernel_cases) == 3
    with overridden_backward(
            "conv2d", lambda grads: (grads[0], grads[1][:, :, ::-1, ::-1], grads[2])):
        for name, x, f in kernel_cases:
            assert grad_check(f, x) > TOLERANCE, name


def test_gradcheck_flags_conv_input_grad_with_unflipped_kernel(monkeypatch):
    """Negative control: an input gradient that correlates with the kernel
    as stored (unflipped) must fail every conv input-gradient case."""
    real = layers.conv2d

    def unflipped(x, p):
        out = real(x, p)
        if x.requires_grad:
            # the input gradient of a conv with the flipped kernel is the
            # correlation with the unflipped one
            q = ConvParams(Tensor(p.kernel.data[:, :, ::-1, ::-1]), p.bias, p.dilation)
            wrong = real(x, q).node.backward_fn
            right = out.node.backward_fn
            out.node.backward_fn = lambda g: (wrong(g)[0],) + right(g)[1:]
        return out

    monkeypatch.setattr(layers, "conv2d", unflipped)
    input_cases = [(name, x, f) for name, x, f in _layer_cases()
                   if name.startswith("conv2d")
                   and not name.startswith(("conv2d_kernel", "conv2d_bias"))]
    assert len(input_cases) == 2
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
    assert grad_check(lambda t: reduce_sum(mul(maxpool2(t), maxpool2(t))), x) < 1e-4


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


def test_maxpool_batched_gradcheck_case_and_negative_control():
    (x, f), = [(x, f) for name, x, f in _layer_cases() if name == "maxpool2_batched"]
    assert x.shape[:2] == (2, 3)
    assert grad_check(f, x) < TOLERANCE
    with overridden_backward("maxpool2"):
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


def test_relu_tie_gives_zero_grad():
    x = Tensor([0.0, 1.0, -1.0, -0.0], requires_grad=True)
    out = relu(x)
    assert out.node.op_kind == "relu"
    backward(reduce_sum(out))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])


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
        return reduce_sum(mul(channel_softmax(t), weights))

    assert grad_check(f, x) < 1e-4


def test_sigmoid_grad_check():
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(-2, 2, size=(3, 3)))
    assert grad_check(lambda t: reduce_sum(mul(sigmoid(t), sigmoid(t))), x) < 1e-4


def test_lcn_constant_image_is_zero():
    img = np.full((3, 12, 12), 0.7)
    out = local_contrast_normalize(img, window=5)
    # numerator is zero up to box-sum rounding; the 0.01 floor caps the blowup
    np.testing.assert_allclose(out, np.zeros_like(img), atol=1e-9)


def test_lcn_interior_local_mean_near_zero():
    rng = np.random.default_rng(8)
    img = rng.uniform(size=(3, 24, 24))
    out = local_contrast_normalize(img, window=5)
    r = 2
    for c in range(3):
        for i in range(8, 16):
            for j in range(8, 16):
                window = out[c, i - r: i + r + 1, j - r: j + r + 1]
                # local stats shift slightly because each neighbor has its
                # own window; near zero, not exactly zero
                assert abs(window.mean()) < 0.35


def test_lcn_bright_pixel():
    img = np.full((1, 15, 15), 0.2)
    img[0, 7, 7] = 1.0
    out = local_contrast_normalize(img, window=5)[0]
    assert out[7, 7] > 0
    assert out[7, 6] < 0 and out[6, 7] < 0


def test_lcn_even_window_errors():
    with pytest.raises(ValueError):
        local_contrast_normalize(np.zeros((3, 8, 8)), window=4)


def test_lcn_window_too_large_errors():
    with pytest.raises(ValueError):
        local_contrast_normalize(np.zeros((3, 8, 8)), window=9)


def test_lcn_rejects_a_batch():
    with pytest.raises(ShapeError, match="expected \\(C, H, W\\)"):
        local_contrast_normalize(np.zeros((2, 3, 8, 8)), window=3)


def test_lcn_bit_identical_to_per_plane_loop():
    rng = np.random.default_rng(17)
    for shape, window in (((3, 64, 64), 9), ((3, 12, 10), 5), ((1, 9, 9), 9),
                          ((2, 7, 30), 3), ((3, 11, 13), 5)):
        img = rng.uniform(size=shape)
        assert (local_contrast_normalize(img, window).tobytes()
                == lcn_per_plane(img, window).tobytes())

