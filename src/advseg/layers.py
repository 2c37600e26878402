"""Differentiable neural layers: strided/dilated convolution, 2x2 max
pooling, activations, per-pixel softmax, and local contrast normalization.

Convolution uses cross-correlation semantics (no kernel flip), symmetric
zero-padding only. All tensors are NCHW.

Every convolution product goes through one routine, :func:`_correlate`.
It writes a zero grid and then, one band of output rows at a time for the
whole batch, that band's im2col columns into a per-thread scratch buffer
that is reused from call to call. Each band's ``np.matmul`` writes straight
into its rows of the result, so the columns stay in cache and are never
held for the whole output at once (Goto & van de Geijn, "Anatomy of
High-Performance Matrix Multiplication", ACM TOMS 2008). A 1x1 kernel at
stride 1 over an unpadded, C-contiguous operand needs no grid: its columns
are the operand itself, so each band's are a view of the operand's rows,
and nothing is filled or copied. The bands and their sums stay as they
are, so this gives the grid's bits. The forward pass
correlates the padded input with the kernel. When the input needs a
gradient, backward builds one set of columns, from the output gradient
zero-dilated by the stride and padded by the effective kernel extent
(Dumoulin & Visin, "A guide to convolution arithmetic", arXiv 1603.07285).
Against the flipped, transposed kernel they give the input gradient;
against the input, summed over bands and flipped back, the kernel
gradient. When only the kernel gradient is needed (a network's first
layer), backward rebuilds the forward's columns of the padded input, which
are the smaller set when the layer has fewer input than output channels,
and sums their products with the output gradient. The graph keeps no
columns, and the input only when the kernel gradient is needed. Backward
computes only the gradients whose operands required one when the op was
built.

Max pooling reads the four strided views ``x[:, :, i::2, j::2]`` of its
input, one per window position, and copies nothing: the forward pass is an
elementwise maximum of the views, and backward routes each window's
gradient to its first maximum in row-major order through running masks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, _make, max_with_scalar

# per-thread scratch memory for _correlate: the zero grid plus one band of
# columns, grown (never shrunk) to the largest request so far; every call
# reuses it, so nothing kept may be a view of it. It starts on a 64-byte
# cache line (malloc promises 16 bytes): at the other three offsets a
# segmenter forward pass at 64x64 took about 10 % longer.
_workspace = threading.local()

# output positions per image in one band of im2col columns; a band is made
# of whole output rows, at least one. On a 2-vCPU VM (OpenBLAS, 1 thread),
# segmenter turns at the README config ran about 5 % faster at 128 than at
# 256, and slower at 512 and above.
BAND = 128


@dataclass
class ConvParams:
    """Learnable state plus geometry for one convolution.

    kernel: (out_channels, in_channels, kh, kw); bias: (out_channels,).
    Effective kernel extent is dilation*(k-1)+1 and must fit in the padded
    input.
    """

    kernel: Tensor
    bias: Tensor
    stride: int = 1
    dilation: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kernel.ndim != 4:
            raise ShapeError("conv kernel must be 4D (out, in, kh, kw)")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.kernel.shape[0]:
            raise ShapeError("conv bias must be 1D with out_channels entries")
        if self.stride < 1 or self.dilation < 1 or self.padding < 0:
            raise ValueError("stride/dilation must be >= 1, padding >= 0")
        if self.kernel.shape[2] < 1 or self.kernel.shape[3] < 1:
            raise ShapeError("kernel extents must be >= 1")


def conv_out_extent(extent: int, k: int, stride: int, dilation: int, padding: int) -> int:
    return (extent + 2 * padding - (dilation * (k - 1) + 1)) // stride + 1


def band_rows(wout: int) -> int:
    """Output rows in one band of columns, for outputs ``wout`` wide."""
    return max(1, BAND // wout)


def _kept(offset: int, step: int, count: int, extent: int) -> slice:
    """Indices i < count whose position offset + i*step lies in [0, extent)."""
    return slice(max(0, -(offset // step)),
                 min(count, (extent - 1 - offset) // step + 1))


def _correlate(a: np.ndarray, place: tuple, kh: int, kw: int, stride: int,
               dilation: int, kernel: np.ndarray | None = None,
               other: np.ndarray | None = None) -> tuple:
    """Products of the im2col columns ``cols`` (n, c*kh*kw, hout*wout) of
    the zero grid that ``place`` makes of ``a`` (n, c, ah, aw), built one
    band of output rows at a time into this thread's scratch buffer:

    - ``kernel @ cols`` (n, cout, hout, wout), if ``kernel`` (cout, c*kh*kw)
      is given;
    - the sum over images of ``cols @ other.T`` (c*kh*kw, d), if ``other``
      (n, d, hout, wout) is given.

    Returns both, ``None`` for one not asked for; both are fresh arrays.
    ``place`` is (step, top, left, height, width): the grid is
    (n, c, height, width) and ``a[..., i, j]`` sits at (top + i*step,
    left + j*step). Entries of ``a`` that fall outside the grid are dropped.
    A 1x1 kernel at stride 1 whose grid is ``a`` as it is reads each band's
    columns as a view of ``a`` (C-contiguous) and writes no grid.
    """
    step, top, left, height, width = place
    n, c, ah, aw = a.shape
    hout = conv_out_extent(height, kh, stride, dilation, 0)
    wout = conv_out_extent(width, kw, stride, dilation, 0)
    rows = band_rows(wout)
    depth = c * kh * kw
    as_is = (kh == kw == stride == 1 and place == (1, 0, 0, ah, aw)
             and a.flags.c_contiguous)
    if not as_is:
        n_grid = n * c * height * width
        n_all = n_grid + n * depth * min(rows, hout) * wout
        buf = getattr(_workspace, "buf", None)
        if buf is None or buf.size < n_all:
            raw = np.empty(n_all + 7)
            skip = -raw.ctypes.data % 64 // raw.itemsize
            buf = _workspace.buf = raw[skip: skip + n_all]
        grid = buf[:n_grid].reshape(n, c, height, width)
        grid.fill(0.0)
        ri, rj = _kept(top, step, ah, height), _kept(left, step, aw, width)
        if ri.start < ri.stop and rj.start < rj.stop:
            grid[:, :, top + ri.start * step: top + (ri.stop - 1) * step + 1: step,
                 left + rj.start * step: left + (rj.stop - 1) * step + 1: step] = a[:, :, ri, rj]
        s3 = buf.itemsize
        s2 = width * s3
        windows = np.ndarray((n, c, kh, kw, hout, wout), buf.dtype, buf, 0,
                             (c * height * s2, height * s2, s2 * dilation,
                              s3 * dilation, s2 * stride, s3 * stride))
    out = acc = None
    if kernel is not None:
        out = np.empty((n, kernel.shape[0], hout * wout))
    if other is not None:
        acc = np.zeros((depth, other.shape[1]))
        other = other.reshape(n, other.shape[1], hout * wout)
    for r0 in range(0, hout, rows):
        r1 = min(r0 + rows, hout)
        p0, p1 = r0 * wout, r1 * wout
        if as_is:
            cols = a[:, :, r0:r1, :].reshape(n, depth, p1 - p0)
        else:
            cols = buf[n_grid: n_grid + n * depth * (p1 - p0)].reshape(n, depth, p1 - p0)
            np.copyto(cols.reshape(n, c, kh, kw, r1 - r0, wout), windows[..., r0:r1, :])
        if out is not None:
            np.matmul(kernel, cols, out=out[:, :, p0:p1])
        if acc is not None:
            acc += np.matmul(cols, other[:, :, p0:p1].transpose(0, 2, 1)).sum(axis=0)
    if out is not None:
        out = out.reshape(n, kernel.shape[0], hout, wout)
    return out, acc


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """Cross-correlate ``x`` (N, Cin, H, W) with ``p``; differentiable in
    the input, kernel, and bias.

    Backward returns a gradient only for the operands that required one
    when the op was built, and ``None`` for the others.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be 4D, got {x.shape}")
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = p.kernel.shape
    if cin != cin_k:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {cin_k}")
    st, dil, pad = p.stride, p.dilation, p.padding
    hout = conv_out_extent(h, kh, st, dil, pad)
    wout = conv_out_extent(w, kw, st, dil, pad)
    if hout < 1 or wout < 1:
        raise ShapeError(
            f"conv2d: non-positive output extent ({hout}x{wout}) for input "
            f"{h}x{w}, kernel {kh}x{kw}, stride {st}, dilation {dil}, padding {pad}")

    kd = p.kernel.data
    padded = (1, pad, pad, h + 2 * pad, w + 2 * pad)
    out = _correlate(x.data, padded, kh, kw, st, dil, kernel=kd.reshape(cout, -1))[0]
    out += p.bias.data.reshape(1, cout, 1, 1)
    need_x, need_k, need_b = (x.requires_grad, p.kernel.requires_grad,
                              p.bias.requires_grad)
    # the rule reads the input only for the kernel gradient
    xd = x.data if need_k else None

    def bw(g):
        gx = gk = gb = None
        if need_x:
            # columns of the output gradient spread onto the stride grid and
            # padded by the effective kernel extent less the forward padding;
            # their rows are indexed (cout, kh, kw) with the kernel flipped
            eh, ew = dil * (kh - 1), dil * (kw - 1)
            spread = (st, eh - pad, ew - pad, h + eh, w + ew)
            # input gradient: stride-1 correlation with the flipped,
            # transposed kernel; positions the forward never read come out
            # exactly zero
            flipped = kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
            gx, acc = _correlate(g, spread, kh, kw, 1, dil, kernel=flipped, other=xd)
            if need_k:
                # the same columns against the input, flipped back
                gk = np.ascontiguousarray(acc.reshape(cout, kh, kw, cin)
                                          [:, ::-1, ::-1].transpose(0, 3, 1, 2))
        elif need_k:
            # no input gradient: the forward's columns of the padded input
            # against the output gradient
            acc = _correlate(xd, padded, kh, kw, st, dil, other=g)[1]
            gk = np.ascontiguousarray(acc.T).reshape(cout, cin, kh, kw)
        if need_b:
            gb = g.sum(axis=(0, 2, 3))
        return (gx, gk, gb)

    return _make(out, "conv2d", [x, p.kernel, p.bias], bw)


def maxpool2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 max pooling; gradient goes to each window's
    first maximum in row-major order. A window that holds a NaN outputs NaN
    and passes no gradient to any of its four inputs."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2 input must be 4D, got {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even extents, got {h}x{w}")
    xd = x.data
    # np.maximum returns its second operand when the two compare equal, so
    # listing the later positions first keeps the first maximum's value (the
    # sign of a zero) on ties
    out = np.maximum(np.maximum(xd[:, :, 1::2, 1::2], xd[:, :, 1::2, 0::2]),
                     np.maximum(xd[:, :, 0::2, 1::2], xd[:, :, 0::2, 0::2]))

    def bw(g):
        gx = np.empty_like(xd)
        free = np.ones(out.shape, dtype=bool)  # windows not yet routed
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):  # row-major window order
            hit = xd[:, :, i::2, j::2] == out
            hit &= free
            gx[:, :, i::2, j::2] = np.where(hit, g, 0.0)
            free ^= hit
        return (gx,)

    return _make(out, "maxpool2", [x], bw)


def relu(x: Tensor) -> Tensor:
    return max_with_scalar(x, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)) with the pre-activation clipped to [-30, 30]."""
    z = np.minimum(30.0, np.maximum(-30.0, x.data))  # np.clip's values
    out = 1.0 / (1.0 + np.exp(-z))

    def bw(g):
        return (g * out * (1.0 - out),)

    return _make(out, "sigmoid", [x], bw)


def channel_softmax(x: Tensor) -> Tensor:
    """Normalize over the channel axis per spatial location (max-subtracted
    for stability); each pixel's channel values sum to 1."""
    if x.ndim != 4:
        raise ShapeError(f"channel_softmax input must be 4D, got {x.shape}")
    if x.shape[1] < 2:
        raise ShapeError("channel_softmax needs C >= 2")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _make(p, "channel_softmax", [x], bw)


def _box_sums(a: np.ndarray, window: int) -> np.ndarray:
    """Per-pixel sum over a centered window x window box of every plane of
    ``a`` (N, C, H, W), edge-replicated."""
    r = window // 2
    ap = np.pad(a, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")
    n, c, hp, wp = ap.shape
    ii = np.zeros((n, c, hp + 1, wp + 1))
    ii[:, :, 1:, 1:] = ap.cumsum(axis=2).cumsum(axis=3)
    return (ii[:, :, window:, window:] - ii[:, :, :-window, window:]
            - ii[:, :, window:, :-window] + ii[:, :, :-window, :-window])


def local_contrast_normalize(image: np.ndarray, window: int = 9) -> np.ndarray:
    """Per channel, subtract the local box mean and divide by
    max(local box std, 0.01). Data preprocessing on plain arrays, outside
    the gradient graph."""
    arr = np.asarray(image, dtype=np.float64)
    if window % 2 == 0:
        raise ValueError("local_contrast_normalize window must be odd")
    squeeze = arr.ndim == 3
    if squeeze:
        arr = arr[None]
    if arr.ndim != 4:
        raise ShapeError(f"expected (N, C, H, W) or (C, H, W), got {arr.shape}")
    h, w = arr.shape[2:]
    if window > min(h, w):
        raise ValueError(f"window {window} exceeds image extent {h}x{w}")

    count = float(window * window)
    mean = _box_sums(arr, window) / count
    var = _box_sums(arr * arr, window) / count - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    out = (arr - mean) / np.maximum(std, 0.01)
    return out[0] if squeeze else out
