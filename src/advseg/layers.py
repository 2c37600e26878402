"""Differentiable neural layers: strided/dilated convolution, 2x2 max
pooling, activations, per-pixel softmax, and local contrast normalization.

Convolution uses cross-correlation semantics (no kernel flip), symmetric
zero-padding only. All tensors are NCHW.

Every convolution product goes through one routine, :func:`_correlate`:
im2col of a zero grid into a per-thread column buffer that is reused from
call to call, then one batched ``np.matmul``. The forward pass correlates
the padded input with the kernel. The input gradient correlates the output
gradient, zero-dilated by the stride and padded by the effective kernel
extent, with the flipped, transposed kernel (Dumoulin & Visin, "A guide to
convolution arithmetic", arXiv 1603.07285). The graph keeps no columns:
when the kernel gradient is needed, backward rebuilds them into the same
buffer. Backward computes only the gradients whose operands required one
when the op was built.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, _make, max_with_scalar

# per-thread scratch memory for _im2col, grown (never shrunk) to the largest
# request so far; every call reuses it, so nothing kept may be a view of it
_workspace = threading.local()


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


def _kept(offset: int, step: int, count: int, extent: int) -> slice:
    """Indices i < count whose position offset + i*step lies in [0, extent)."""
    return slice(max(0, -(offset // step)),
                 min(count, (extent - 1 - offset) // step + 1))


def _im2col(a: np.ndarray, place: tuple, kh: int, kw: int, stride: int,
            dilation: int) -> np.ndarray:
    """im2col columns (n, c, kh, kw, hout, wout) of a zero grid that holds
    ``a`` (n, c, ah, aw); both live in this thread's scratch buffer, valid
    until the next call.

    ``place`` is (step, top, left, height, width): the grid is
    (n, c, height, width) and ``a[..., i, j]`` sits at (top + i*step,
    left + j*step). Entries of ``a`` that fall outside the grid are dropped.
    """
    step, top, left, height, width = place
    n, c, ah, aw = a.shape
    hout = conv_out_extent(height, kh, stride, dilation, 0)
    wout = conv_out_extent(width, kw, stride, dilation, 0)
    n_grid = n * c * height * width
    n_all = n_grid + n * c * kh * kw * hout * wout
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < n_all:
        buf = _workspace.buf = np.empty(n_all)
    grid = buf[:n_grid].reshape(n, c, height, width)
    grid.fill(0.0)
    ri, rj = _kept(top, step, ah, height), _kept(left, step, aw, width)
    if ri.start < ri.stop and rj.start < rj.stop:
        grid[:, :, top + ri.start * step: top + (ri.stop - 1) * step + 1: step,
             left + rj.start * step: left + (rj.stop - 1) * step + 1: step] = a[:, :, ri, rj]
    s0, s1, s2, s3 = grid.strides
    windows = np.lib.stride_tricks.as_strided(
        grid, shape=(n, c, kh, kw, hout, wout),
        strides=(s0, s1, s2 * dilation, s3 * dilation, s2 * stride, s3 * stride))
    cols = buf[n_grid: n_all].reshape(windows.shape)
    np.copyto(cols, windows)
    return cols


def _correlate(a: np.ndarray, place: tuple, kernel: np.ndarray, stride: int,
               dilation: int) -> np.ndarray:
    """Cross-correlate ``kernel`` (cout, c, kh, kw) with the grid that
    ``place`` makes of ``a`` (see :func:`_im2col`); the result
    (n, cout, hout, wout) is a fresh array."""
    cout, _, kh, kw = kernel.shape
    cols = _im2col(a, place, kh, kw, stride, dilation)
    n, c, _, _, hout, wout = cols.shape
    out = np.matmul(kernel.reshape(cout, c * kh * kw),
                    cols.reshape(n, c * kh * kw, hout * wout))
    return out.reshape(n, cout, hout, wout)


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

    xd, kd = x.data, p.kernel.data
    padded = (1, pad, pad, h + 2 * pad, w + 2 * pad)
    out = _correlate(xd, padded, kd, st, dil)
    out += p.bias.data.reshape(1, cout, 1, 1)
    need_x, need_k, need_b = (x.requires_grad, p.kernel.requires_grad,
                              p.bias.requires_grad)

    def bw(g):
        gx = gk = gb = None
        if need_x:
            # stride-1 correlation with the flipped, transposed kernel of the
            # output gradient spread onto the stride grid and padded by the
            # effective kernel extent less the forward padding; input
            # positions the forward never read come out exactly zero
            eh, ew = dil * (kh - 1), dil * (kw - 1)
            spread = (st, eh - pad, ew - pad, h + eh, w + ew)
            gx = _correlate(g, spread, kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                            1, dil)
        if need_k:
            cols = _im2col(xd, padded, kh, kw, st, dil)
            gk = np.matmul(g.reshape(n, cout, hout * wout),
                           cols.reshape(n, cin * kh * kw, hout * wout)
                           .transpose(0, 2, 1)).sum(axis=0).reshape(kd.shape)
        if need_b:
            gb = g.sum(axis=(0, 2, 3))
        return (gx, gk, gb)

    return _make(out, "conv2d", [x, p.kernel, p.bias], bw)


def maxpool2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 max pooling; gradient goes to each window's
    first maximum in row-major order."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2 input must be 4D, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even extents, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    windows = (x.data.reshape(n, c, h2, 2, w2, 2)
               .transpose(0, 1, 2, 4, 3, 5)
               .reshape(n, c, h2, w2, 4))
    idx = np.argmax(windows, axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        gw = np.zeros_like(windows)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        return (gw.reshape(n, c, h2, w2, 2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w),)

    return _make(out, "maxpool2", [x], bw)


def relu(x: Tensor) -> Tensor:
    return max_with_scalar(x, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)) with the pre-activation clipped to [-30, 30]."""
    z = np.clip(x.data, -30.0, 30.0)
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
    """Per-pixel sum over a centered window x window box, edge-replicated."""
    r = window // 2
    ap = np.pad(a, r, mode="edge")
    ii = np.zeros((ap.shape[0] + 1, ap.shape[1] + 1))
    ii[1:, 1:] = ap.cumsum(axis=0).cumsum(axis=1)
    return (ii[window:, window:] - ii[:-window, window:]
            - ii[window:, :-window] + ii[:-window, :-window])


def local_contrast_normalize(image, window: int = 9):
    """Per channel, subtract the local box mean and divide by
    max(local box std, 0.01). Data preprocessing: the result carries no
    gradient graph. Accepts and returns either an ndarray or a Tensor.
    """
    is_tensor = isinstance(image, Tensor)
    arr = image.data if is_tensor else np.asarray(image, dtype=np.float64)
    if window % 2 == 0:
        raise ValueError("local_contrast_normalize window must be odd")
    squeeze = arr.ndim == 3
    if squeeze:
        arr = arr[None]
    if arr.ndim != 4:
        raise ShapeError(f"expected (N, C, H, W) or (C, H, W), got {arr.shape}")
    n, c, h, w = arr.shape
    if window > min(h, w):
        raise ValueError(f"window {window} exceeds image extent {h}x{w}")

    count = float(window * window)
    out = np.empty_like(arr)
    for ni in range(n):
        for ci in range(c):
            plane = arr[ni, ci]
            mean = _box_sums(plane, window) / count
            var = _box_sums(plane * plane, window) / count - mean * mean
            std = np.sqrt(np.maximum(var, 0.0))
            out[ni, ci] = (plane - mean) / np.maximum(std, 0.01)
    if squeeze:
        out = out[0]
    return Tensor(out) if is_tensor else out
