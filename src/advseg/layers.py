"""Differentiable neural layers: same-padded dilated convolution, 2x2 max
pooling, activations, per-pixel softmax, and local contrast normalization.

Every convolution is a cross-correlation (no kernel flip) at stride 1 with
an odd k x k kernel, zero-padded by dilation*(k-1)/2 on every side, so its
output has the input's extents. All tensors are NCHW.

Every convolution product goes through one routine, :func:`_correlate`. It
writes the zero-padded grid of its operand and then, one band of output
rows at a time for the whole batch, that band's im2col columns into a
per-thread scratch buffer that is reused from call to call. Each band's
``np.matmul`` writes straight into its rows of the result, so the columns
stay in cache and are never held for the whole output at once (Goto & van
de Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS
2008). The band's width is set by the batch (:func:`band_rows`): 128 output
positions per image for 4 images or more, and, for fewer, wider bands
toward 512 positions in all, as far as one image's product stays on
OpenBLAS's small-matrix path. So the one-image evaluation pass, and the
frozen segmenter's forward of the few scenes an adversary turn has not
stored, run GEMMs about as wide as a batch of four's; each image's output
has the bits of its row in a batched pass (tests hold the two equal at
64x64). A 1x1 kernel over a C-contiguous operand needs no grid:
its columns are the operand itself, so each band's are a view of the
operand's rows, and nothing is filled or copied. The bands and their sums
stay as they are, so this gives the grid's bits. The forward pass
correlates the input with the kernel. When the input needs a gradient,
backward builds one set of columns, from the output gradient padded the
same way (Dumoulin & Visin, "A guide to convolution arithmetic", arXiv
1603.07285). Against the flipped, transposed kernel they give the input
gradient; against the input, summed over bands and flipped back, the kernel
gradient. When only the kernel gradient is needed (a network's first
layer), backward rebuilds the forward's columns of the input, which are the
smaller set when the layer has fewer input than output channels, and sums
their products with the output gradient. The graph keeps no columns, and
the input only when the kernel gradient is needed. Backward computes only
the gradients whose operands required one when the op was built.

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

# output positions in one band of im2col columns: BAND per image, and for
# fewer than WIDE // BAND images, more per image, toward WIDE in all; a
# band is made of whole output rows, at least one. On a 2-vCPU VM
# (OpenBLAS, 1 thread), segmenter turns at the README config (4 images) ran
# about 5 % faster at 128 positions per image than at 256, and slower at
# 512 and above. Widening stops where one image's product would take more
# than SMALL_GEMM multiply-adds, the products OpenBLAS runs on its
# small-matrix path. A single-image segmenter forward pass at 64x64
# (minimum of 200, 1 BLAS thread) took 1.81 ms at 128 positions, 1.69 ms
# with these bands, and 2.21 ms at 512 positions, whose 16 x 144 products
# cross SMALL_GEMM. README-config segmenter turns of 1, 2 and 3 images took
# 12.6 -> 11.8, 22.7 -> 22.3 and 23.3 -> 24.0 ms against BAND alone
# (medians of 15 alternating pairs).
BAND = 128
WIDE = 512
SMALL_GEMM = 10 ** 6


@dataclass
class ConvParams:
    """Learnable state plus dilation for one convolution.

    kernel: (out_channels, in_channels, k, k) with k odd; bias:
    (out_channels,).
    """

    kernel: Tensor
    bias: Tensor
    dilation: int = 1

    def __post_init__(self):
        if self.kernel.ndim != 4:
            raise ShapeError("conv kernel must be 4D (out, in, k, k)")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.kernel.shape[0]:
            raise ShapeError("conv bias must be 1D with out_channels entries")
        if self.dilation < 1:
            raise ValueError("dilation must be >= 1")
        kh, kw = self.kernel.shape[2:]
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"conv kernel must be square with an odd extent, "
                             f"got {kh}x{kw}")


def band_rows(n: int, wout: int, macs: int) -> int:
    """Output rows in one band of columns, for ``n`` images of outputs
    ``wout`` wide whose product takes ``macs`` multiply-adds per output
    position and image: ``BAND`` positions per image, widened toward
    ``WIDE`` in all when that is more, as far as one image's product stays
    within ``SMALL_GEMM``."""
    positions = max(BAND, min(WIDE // n, SMALL_GEMM // macs))
    return max(1, positions // wout)


def _correlate(a: np.ndarray, k: int, dilation: int, kernel: np.ndarray | None = None,
               other: np.ndarray | None = None) -> tuple:
    """Products of the im2col columns ``cols`` (n, c*k*k, h*w) of ``a``
    (n, c, h, w) zero-padded by dilation*(k-1)/2 on every side, built one
    band of output rows at a time into this thread's scratch buffer:

    - ``kernel @ cols`` (n, cout, h, w), if ``kernel`` (cout, c*k*k) is
      given;
    - the sum over images of ``cols @ other.T`` (c*k*k, d), if ``other``
      (n, d, h, w) is given.

    Returns both, ``None`` for one not asked for; both are fresh arrays.
    A 1x1 kernel over a C-contiguous ``a`` reads each band's columns as a
    view of ``a`` and writes no grid.
    """
    n, c, h, w = a.shape
    depth = c * k * k
    # multiply-adds per output position and image: the depth times the
    # product's rows, the kernel's or else the other operand's channels (in
    # every conv2d pass, the conv kernel's size)
    rows = band_rows(n, w, depth * (other.shape[1] if kernel is None else kernel.shape[0]))
    as_is = k == 1 and a.flags.c_contiguous
    if not as_is:
        pad = dilation * (k - 1) // 2
        height, width = h + 2 * pad, w + 2 * pad
        n_grid = n * c * height * width
        n_all = n_grid + n * depth * min(rows, h) * w
        buf = getattr(_workspace, "buf", None)
        if buf is None or buf.size < n_all:
            raw = np.empty(n_all + 7)
            skip = -raw.ctypes.data % 64 // raw.itemsize
            buf = _workspace.buf = raw[skip: skip + n_all]
        grid = buf[:n_grid].reshape(n, c, height, width)
        grid.fill(0.0)
        grid[:, :, pad: pad + h, pad: pad + w] = a
        s3 = buf.itemsize
        s2 = width * s3
        windows = np.ndarray((n, c, k, k, h, w), buf.dtype, buf, 0,
                             (c * height * s2, height * s2, s2 * dilation,
                              s3 * dilation, s2, s3))
    out = acc = None
    if kernel is not None:
        out = np.empty((n, kernel.shape[0], h * w))
    if other is not None:
        acc = np.zeros((depth, other.shape[1]))
        other = other.reshape(n, other.shape[1], h * w)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        p0, p1 = r0 * w, r1 * w
        if as_is:
            cols = a[:, :, r0:r1, :].reshape(n, depth, p1 - p0)
        else:
            cols = buf[n_grid: n_grid + n * depth * (p1 - p0)].reshape(n, depth, p1 - p0)
            np.copyto(cols.reshape(n, c, k, k, r1 - r0, w), windows[..., r0:r1, :])
        if out is not None:
            np.matmul(kernel, cols, out=out[:, :, p0:p1])
        if acc is not None:
            acc += np.matmul(cols, other[:, :, p0:p1].transpose(0, 2, 1)).sum(axis=0)
    if out is not None:
        out = out.reshape(n, kernel.shape[0], h, w)
    return out, acc


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """Cross-correlate ``x`` (N, Cin, H, W) with ``p``, same-padded, to
    (N, Cout, H, W); differentiable in the input, kernel, and bias.

    Backward returns a gradient only for the operands that required one
    when the op was built, and ``None`` for the others.
    """
    if x.ndim != 4 or 0 in x.shape[2:]:
        raise ShapeError(f"conv2d input must be 4D with nonzero extents, got {x.shape}")
    cin = x.shape[1]
    cout, cin_k, k, _ = p.kernel.shape
    if cin != cin_k:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {cin_k}")

    dil, kd = p.dilation, p.kernel.data
    out = _correlate(x.data, k, dil, kernel=kd.reshape(cout, -1))[0]
    out += p.bias.data.reshape(1, cout, 1, 1)
    need_x, need_k, need_b = (x.requires_grad, p.kernel.requires_grad,
                              p.bias.requires_grad)
    # the rule reads the input only for the kernel gradient
    xd = x.data if need_k else None

    def bw(g):
        gx = gk = gb = None
        if need_x:
            # input gradient: the output gradient's columns, their rows
            # indexed (cout, k, k), against the flipped, transposed kernel
            flipped = kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
            gx, acc = _correlate(g, k, dil, kernel=flipped, other=xd)
            if need_k:
                # the same columns against the input, flipped back
                gk = np.ascontiguousarray(acc.reshape(cout, k, k, cin)
                                          [:, ::-1, ::-1].transpose(0, 3, 1, 2))
        elif need_k:
            # no input gradient: the forward's columns of the input against
            # the output gradient
            acc = _correlate(xd, k, dil, other=g)[1]
            gk = np.ascontiguousarray(acc.T).reshape(cout, cin, k, k)
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
    ``a`` (C, H, W), edge-replicated."""
    r = window // 2
    ap = np.pad(a, ((0, 0), (r, r), (r, r)), mode="edge")
    c, hp, wp = ap.shape
    ii = np.zeros((c, hp + 1, wp + 1))
    ii[:, 1:, 1:] = ap.cumsum(axis=1).cumsum(axis=2)
    return (ii[:, window:, window:] - ii[:, :-window, window:]
            - ii[:, window:, :-window] + ii[:, :-window, :-window])


def local_contrast_normalize(image: np.ndarray, window: int) -> np.ndarray:
    """Per channel of a (C, H, W) float image, subtract the local box mean
    and divide by max(local box std, 0.01). Data preprocessing on plain
    arrays, outside the gradient graph."""
    if window % 2 == 0:
        raise ValueError("local_contrast_normalize window must be odd")
    if image.ndim != 3:
        raise ShapeError(f"expected (C, H, W), got {image.shape}")
    h, w = image.shape[1:]
    if window > min(h, w):
        raise ValueError(f"window {window} exceeds image extent {h}x{w}")

    count = float(window * window)
    mean = _box_sums(image, window) / count
    var = _box_sums(image * image, window) / count - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    return (image - mean) / np.maximum(std, 0.01)
