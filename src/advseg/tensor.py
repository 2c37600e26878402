"""Dense float64 tensors with a dynamically built reverse-mode differentiation graph.

Every differentiable quantity in this package is a ``Tensor``: a contiguous
row-major float64 array plus an optional graph node recording how it was
produced. Calling :func:`backward` on a scalar tensor accumulates gradients
into every ``requires_grad`` leaf reachable from it. There is no implicit
broadcasting between tensors; the only mixed form allowed is tensor-vs-scalar.

A training turn allocates every activation and gradient afresh and frees
them all when it ends. On glibc, importing this module raises the malloc
trim and mmap thresholds once (:func:`_keep_freed_heap`), so that freed
arrays stay in the process heap for the next turn to reuse instead of going
back to the kernel and coming back as zero-filled page faults. Memory from
``np.empty`` may therefore hold stale values, as the C standard allows.
"""

from __future__ import annotations

import ctypes
import struct
from typing import Callable, Sequence

import numpy as np

# glibc mallopt parameters (malloc.h) and the values set for them: heap tops
# below 1 GiB are not trimmed, and blocks below 64 MiB come from the heap
# rather than from their own mmap, which free would unmap again
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 1 << 30, 64 << 20


def _keep_freed_heap() -> bool:
    """Make glibc keep freed memory for reuse; whether ``mallopt`` took both
    settings (False, and nothing changed, where there is no ``mallopt``)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1
            and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1)


_HEAP_KEPT = _keep_freed_heap()


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GraphError(RuntimeError):
    """The differentiation graph was used incorrectly."""


class GraphNode:
    """Record of the operation that produced a tensor.

    ``backward_fn`` maps the output gradient to a tuple of input gradients
    (``None`` for inputs that do not require grad); any values the rule needs
    are captured in its closure.
    """

    __slots__ = ("op_kind", "inputs", "backward_fn")

    def __init__(self, op_kind: str, inputs: Sequence["Tensor"],
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.op_kind = op_kind
        self.inputs = list(inputs)
        self.backward_fn = backward_fn


class Tensor:
    """A float64 array that can participate in reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, node: GraphNode | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"] or not arr.flags["WRITEABLE"]:
            arr = arr.copy()  # ascontiguousarray would promote 0-d to 1-d
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node = node

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A graph-free constant view of this tensor's values."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars allowed on either side where meaningful.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    """A graph-free tensor (alias used to mark intent at call sites)."""
    return Tensor(data)


def _make(data: np.ndarray, op_kind: str, inputs: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    if any(t.requires_grad for t in inputs):
        return Tensor(data, requires_grad=True,
                      node=GraphNode(op_kind, inputs, backward_fn))
    return Tensor(data)


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise operations


def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_same_shape(a, b, "add")
        out = a.data + b.data
        return _make(out, "add", [a, b], lambda g: (g, g))
    s = float(b)
    return _make(a.data + s, "add", [a], lambda g: (g,))


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_same_shape(a, b, "sub")
        out = a.data - b.data
        return _make(out, "sub", [a, b], lambda g: (g, -g))
    s = float(b)
    return _make(a.data - s, "sub", [a], lambda g: (g,))


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_same_shape(a, b, "mul")
        ad, bd = a.data, b.data
        return _make(ad * bd, "mul", [a, b], lambda g: (g * bd, g * ad))
    s = float(b)
    return _make(a.data * s, "mul", [a], lambda g: (g * s,))


def div(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_same_shape(a, b, "div")
        if np.any(b.data == 0.0):
            raise ValueError("div: zero denominator")
        ad, bd = a.data, b.data
        return _make(ad / bd, "div", [a, b],
                     lambda g: (g / bd, -g * ad / (bd * bd)))
    s = float(b)
    if s == 0.0:
        raise ValueError("div: zero scalar denominator")
    return _make(a.data / s, "div", [a], lambda g: (g / s,))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", [a], lambda g: (-g,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log: non-positive input; clamp upstream")
    ad = a.data
    return _make(np.log(ad), "log", [a], lambda g: (g / ad,))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _make(out, "exp", [a], lambda g: (g * out,))


def max_with_scalar(a: Tensor, s: float) -> Tensor:
    """Elementwise max(a, s). Ties (a == s) pass zero gradient."""
    s = float(s)
    mask = a.data > s
    return _make(np.maximum(a.data, s), "max_with_scalar", [a],
                 lambda g: (g * mask,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient passes where lo <= a <= hi."""
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise ValueError("clamp: lo > hi")
    mask = (a.data >= lo) & (a.data <= hi)
    return _make(np.clip(a.data, lo, hi), "clamp", [a],
                 lambda g: (g * mask,))


_ELEMENTWISE = {
    "add": add, "sub": sub, "mul": mul, "div": div,
    "neg": neg, "log": log, "exp": exp,
    "max_with_scalar": max_with_scalar, "clamp": clamp,
}


def elementwise(op_kind: str, a: Tensor, b=None) -> Tensor:
    """Dispatch an elementwise op by name (unary ops ignore ``b``)."""
    if op_kind not in _ELEMENTWISE:
        raise ValueError(f"unknown elementwise op {op_kind!r}")
    fn = _ELEMENTWISE[op_kind]
    if op_kind in ("neg", "log", "exp"):
        return fn(a)
    if op_kind == "clamp":
        lo, hi = b
        return fn(a, lo, hi)
    return fn(a, b)


# ---------------------------------------------------------------------------
# reductions


def _normalize_axes(axes, ndim: int) -> tuple:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    norm = []
    for ax in axes:
        if ax < 0:
            ax += ndim
        if not 0 <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for ndim {ndim}")
        norm.append(ax)
    if len(set(norm)) != len(norm):
        raise ShapeError("duplicate reduction axes")
    return tuple(sorted(norm))


def reduce_sum(a: Tensor, axes=None) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    shape = a.shape

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape),)

    return _make(a.data.sum(axis=axes), "sum", [a], bw)


def reduce_mean(a: Tensor, axes=None) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    shape = a.shape
    count = 1
    for ax in axes:
        count *= shape[ax]

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape) / count,)

    return _make(a.data.mean(axis=axes), "mean", [a], bw)


def reduce_max(a: Tensor, axes=None) -> Tensor:
    """Max over ``axes``; ties route the gradient to the first tied element
    in row-major order."""
    axes = _normalize_axes(axes, a.ndim)
    shape = a.shape
    kept = tuple(ax for ax in range(a.ndim) if ax not in axes)
    moved = np.moveaxis(a.data, axes, range(len(kept), a.ndim))
    kept_shape = moved.shape[:len(kept)]
    flat = moved.reshape(kept_shape + (-1,))
    idx = np.argmax(flat, axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        gmoved = gflat.reshape(moved.shape)
        return (np.moveaxis(gmoved, range(len(kept), a.ndim), axes),)

    return _make(out, "max", [a], bw)


_REDUCE = {"sum": reduce_sum, "mean": reduce_mean, "max": reduce_max}


def reduce(op_kind: str, a: Tensor, axes=None) -> Tensor:
    if op_kind not in _REDUCE:
        raise ValueError(f"unknown reduction {op_kind!r}")
    return _REDUCE[op_kind](a, axes)


# ---------------------------------------------------------------------------
# channel-axis structure ops (axis ndim-3, i.e. C of (..., C, H, W))


def _channel_axis(t: Tensor) -> int:
    if t.ndim < 3:
        raise ShapeError("channel ops need at least (C, H, W) shaped tensors")
    return t.ndim - 3


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis; spatial extents must match."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels: empty part list")
    ax = _channel_axis(parts[0])
    ref = parts[0].shape
    for p in parts[1:]:
        if p.ndim != parts[0].ndim or p.shape[:ax] != ref[:ax] or p.shape[ax + 1:] != ref[ax + 1:]:
            raise ShapeError("concat_channels: spatial/batch extents differ")
    sizes = [p.shape[ax] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(np.take(g, range(offsets[i], offsets[i + 1]), axis=ax)
                     for i in range(len(parts)))

    out = np.concatenate([p.data for p in parts], axis=ax)
    return _make(out, "concat_channels", parts, bw)


def slice_channels(a: Tensor, start: int, stop: int) -> Tensor:
    """Channels [start, stop) of ``a``; backward zero-fills the complement."""
    ax = _channel_axis(a)
    c = a.shape[ax]
    if not (0 <= start < stop <= c):
        raise ShapeError(f"slice_channels: [{start},{stop}) out of range for C={c}")
    sl = [slice(None)] * a.ndim
    sl[ax] = slice(start, stop)
    sl = tuple(sl)
    shape = a.shape

    def bw(g):
        full = np.zeros(shape)
        full[sl] = g
        return (full,)

    return _make(a.data[sl].copy(), "slice_channels", [a], bw)


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every requires_grad leaf below root.

    ``root`` must be scalar (shape product 1). Repeated calls keep
    accumulating until leaves' grads are reset.
    """
    if root.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for inp in t.node.inputs:
                if inp.requires_grad and id(inp) not in seen:
                    stack.append((inp, False))

    flows: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for t in reversed(topo):
        g = flows.pop(id(t), None)
        if g is None:
            continue
        if t.node is None:
            t.grad = g if t.grad is None else t.grad + g
            continue
        in_grads = t.node.backward_fn(g)
        for inp, ig in zip(t.node.inputs, in_grads):
            if ig is None or not inp.requires_grad:
                continue
            prev = flows.get(id(inp))
            flows[id(inp)] = ig if prev is None else prev + ig


# ---------------------------------------------------------------------------
# finite-difference oracle


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between backward() and central differences on ``x``.

    Error per element is |analytic - numeric| / max(1e-8, |analytic| + |numeric|);
    numeric = (f(x + h e) - f(x - h e)) / 2h. ``f`` must return a scalar tensor
    and must read ``x``'s current data on every call.
    """
    x.requires_grad = True
    x.grad = None
    out = f(x)
    if out.size != 1:
        raise GraphError("grad_check requires a scalar-valued function")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    numeric = np.empty_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# serialization: magic "ADVT", version byte, rank + extents as u32 LE,
# data as little-endian float64, row-major.

_MAGIC = b"ADVT"
_VERSION = 1


def tensor_to_bytes(t: Tensor) -> bytes:
    head = _MAGIC + bytes([_VERSION]) + struct.pack("<I", t.ndim)
    head += struct.pack(f"<{t.ndim}I", *t.shape)
    return head + t.data.astype("<f8").tobytes()


def tensor_from_bytes(buf: bytes) -> Tensor:
    if buf[:4] != _MAGIC:
        raise ValueError("bad tensor magic")
    if buf[4] != _VERSION:
        raise ValueError(f"unsupported tensor version {buf[4]}")
    rank = struct.unpack_from("<I", buf, 5)[0]
    shape = struct.unpack_from(f"<{rank}I", buf, 9)
    off = 9 + 4 * rank
    n = int(np.prod(shape)) if rank else 1
    data = np.frombuffer(buf, dtype="<f8", count=n, offset=off)
    if len(buf) != off + 8 * n:
        raise ValueError("tensor payload length mismatch")
    return Tensor(data.reshape(shape).astype(np.float64))


def save_tensor(t: Tensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(t))


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
