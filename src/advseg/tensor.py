"""Dense float64 tensors with a dynamically built reverse-mode differentiation graph.

Every differentiable quantity in this package is a ``Tensor``: a contiguous
row-major float64 array plus an optional graph node recording how it was
produced. Calling :func:`backward` on a scalar tensor accumulates gradients
into every ``requires_grad`` leaf reachable from it. There is no implicit
broadcasting between tensors; the only mixed form allowed is tensor-vs-scalar.

The graph links op outputs through their nodes, not their tensors: an op
output's array lives only while user code or a backward rule holds it, and
each rule keeps only the arrays it reads. :func:`backward` drops every
node's rule and input links once the rule has run, so activations are freed
as the pass moves toward the leaves, and a graph is differentiated once.

A training turn allocates every activation and gradient afresh. On glibc,
importing this module raises the malloc trim and mmap thresholds once
(:func:`_keep_freed_heap`), so that freed arrays stay in the process heap
for the next turn to reuse instead of going back to the kernel and coming
back as zero-filled page faults. Memory from ``np.empty`` may therefore
hold stale values, as the C standard allows.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
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

    ``inputs`` holds, per operand, the operand's own node if an op produced
    it and the tensor itself otherwise (a leaf or a constant), so the graph
    keeps no op output's array alive. A node stands for its output in the
    graph: its ``node`` is itself and its ``requires_grad`` is True.

    ``backward_fn`` maps the output gradient to a tuple of input gradients
    (``None`` for inputs that do not require grad); any values the rule needs
    are captured in its closure. :func:`backward` looks ``op_kind`` up in
    the override map that :func:`overridden_backward` sets, and sets
    ``backward_fn`` to ``None`` and ``inputs`` to ``()`` once the rule has
    run: the node is then consumed.
    """

    __slots__ = ("op_kind", "inputs", "backward_fn")
    requires_grad = True

    def __init__(self, op_kind: str, inputs: Sequence["Tensor"],
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.op_kind = op_kind
        self.inputs = [t if t.node is None else t.node for t in inputs]
        self.backward_fn = backward_fn

    @property
    def node(self) -> "GraphNode":
        return self


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


def _make(data: np.ndarray, op_kind: str, inputs: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    for t in inputs:
        if t.requires_grad:
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


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a tensor or a scalar. Backward computes, and
    keeps the factor for, only the gradients of operands that required one
    when the op was built, and returns ``None`` for the others."""
    if isinstance(b, Tensor):
        _check_same_shape(a, b, "mul")
        # each operand's gradient is g times the other operand
        for_a = b.data if a.requires_grad else None
        for_b = a.data if b.requires_grad else None
        return _make(a.data * b.data, "mul", [a, b], lambda g: (
            None if for_a is None else g * for_a,
            None if for_b is None else g * for_b))
    s = float(b)
    return _make(a.data * s, "mul", [a], lambda g: (g * s,))


def log(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise ValueError("log: non-positive input; clamp upstream")
    ad = a.data
    return _make(np.log(ad), "log", [a], lambda g: (g / ad,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient passes where lo <= a <= hi."""
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise ValueError("clamp: lo > hi")
    # np.clip's values, ties and NaNs included: np.maximum and np.minimum
    # return their second operand when the two compare equal
    out = np.minimum(hi, np.maximum(lo, a.data))
    if not a.requires_grad:  # no graph, so no rule reads a mask
        return Tensor(out)
    mask = (a.data >= lo) & (a.data <= hi)
    return _make(out, "clamp", [a], lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# reductions


def _normalize_axes(axes, ndim: int) -> tuple:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    for ax in axes:
        if not 0 <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for ndim {ndim}")
    if len(set(axes)) != len(axes):
        raise ShapeError("duplicate reduction axes")
    return tuple(sorted(axes))


def reduce_sum(a: Tensor, axes=None) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    shape = a.shape

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape),)

    return _make(np.add.reduce(a.data, axis=axes), "sum", [a], bw)


def reduce_mean(a: Tensor, axes=None) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    shape = a.shape
    count = 1
    for ax in axes:
        count *= shape[ax]

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape) / count,)

    # ndarray.mean's values: the sum divided by the count
    return _make(np.add.reduce(a.data, axis=axes) / count, "mean", [a], bw)


# ---------------------------------------------------------------------------
# structure ops: channel axis (ndim-3, i.e. C of (..., C, H, W)) and batch axis


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


def _slice_axis(a: Tensor, ax: int, start: int, stop: int, op_kind: str) -> Tensor:
    """Entries [start, stop) of ``a`` along axis ``ax``; backward zero-fills
    the complement."""
    n = a.shape[ax]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"{op_kind}: [{start},{stop}) out of range for extent {n}")
    sl = [slice(None)] * a.ndim
    sl[ax] = slice(start, stop)
    sl = tuple(sl)
    shape = a.shape

    def bw(g):
        full = np.zeros(shape)
        full[sl] = g
        return (full,)

    return _make(a.data[sl].copy(), op_kind, [a], bw)


def slice_channels(a: Tensor, start: int, stop: int) -> Tensor:
    """Channels [start, stop) of ``a``; backward zero-fills the complement."""
    return _slice_axis(a, _channel_axis(a), start, stop, "slice_channels")


def slice_batch(a: Tensor, start: int, stop: int) -> Tensor:
    """Images [start, stop) of a batch (axis 0); backward zero-fills the
    complement."""
    return _slice_axis(a, 0, start, stop, "slice_batch")


# ---------------------------------------------------------------------------
# backward pass

_GRAD_OVERRIDES: dict[str, Callable[[tuple], tuple]] = {}


@contextmanager
def overridden_backward(op_kind: str, transform: Callable[[tuple], tuple] | None = None):
    """Within the block, :func:`backward` passes the input gradients of every
    ``op_kind`` node through ``transform`` (default: ×1.5); the map is restored on exit."""
    saved = dict(_GRAD_OVERRIDES)
    _GRAD_OVERRIDES[op_kind] = transform or (
        lambda grads: tuple(None if g is None else g * 1.5 for g in grads))
    try:
        yield
    finally:
        _GRAD_OVERRIDES.clear()
        _GRAD_OVERRIDES.update(saved)


def graph_order(root: Tensor) -> list:
    """``root``'s node (``root`` itself if it has none) and the nodes and
    leaves it reaches through inputs that require grad, each after its
    inputs. Every entry answers ``node``: a node with itself, a leaf with
    ``None``."""
    topo: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root if root.node is None else root.node, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if type(t) is GraphNode:
            for inp in t.inputs:
                if inp.requires_grad and id(inp) not in seen:
                    stack.append((inp, False))
    return topo


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every requires_grad leaf below root.

    ``root`` must be scalar (shape product 1). Each node's rule and input
    links are dropped once the rule has run, so the arrays the rules keep are
    freed as the pass goes and the graph is consumed: a second call on it, or
    on a new graph that reaches one of its nodes, raises :class:`GraphError`.
    Calls on new graphs accumulate into leaf gradients until they are reset.
    """
    if root.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    order = graph_order(root)
    for t in order:
        if type(t) is GraphNode and t.backward_fn is None:
            raise GraphError(f"backward: the graph reaches a {t.op_kind} node "
                             f"that an earlier backward consumed; build it again")
    flows: dict[int, np.ndarray] = {id(order[-1]): np.ones_like(root.data)}
    while order:
        t = order.pop()
        g = flows.pop(id(t), None)
        if type(t) is not GraphNode:  # a leaf
            if g is not None:
                t.grad = g if t.grad is None else t.grad + g
            continue
        inputs = t.inputs
        in_grads = None if g is None else t.backward_fn(g)
        t.inputs, t.backward_fn = (), None
        if in_grads is None:
            continue
        transform = _GRAD_OVERRIDES.get(t.op_kind)
        if transform is not None:
            in_grads = transform(in_grads)
        for inp, ig in zip(inputs, in_grads):
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

    Only the analytic pass builds a graph. The central differences run with
    ``x.requires_grad`` off, so where nothing else in ``f`` requires grad
    every op returns a plain tensor. On return, and also when ``f`` raises,
    the flag is True again and ``x`` holds its original data.
    """
    x.requires_grad = True
    x.grad = None
    backward(f(x))  # raises GraphError unless f is scalar-valued
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    numeric = np.empty_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    x.requires_grad = False
    try:
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + h
                fp = f(x).item()
                flat[i] = orig - h
                fm = f(x).item()
            finally:
                flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * h)
    finally:
        x.requires_grad = True

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
