"""Declarative segmenter and adversary networks.

A NetSpec is an ordered list of layers; two-branch adversaries carry the
image branch nested inside a ``concat_branches`` layer, so the main list
always describes the label path. The shipped architectures keep the
structural choices that matter: the segmenter grows its field of view with
doubling dilations instead of extra pooling, and the adversary variants
trade field-of-view (34 vs 18 label-map pixels) and capacity against each
other. The adversary ends in a 1-channel sigmoid probability grid, one
probability per output cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from .tensor import ShapeError, Tensor, concat_channels


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | relu | maxpool2 | channel_softmax | sigmoid | concat_branches
    out_ch: int = 0
    k: int = 0
    dilation: int = 1
    branch: tuple = field(default_factory=tuple)  # image-branch layers, concat only


def conv(out_ch, k, dilation=1) -> LayerSpec:
    """A same-padded, stride-1 conv with an odd k x k kernel to ``out_ch``
    channels; it takes those of the layer before."""
    if k % 2 == 0:
        raise ValueError(f"conv kernel extent must be odd, got {k}")
    return LayerSpec("conv", out_ch, k, dilation)


@dataclass(frozen=True)
class NetSpec:
    role: str  # "segmenter" | "adversary"
    layers: tuple
    in_channels: int
    image_channels: int = 0  # nonzero only for two-branch adversaries


def _channels_out(layers, c: int, image_channels: int) -> int:
    """Channels that leave ``layers`` when ``c`` enter them: a conv sets the
    width, and ``concat_branches`` adds that of its image branch, which
    ``image_channels`` enter."""
    for lay in layers:
        if lay.kind == "conv":
            c = lay.out_ch
        elif lay.kind == "concat_branches":
            if image_channels <= 0:
                raise ShapeError("concat_branches in a single-input spec")
            c += _channels_out(lay.branch, image_channels, 0)
    return c


def build_segmenter(num_classes: int, channels_base: int = 16,
                    n_context_layers: int = 4) -> NetSpec:
    """Small front end (two 3x3 convs + one pool, stride 2) followed by a
    context stack of 3x3 convs with doubling dilations, then a 1x1 head and
    per-pixel softmax. Every conv keeps its input's extents, so the only
    resolution change is the pool."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    b = channels_base
    spec_layers = [
        conv(b, 3), LayerSpec("relu"),
        conv(b, 3), LayerSpec("relu"),
        LayerSpec("maxpool2"),
    ]
    for i in range(n_context_layers):
        spec_layers += [conv(b, 3, dilation=2 ** i), LayerSpec("relu")]
    spec_layers += [conv(num_classes, 1), LayerSpec("channel_softmax")]
    return NetSpec("segmenter", tuple(spec_layers), 3)


def build_adversary(in_channels: int, fov: str = "large", capacity: str = "full",
                    two_branch: bool = False) -> NetSpec:
    """Adversary over label maps (optionally plus an image branch).

    large: six same-padded 3x3 convs with two interleaved pools, 3x3 head
           (34x34 field of view in label-map units).
    small: alternating 3x3 / 1x1 convs in the same pool pattern, 1x1 head
           (18x18 field of view).
    ``capacity="light"`` halves every channel width. ``two_branch`` adds an
    image branch whose channel count at the merge equals the label branch's.
    """
    if fov not in ("large", "small"):
        raise ValueError("fov must be 'large' or 'small'")
    if capacity not in ("full", "light"):
        raise ValueError("capacity must be 'full' or 'light'")
    widths = [12, 16, 16, 32, 32, 64]
    if capacity == "light":
        widths = [max(1, w // 2) for w in widths]
    w0, w1, w2, w3, w4, w5 = widths

    spec_layers: list[LayerSpec] = [conv(w0, 3), LayerSpec("relu")]
    if two_branch:
        branch = (conv(w0, 3), LayerSpec("relu"))
        spec_layers.append(LayerSpec("concat_branches", branch=branch))

    if fov == "large":
        spec_layers += [
            conv(w1, 3), LayerSpec("relu"),
            conv(w2, 3), LayerSpec("relu"),
            LayerSpec("maxpool2"),
            conv(w3, 3), LayerSpec("relu"),
            conv(w4, 3), LayerSpec("relu"),
            LayerSpec("maxpool2"),
            conv(w5, 3), LayerSpec("relu"),
        ]
        head_k = 3
    else:
        spec_layers += [
            conv(w1, 1), LayerSpec("relu"),
            LayerSpec("maxpool2"),
            conv(w3, 3), LayerSpec("relu"),
            conv(w4, 1), LayerSpec("relu"),
            LayerSpec("maxpool2"),
            conv(w5, 3), LayerSpec("relu"),
        ]
        head_k = 1

    spec_layers += [conv(1, head_k), LayerSpec("sigmoid")]
    return NetSpec("adversary", tuple(spec_layers), in_channels,
                   image_channels=3 if two_branch else 0)


# ---------------------------------------------------------------------------
# receptive-field arithmetic
#
# Walking the label path we maintain, per axis, the affine window map
# output index o -> input pixels [jump*o + lo, jump*o + hi] (before image
# clipping). Activations and the branch merge are neutral.


def rf_geometry(spec: NetSpec) -> tuple[int, int, int]:
    """(jump, lo, hi): output index o sees input pixels [jump*o+lo, jump*o+hi].

    Both axes are identical because every layer is square. A conv widens
    the window by dilation*(k-1)/2 of its input pixels on each side;
    maxpool2 adds one of its input pixels on the high side and doubles the
    jump.
    """
    jump, lo, hi = 1, 0, 0
    for lay in spec.layers:
        if lay.kind == "conv":
            r = jump * (lay.dilation * (lay.k - 1) // 2)
            lo, hi = lo - r, hi + r
        elif lay.kind == "maxpool2":
            hi += jump
            jump *= 2
        elif lay.kind not in ("relu", "sigmoid", "channel_softmax", "concat_branches"):
            raise ValueError(f"unsupported layer kind {lay.kind!r}")
    return jump, lo, hi


def receptive_field(spec: NetSpec) -> tuple[int, int, int]:
    """(rf_h, rf_w, total_stride) of the label path."""
    jump, lo, hi = rf_geometry(spec)
    rf = hi - lo + 1
    return rf, rf, jump


# ---------------------------------------------------------------------------
# parameters and forward


def param_shapes(spec: NetSpec) -> dict:
    """Name -> shape of every parameter, in walk order: trunk layer i ->
    'L{i}', image-branch layer j -> 'B{j}'. A conv takes the channels that
    leave the layers before it."""
    shapes: dict[str, tuple] = {}

    def add_convs(prefix, layers, c):
        for i, lay in enumerate(layers):
            if lay.kind == "conv":
                cin = _channels_out(layers[:i], c, spec.image_channels)
                shapes[f"{prefix}{i}.kernel"] = (lay.out_ch, cin, lay.k, lay.k)
                shapes[f"{prefix}{i}.bias"] = (lay.out_ch,)
            elif lay.kind == "concat_branches":
                add_convs("B", lay.branch, spec.image_channels)

    add_convs("L", spec.layers, spec.in_channels)
    return shapes


def init_params(spec: NetSpec, seed: int) -> dict:
    """Fan-balanced uniform kernels (+-sqrt(6/(fan_in+fan_out))), zero
    biases; fully determined by the seed. Keys as in ``param_shapes``."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith(".kernel"):
            cout, cin, kh, kw = shape
            bound = np.sqrt(6.0 / (cin * kh * kw + cout * kh * kw))
            params[name] = Tensor(rng.uniform(-bound, bound, size=shape),
                                  requires_grad=True)
        else:
            params[name] = Tensor(np.zeros(shape), requires_grad=True)
    return params


def _apply(lay: LayerSpec, x: Tensor, params: dict, name: str) -> Tensor:
    if lay.kind == "conv":
        p = L.ConvParams(params[f"{name}.kernel"], params[f"{name}.bias"], lay.dilation)
        return L.conv2d(x, p)
    if lay.kind == "relu":
        return L.relu(x)
    if lay.kind == "maxpool2":
        return L.maxpool2(x)
    if lay.kind == "sigmoid":
        return L.sigmoid(x)
    if lay.kind == "channel_softmax":
        return L.channel_softmax(x)
    raise ValueError(f"unknown layer kind {lay.kind!r}")


def forward(spec: NetSpec, params: dict, inputs, trace: list | None = None,
            start: int = 0) -> Tensor:
    """Run the network. Single-input specs take one tensor; two-branch
    adversaries take (label_input, image_input). When ``trace`` is given,
    (layer, layer_input) pairs are appended to it for diagnostics.

    ``start=k`` runs layers k and later only, and the label input is then
    layer k's input, as a trace records it: the output equals that of the
    whole pass bit for bit, and a backward pass reaches no layer before k.
    """
    if spec.image_channels:
        if not isinstance(inputs, (tuple, list)) or len(inputs) != 2:
            raise ShapeError("two-branch network needs (label_input, image_input)")
        x, image = inputs
    else:
        x, image = inputs, None
    c = _channels_out(spec.layers[:start], spec.in_channels, spec.image_channels)
    if x.ndim != 4 or x.shape[1] != c:
        at = f" at layer {start}" if start else ""
        raise ShapeError(f"{spec.role} expects (N, {c}, H, W){at}, got {x.shape}")

    for i, lay in enumerate(spec.layers[start:], start):
        if lay.kind == "concat_branches":
            b = image
            if b.ndim != 4 or b.shape[1] != spec.image_channels:
                raise ShapeError(f"image branch expects {spec.image_channels} channels")
            for j, bl in enumerate(lay.branch):
                if trace is not None:
                    trace.append((bl, b))
                b = _apply(bl, b, params, f"B{j}")
            x = concat_channels([x, b])
        else:
            if trace is not None:
                trace.append((lay, x))
            x = _apply(lay, x, params, f"L{i}")
    return x


def detach_params(params: dict) -> dict:
    """Graph-free views of ``params`` (shared data, no copy): a forward pass
    on them records no graph nodes and leaves the originals untouched."""
    return {name: t.detach() for name, t in params.items()}


# ---------------------------------------------------------------------------
# persistence. A checkpoint is the line "ADVSEG-PARAMS 2", the parameter
# count, one "name d0,d1,..." line per parameter, and then every
# parameter's data as little-endian float64, row-major, in index order.

_HEADER = b"ADVSEG-PARAMS 2"


def save_params(params: dict, path) -> None:
    index = [_HEADER.decode(), str(len(params))]
    index += [f"{name} {','.join(map(str, t.shape))}" for name, t in params.items()]
    with open(path, "wb") as fh:
        fh.write("\n".join(index).encode() + b"\n")
        for t in params.values():
            fh.write(t.data.astype("<f8").tobytes())


def load_params(path, spec: NetSpec) -> dict:
    """The parameters that ``save_params`` wrote to ``path``, which must be
    exactly those of ``param_shapes(spec)``. A bad header or index, other
    names or shapes, or a payload of another length raise ValueError, with
    the fault in the message."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header, _, rest = raw.partition(b"\n")
    if header != _HEADER:
        raise ValueError(f"bad checkpoint header {header[:40].decode(errors='replace')!r}"
                         f", expected {_HEADER.decode()!r}")
    count, _, rest = rest.partition(b"\n")
    if not count.isdigit():
        raise ValueError("bad checkpoint index count")
    *lines, payload = rest.split(b"\n", int(count))
    if len(lines) != int(count):
        raise ValueError("checkpoint index is truncated")
    shapes = {}
    for i, line in enumerate(lines, 1):
        name, _, dims = line.partition(b" ")
        dims = dims.split(b",")
        if not (name and all(d.isdigit() for d in dims)):
            raise ValueError(f"bad checkpoint index line {i}: {line[:60]!r}")
        name = name.decode(errors="replace")
        if name in shapes:
            raise ValueError(f"checkpoint index names {name!r} twice")
        shapes[name] = tuple(map(int, dims))
    want = param_shapes(spec)
    for name in {**want, **shapes}:
        if want.get(name) != shapes.get(name):
            raise ValueError(
                f"{name}: shape {shapes.get(name, 'missing')} in the checkpoint, "
                f"{want.get(name, 'none')} in the {spec.role}")
    sizes = [int(np.prod(shape)) for shape in shapes.values()]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(f"checkpoint payload is {len(payload)} bytes, "
                         f"its index says {8 * sum(sizes)}")
    data = np.split(np.frombuffer(payload, dtype="<f8"), np.cumsum(sizes)[:-1])
    return {name: Tensor(chunk.reshape(shape), requires_grad=True)
            for (name, shape), chunk in zip(shapes.items(), data)}
