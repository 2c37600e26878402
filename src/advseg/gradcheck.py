"""Finite-difference verification suite over every registered op.

Each case builds a scalar-valued function of one tensor on a small seeded
instance chosen to sit away from non-differentiable points (relu kinks,
pool ties, clamp edges), runs :func:`advseg.tensor.grad_check`, and reports
the max relative error. ``run_suite`` drives all cases; as a negative
control it runs them inside ``tensor.overridden_backward(kind)``, which
scales every ``kind`` node's backward rule by 1.5: each case recording one must fail.

The end-to-end cases check every parameter of a small segmenter and
adversary through the composed two-player objectives. One traced forward
pass of the unperturbed composition records each layer's input, and the
closure for a parameter of layer k runs the networks from layer k on
(``networks.forward(..., start=k)``). Layers before k do not read the
parameter, so each function value is the whole composition's bit for bit,
and the parameter's gradient flows through layers k and later only. Every
other parameter is read through a detached view (``networks.detach_params``:
same data, no copy), as a partial derivative holds it fixed, so later layers
compute their input gradients only, and the finite differences, run with
the perturbed parameter's ``requires_grad`` off, build no graph at all. The
``L0`` cases still run each network from its input, so the input-gradient
rule of every layer stays under check.

The adversary's inputs are constants of its objective, so its encoded pair
is built once, and the ground-truth and predicted maps are stacked along the
batch axis, ground truth first. Each adversary case then runs one pass per
function value and splits the output with ``tensor.slice_batch``. conv2d
multiplies each image of a batch by its own GEMM and every other layer works
element by element, so each half equals a separate pass bit for bit. On
these tiny tensors the time goes into the Python cost of each call, not
into arithmetic, so one pass in place of two takes about a quarter off the
suite. The kink-margin search traces the same stacked pass. Training's
adversary turn keeps its two passes: at the README configuration one
stacked batch of 8 was no faster, as arithmetic dominates there.
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from . import networks as N
from . import tensor as T
from .encodings import EncodingKind, build_adv_pair, one_hot
from .losses import adversary_objective, bce_loss, mce_loss, segmenter_objective

TOLERANCE = 1e-4
KINK_MARGIN = 1e-3


def kink_margin(trace) -> float:
    """Distance to the nearest non-differentiable point across a forward
    trace: relu inputs near 0, pool windows near a tie, sigmoid inputs near
    the +-30 clip."""
    margin = np.inf
    for lay, t in trace:
        x = t.data
        if lay.kind == "relu":
            margin = min(margin, float(np.min(np.abs(x))))
        elif lay.kind == "sigmoid":
            margin = min(margin, float(np.min(np.abs(30.0 - np.abs(x)))))
        elif lay.kind == "maxpool2":
            n, c, h, w = x.shape
            win = (x.reshape(n, c, h // 2, 2, w // 2, 2)
                   .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4))
            top2 = np.sort(win, axis=-1)[..., -2:]
            gap = top2[..., 1] - top2[..., 0]
            # windows whose max is an exact zero hold only clipped relu
            # outputs; those stay tied at zero under small perturbations
            risky = top2[..., 1] > 0.0
            if np.any(risky):
                margin = min(margin, float(np.min(gap[risky])))
    return margin


def _simplex(rng, shape):
    raw = rng.uniform(0.1, 1.0, size=shape)
    return raw / raw.sum(axis=1, keepdims=True)


def _sq_sum(t):
    return T.reduce_sum(T.mul(t, t))


def _elementwise_cases():
    rng = np.random.default_rng(100)
    a = T.Tensor(rng.uniform(0.3, 1.8, size=(3, 2)))
    b = T.Tensor(rng.uniform(0.4, 1.5, size=(3, 2)))
    yield "add", a, lambda t: _sq_sum(T.add(t, b))
    yield "add_scalar", a, lambda t: _sq_sum(T.add(t, 0.7))
    yield "sub", a, lambda t: _sq_sum(T.sub(t, b))
    yield "mul", a, lambda t: _sq_sum(T.mul(t, b))
    yield "mul_scalar", a, lambda t: _sq_sum(T.mul(t, -1.3))
    yield "neg", a, lambda t: _sq_sum(T.neg(t))
    yield "log", a, lambda t: _sq_sum(T.log(t))
    # a's elements stay at least 0.3 from the kink / clamp edges
    yield "max_with_scalar", a, lambda t: _sq_sum(T.max_with_scalar(t, 0.0))
    yield "clamp", a, lambda t: _sq_sum(T.clamp(t, 0.0, 2.5))


def _reduce_cases():
    rng = np.random.default_rng(101)
    a = T.Tensor(rng.permutation(np.linspace(0.2, 3.0, 12)).reshape(3, 4))
    yield "reduce_sum", a, lambda t: T.reduce_sum(T.mul(t, t))
    yield "reduce_sum_axis", a, lambda t: _sq_sum(T.reduce_sum(t, axes=0))
    yield "reduce_mean", a, lambda t: _sq_sum(T.reduce_mean(t, axes=1))


def _structure_cases():
    rng = np.random.default_rng(102)
    a = T.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)))
    b = T.Tensor(rng.uniform(-1, 1, size=(1, 3, 3, 3)))
    yield "concat_channels", a, lambda t: _sq_sum(T.concat_channels([t, b]))
    yield "slice_channels", b, lambda t: _sq_sum(T.slice_channels(t, 1, 3))
    # a generator of its own leaves the inputs of the cases below unchanged
    batch = T.Tensor(np.random.default_rng(108).uniform(-1, 1, size=(3, 2, 2, 2)))
    yield "slice_batch", batch, lambda t: _sq_sum(T.slice_batch(t, 1, 2))


def _layer_cases():
    rng = np.random.default_rng(103)
    x = T.Tensor(rng.uniform(0.2, 1.0, size=(1, 2, 6, 6)))
    kern = T.Tensor(rng.uniform(-0.5, 0.5, size=(3, 2, 3, 3)))
    bias = T.Tensor(rng.uniform(-0.2, 0.2, size=3))

    def make_conv(dilation):
        def f(t):
            return _sq_sum(L.conv2d(t, L.ConvParams(kern, bias, dilation)))
        return f

    yield "conv2d", x, make_conv(1)
    yield "conv2d_dilated", x, make_conv(2)
    yield "conv2d_kernel", kern, lambda t: _sq_sum(
        L.conv2d(x, L.ConvParams(t, bias)))
    yield "conv2d_kernel_dilated", kern, lambda t: _sq_sum(
        L.conv2d(x, L.ConvParams(t, bias, 2)))
    # 10x40 in and out: forward and backward each span several bands of
    # columns, the last one short, and backward forms the input and kernel
    # gradients from the same columns; a generator of its own leaves the
    # inputs of the other cases unchanged
    wide = T.Tensor(np.random.default_rng(107).uniform(0.2, 1.0, size=(2, 2, 10, 40)),
                    requires_grad=True)
    yield "conv2d_kernel_banded", kern, lambda t: _sq_sum(
        L.conv2d(wide, L.ConvParams(t, bias, 2)))
    yield "conv2d_bias", bias, lambda t: _sq_sum(
        L.conv2d(x, L.ConvParams(kern, t)))

    pool_in = T.Tensor(rng.permutation(np.linspace(0.1, 4.0, 16)).reshape(1, 1, 4, 4))
    yield "maxpool2", pool_in, lambda t: _sq_sum(L.maxpool2(t))
    # several images and channels, distinct values (no ties); a generator of
    # its own leaves the inputs of the cases below unchanged
    pool_batch = T.Tensor(np.random.default_rng(106).permutation(
        np.linspace(0.1, 4.0, 96)).reshape(2, 3, 4, 4))
    yield "maxpool2_batched", pool_batch, lambda t: _sq_sum(L.maxpool2(t))
    relu_in = T.Tensor(np.concatenate([rng.uniform(0.2, 1, 6), rng.uniform(-1, -0.2, 6)]))
    yield "relu", relu_in, lambda t: _sq_sum(L.relu(t))
    yield "sigmoid", T.Tensor(rng.uniform(-2, 2, size=(2, 3))), \
        lambda t: _sq_sum(L.sigmoid(t))
    yield "channel_softmax", T.Tensor(rng.normal(size=(1, 3, 2, 2))), \
        lambda t: _sq_sum(L.channel_softmax(t))


def _loss_cases():
    rng = np.random.default_rng(104)
    pred = T.Tensor(_simplex(rng, (1, 3, 2, 2)))
    target = np.zeros((1, 3, 2, 2))
    target[0, 1] = [[1.0, 1.0], [0.0, 1.0]]  # class 1, VOID at (1, 0)
    yield "mce_loss", pred, lambda t: mce_loss(t, target)

    grid = T.Tensor(rng.uniform(0.15, 0.85, size=(2, 1, 2, 2)))
    yield "bce_loss_t1", grid, lambda t: bce_loss(t, 1)
    yield "bce_loss_t0", grid, lambda t: bce_loss(t, 0)

    adv = T.Tensor(rng.uniform(0.2, 0.8, size=(1, 1, 1, 1)))
    for tag, modified in (("modified", True), ("original", False)):
        yield (f"segmenter_objective_{tag}", pred,
               lambda t, m=modified: segmenter_objective(t, target, adv, 0.8, m))
    other = T.Tensor(grid.data * 0.9)
    yield "adversary_objective", grid, lambda t: adversary_objective(t, other)


def _encoding_cases():
    rng = np.random.default_rng(105)
    c = 3
    seg = T.Tensor(_simplex(rng, (1, c, 4, 4)))
    labels = rng.integers(0, c, size=(1, 4, 4))
    labels[0, 0, 0] = 255
    img = rng.uniform(0.1, 0.9, size=(1, 3, 4, 4))

    def through(kind):
        enc = EncodingKind(kind)

        def f(t):
            _, pred = build_adv_pair(img, labels, t, enc)
            return _sq_sum(pred)
        return f

    yield "encode_basic_path", seg, through("basic")
    yield "encode_product_path", seg, through("product")
    yield "encode_scaling_path", seg, through("scaling")


def find_composition_instance(max_tries: int = 200):
    """A tiny segmenter+adversary instance whose activations sit safely away
    from every kink, so central differences are trustworthy. Nonzero biases
    (unlike training init) push whole channels off the relu kink."""
    seg = N.build_segmenter(2, channels_base=3, n_context_layers=1)
    adv = N.build_adversary(2, "small", "light")
    for seed in range(max_tries):
        seg_params = N.init_params(seg, 1000 + seed)
        adv_params = N.init_params(adv, 2000 + seed)
        rng = np.random.default_rng(3000 + seed)
        for params in (seg_params, adv_params):
            for name, t in params.items():
                if name.endswith(".bias"):
                    t.data[...] = rng.choice([-0.25, 0.25], size=t.shape)
        x = T.Tensor(rng.uniform(0.1, 0.9, size=(1, 3, 8, 8)))
        labels = rng.integers(0, 2, size=(1, 4, 4))
        trace = []
        probs = N.forward(seg, seg_params, x, trace=trace)
        N.forward(adv, adv_params, _adv_batch(labels, probs), trace=trace)
        if kink_margin(trace) > KINK_MARGIN:
            return seg, adv, seg_params, adv_params, x, labels
    raise RuntimeError("no kink-free composition instance found")


def _adv_batch(labels, probs) -> T.Tensor:
    """The adversary's basic-encoded ground-truth and predicted maps, stacked
    along the batch axis, ground truth first; a constant."""
    gt, pred = build_adv_pair(None, labels, probs, EncodingKind("basic"))
    return T.Tensor(np.concatenate([gt.data, pred.data]))


def _traced(spec, params, x):
    """(each layer's input, output) of one forward pass, all detached."""
    trace = []
    out = N.forward(spec, params, x, trace=trace)
    return [t.detach() for _, t in trace], out.detach()


def _layer_of(name: str) -> int:
    """k of a trunk parameter 'L{k}.kernel' or 'L{k}.bias'."""
    return int(name[1:name.index(".")])


def _composition_cases():
    seg, adv, seg_params, adv_params, x, labels = find_composition_instance()
    target = one_hot(labels, 2)
    basic = EncodingKind("basic")

    seg_in, probs = _traced(seg, seg_params, x)
    both_in, _ = _traced(adv, adv_params, _adv_batch(labels, probs))
    n = len(labels)

    seg_fixed, adv_fixed = N.detach_params(seg_params), N.detach_params(adv_params)

    def seg_loss(name):
        k, params = _layer_of(name), {**seg_fixed, name: seg_params[name]}

        def f(_):
            probs = N.forward(seg, params, seg_in[k], start=k)
            _, pred = build_adv_pair(None, labels, probs, basic)
            grid = N.forward(adv, adv_fixed, pred)
            return segmenter_objective(probs, target, grid, 1.0, True)
        return f

    def adv_loss(name):
        k, params = _layer_of(name), {**adv_fixed, name: adv_params[name]}

        def f(_):
            grid = N.forward(adv, params, both_in[k], start=k)
            return adversary_objective(T.slice_batch(grid, 0, n),
                                       T.slice_batch(grid, n, 2 * n))
        return f

    for name, p in seg_params.items():
        yield f"end_to_end_seg[{name}]", p, seg_loss(name)
    for name, p in adv_params.items():
        yield f"end_to_end_adv[{name}]", p, adv_loss(name)


def iter_cases():
    yield from _elementwise_cases()
    yield from _reduce_cases()
    yield from _structure_cases()
    yield from _layer_cases()
    yield from _loss_cases()
    yield from _encoding_cases()
    yield from _composition_cases()


class UnknownOpKind(ValueError):
    """A negative control named an op kind that no case records."""


def run_suite(corrupt_op: str | None = None):
    """Run every case; returns a list of (name, max_relative_error). With
    ``corrupt_op``, an op kind some case records, its rule is scaled by 1.5."""
    if corrupt_op is None:
        return [(name, T.grad_check(f, x)) for name, x, f in iter_cases()]
    cases, kinds = list(iter_cases()), set()
    for _, x, f in cases:  # each case's analytic pass, as grad_check runs it
        was, x.requires_grad = x.requires_grad, True
        kinds.update(t.node.op_kind for t in T.graph_order(f(x)) if t.node is not None)
        x.requires_grad = was
    if corrupt_op not in kinds:
        raise UnknownOpKind(f"cannot corrupt {corrupt_op!r}: the cases record "
                            f"the op kinds {', '.join(sorted(kinds))}")
    with T.overridden_backward(corrupt_op):
        return [(name, T.grad_check(f, x)) for name, x, f in cases]


def suite_passed(results) -> bool:
    return all(err < TOLERANCE for _, err in results)
