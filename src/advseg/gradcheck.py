"""Finite-difference verification suite over every registered op.

Each case builds a scalar-valued function of one tensor on a small seeded
instance chosen to sit away from non-differentiable points (relu kinks,
pool ties, clamp edges), runs :func:`advseg.tensor.grad_check`, and reports
the max relative error. ``run_suite`` drives all cases; a deliberately
corrupted op can be substituted as a negative control to prove the suite
catches broken backward rules.
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from . import networks as N
from . import tensor as T
from .encodings import EncodingKind, build_adv_pair
from .losses import ObjectiveConfig, adversary_objective, bce_loss, mce_loss, segmenter_objective

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


def _elementwise_cases(ops):
    rng = np.random.default_rng(100)
    a = T.Tensor(rng.uniform(0.3, 1.8, size=(3, 2)))
    b = T.Tensor(rng.uniform(0.4, 1.5, size=(3, 2)))
    yield "add", a, lambda t: _sq_sum(ops["add"](t, b))
    yield "add_scalar", a, lambda t: _sq_sum(ops["add"](t, 0.7))
    yield "sub", a, lambda t: _sq_sum(ops["sub"](t, b))
    yield "mul", a, lambda t: _sq_sum(ops["mul"](t, b))
    yield "mul_scalar", a, lambda t: _sq_sum(ops["mul"](t, -1.3))
    yield "div", a, lambda t: _sq_sum(ops["div"](t, b))
    yield "div_num", b, lambda t: _sq_sum(ops["div"](a, t))
    yield "neg", a, lambda t: _sq_sum(ops["neg"](t))
    yield "log", a, lambda t: _sq_sum(ops["log"](t))
    yield "exp", a, lambda t: _sq_sum(ops["exp"](T.mul(t, 0.5)))
    # a's elements stay at least 0.3 from the kink / clamp edges
    yield "max_with_scalar", a, lambda t: _sq_sum(ops["max_with_scalar"](t, 0.0))
    yield "clamp", a, lambda t: _sq_sum(ops["clamp"](t, 0.0, 2.5))


def _reduce_cases():
    rng = np.random.default_rng(101)
    a = T.Tensor(rng.permutation(np.linspace(0.2, 3.0, 12)).reshape(3, 4))
    yield "reduce_sum", a, lambda t: T.reduce_sum(T.mul(t, t))
    yield "reduce_sum_axis", a, lambda t: _sq_sum(T.reduce_sum(t, axes=0))
    yield "reduce_mean", a, lambda t: _sq_sum(T.reduce_mean(t, axes=1))
    yield "reduce_max", a, lambda t: _sq_sum(T.reduce_max(t, axes=1))


def _structure_cases():
    rng = np.random.default_rng(102)
    a = T.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)))
    b = T.Tensor(rng.uniform(-1, 1, size=(1, 3, 3, 3)))
    yield "concat_channels", a, lambda t: _sq_sum(T.concat_channels([t, b]))
    yield "slice_channels", b, lambda t: _sq_sum(T.slice_channels(t, 1, 3))


def _layer_cases():
    rng = np.random.default_rng(103)
    x = T.Tensor(rng.uniform(0.2, 1.0, size=(1, 2, 6, 6)))
    kern = T.Tensor(rng.uniform(-0.5, 0.5, size=(3, 2, 3, 3)))
    bias = T.Tensor(rng.uniform(-0.2, 0.2, size=3))

    def make_conv(stride, dilation, padding):
        def f(t):
            p = L.ConvParams(kern, bias, stride, dilation, padding)
            return _sq_sum(L.conv2d(t, p))
        return f

    yield "conv2d", x, make_conv(1, 1, 0)
    yield "conv2d_strided", x, make_conv(2, 1, 1)
    yield "conv2d_dilated", x, make_conv(1, 2, 2)
    yield "conv2d_kernel", kern, lambda t: _sq_sum(
        L.conv2d(x, L.ConvParams(t, bias, 1, 1, 1)))
    yield "conv2d_kernel_strided", kern, lambda t: _sq_sum(
        L.conv2d(x, L.ConvParams(t, bias, 2, 1, 1)))
    yield "conv2d_kernel_dilated", kern, lambda t: _sq_sum(
        L.conv2d(x, L.ConvParams(t, bias, 1, 2, 2)))
    # 2x3 kernel, stride 3 on a padded extent of 8: the output never reads
    # input rows 1 and 4 or column 5, so their gradient must be exactly zero
    rect = T.Tensor(kern.data[:, :, :2, :])
    yield "conv2d_rect_strided", x, lambda t: _sq_sum(
        L.conv2d(t, L.ConvParams(rect, bias, 3, 1, 1)))
    yield "conv2d_bias", bias, lambda t: _sq_sum(
        L.conv2d(x, L.ConvParams(kern, t, 1, 1, 1)))

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
    target[0, 1] = 1.0
    mask = np.array([[1.0, 1.0], [0.0, 1.0]])
    yield "mce_loss", pred, lambda t: mce_loss(t, target, mask)

    grid = T.Tensor(rng.uniform(0.15, 0.85, size=(2, 1, 2, 2)))
    yield "bce_loss_t1", grid, lambda t: bce_loss(t, 1)
    yield "bce_loss_t0", grid, lambda t: bce_loss(t, 0)

    adv = T.Tensor(rng.uniform(0.2, 0.8, size=(1, 1, 1, 1)))
    for tag, modified in (("modified", True), ("original", False)):
        cfg = ObjectiveConfig(lam=0.8, modified_update=modified)
        yield (f"segmenter_objective_{tag}", pred,
               lambda t, cfg=cfg: segmenter_objective(t, target, mask, adv, cfg))
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
            return _sq_sum(pred.channels)
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
        _, pred = build_adv_pair(None, labels, probs, EncodingKind("basic"))
        N.forward(adv, adv_params, pred.channels, trace=trace)
        if kink_margin(trace) > KINK_MARGIN:
            return seg, adv, seg_params, adv_params, x, labels
    raise RuntimeError("no kink-free composition instance found")


def _composition_cases():
    seg, adv, seg_params, adv_params, x, labels = find_composition_instance()
    cfg = ObjectiveConfig(lam=1.0, modified_update=True)
    target = np.zeros((1, 2, 4, 4))
    target[0, 0] = labels == 0
    target[0, 1] = labels == 1
    mask = np.ones((1, 4, 4))

    def seg_loss(_):
        probs = N.forward(seg, seg_params, x)
        _, pred = build_adv_pair(None, labels, probs, EncodingKind("basic"))
        grid = N.forward(adv, adv_params, pred.channels)
        return segmenter_objective(probs, target, mask, grid, cfg)

    probs_const = N.forward(seg, seg_params, x).detach()

    def adv_loss(_):
        gt, pred = build_adv_pair(None, labels, probs_const, EncodingKind("basic"))
        grid_gt = N.forward(adv, adv_params, gt.channels)
        grid_pred = N.forward(adv, adv_params, pred.channels)
        return adversary_objective(grid_gt, grid_pred)

    for name, p in seg_params.items():
        yield f"end_to_end_seg[{name}]", p, seg_loss
    for name, p in adv_params.items():
        yield f"end_to_end_adv[{name}]", p, adv_loss


def _corrupted(ops: dict, op_name: str) -> dict:
    """Swap one op for a version whose backward rule is wrong (negative
    control: the suite must flag it)."""
    if op_name not in ops:
        raise ValueError(f"cannot corrupt unknown op {op_name!r}")
    real = ops[op_name]

    def wrong(*args):
        out = real(*args)
        if out.node is not None:
            true_bw = out.node.backward_fn
            out.node.backward_fn = lambda g: tuple(
                None if ig is None else ig * 1.5 for ig in true_bw(g))
        return out

    patched = dict(ops)
    patched[op_name] = wrong
    return patched


def iter_cases(corrupt_op: str | None = None):
    ops = {name: getattr(T, name)
           for name in ("add", "sub", "mul", "div", "neg", "log", "exp",
                        "max_with_scalar", "clamp")}
    if corrupt_op is not None:
        ops = _corrupted(ops, corrupt_op)
    yield from _elementwise_cases(ops)
    yield from _reduce_cases()
    yield from _structure_cases()
    yield from _layer_cases()
    yield from _loss_cases()
    yield from _encoding_cases()
    yield from _composition_cases()


def run_suite(corrupt_op: str | None = None, h: float = 1e-5):
    """Run every case; returns a list of (name, max_relative_error)."""
    results = []
    for name, x, f in iter_cases(corrupt_op):
        results.append((name, T.grad_check(f, x, h=h)))
    return results


def suite_passed(results, tolerance: float = TOLERANCE) -> bool:
    return all(err < tolerance for _, err in results)
