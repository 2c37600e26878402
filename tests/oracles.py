"""Independent brute-force oracles used by the tests.

Everything above the last section is deliberately naive (scalar loops,
exhaustive search) or built on a library the package does not use, and
shares no code with the implementation paths it checks. The last section
holds helpers that only tests need, built from the package's own pieces.
"""

import math

import numpy as np
from scipy.spatial import cKDTree

from advseg.encodings import downsample, encode_scaling, one_hot
from advseg.labelmap import VOID
from advseg.losses import PROB_EPS, bce_loss, mce_loss
from advseg.metrics import boundary_mask
from advseg.networks import NetSpec, rf_geometry
from advseg.tensor import (Tensor, add, clamp, concat_channels, log, mul, reduce_sum,
                           slice_channels)


def conv2d_naive(x, kernel, bias, stride=1, dilation=1, padding=0):
    """Direct-summation cross-correlation over scalar loops."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((n, cin, hp, wp))
    xp[:, :, padding: padding + h, padding: padding + w] = x
    hout = (hp - (dilation * (kh - 1) + 1)) // stride + 1
    wout = (wp - (dilation * (kw - 1) + 1)) // stride + 1
    out = np.zeros((n, cout, hout, wout))
    for ni in range(n):
        for oc in range(cout):
            for oi in range(hout):
                for oj in range(wout):
                    acc = bias[oc]
                    for ic in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (kernel[oc, ic, ki, kj]
                                        * xp[ni, ic,
                                             oi * stride + ki * dilation,
                                             oj * stride + kj * dilation])
                    out[ni, oc, oi, oj] = acc
    return out


def conv2d_grads_naive(x, kernel, g, stride=1, dilation=1, padding=0):
    """Input and kernel gradients of conv2d_naive for output gradient g,
    by scattering every multiply-add of the forward sum back to both of its
    operands."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding: padding + h, padding: padding + w] = x
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel, dtype=float)
    _, _, hout, wout = g.shape
    for ni in range(n):
        for oc in range(cout):
            for oi in range(hout):
                for oj in range(wout):
                    go = g[ni, oc, oi, oj]
                    for ic in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                r = oi * stride + ki * dilation
                                c = oj * stride + kj * dilation
                                gk[oc, ic, ki, kj] += go * xp[ni, ic, r, c]
                                gxp[ni, ic, r, c] += go * kernel[oc, ic, ki, kj]
    return gxp[:, :, padding: padding + h, padding: padding + w], gk


def dilate_kernel(kernel, d):
    """Insert d-1 zero rows/columns between kernel taps."""
    cout, cin, kh, kw = kernel.shape
    eh, ew = d * (kh - 1) + 1, d * (kw - 1) + 1
    big = np.zeros((cout, cin, eh, ew))
    big[:, :, ::d, ::d] = kernel
    return big


def maxpool2_gather(x, g):
    """2x2 max pooling of x (N, C, H, W) and its input gradient for output
    gradient g: each window is gathered into a last axis of four in
    row-major order, and argmax picks its first maximum."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    windows = (x.reshape(n, c, h2, 2, w2, 2)
               .transpose(0, 1, 2, 4, 3, 5)
               .reshape(n, c, h2, w2, 4))
    idx = np.argmax(windows, axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    gw = np.zeros_like(windows)
    np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
    gx = (gw.reshape(n, c, h2, w2, 2, 2)
          .transpose(0, 1, 2, 4, 3, 5)
          .reshape(n, c, h, w))
    return out, gx


def lcn_per_plane(arr, window):
    """Local contrast normalization of an image arr (C, H, W), one plane at
    a time through a 2-D edge-padded integral image."""
    r = window // 2
    count = float(window * window)

    def box_sums(a):
        ap = np.pad(a, r, mode="edge")
        ii = np.zeros((ap.shape[0] + 1, ap.shape[1] + 1))
        ii[1:, 1:] = ap.cumsum(axis=0).cumsum(axis=1)
        return (ii[window:, window:] - ii[:-window, window:]
                - ii[window:, :-window] + ii[:-window, :-window])

    out = np.empty_like(arr)
    for ci, plane in enumerate(arr):
        mean = box_sums(plane) / count
        var = box_sums(plane * plane) / count - mean * mean
        std = np.sqrt(np.maximum(var, 0.0))
        out[ci] = (plane - mean) / np.maximum(std, 0.01)
    return out


def confusion_naive(pred, gt, num_classes, void):
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    h, w = gt.shape
    for i in range(h):
        for j in range(w):
            g = int(gt[i, j])
            if g == void:
                continue
            cm[g, int(pred[i, j])] += 1
    return cm


def boundary_points_naive(labels, cls, void):
    """Pixels of class cls that touch the border or a different non-void
    4-neighbor."""
    h, w = labels.shape
    pts = []
    for i in range(h):
        for j in range(w):
            if labels[i, j] != cls:
                continue
            if i == 0 or j == 0 or i == h - 1 or j == w - 1:
                pts.append((i, j))
                continue
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                nb = labels[i + di, j + dj]
                if nb != cls and nb != void:
                    pts.append((i, j))
                    break
    return pts


def bf_match_fraction_naive(points, targets, tol):
    """Fraction of ``points`` with a target within Euclidean distance tol;
    comparison is exact via integer squared distances."""
    if not points:
        return 0.0
    tol_sq = tol * tol
    hits = 0
    for (pi, pj) in points:
        for (ti, tj) in targets:
            if (pi - ti) ** 2 + (pj - tj) ** 2 <= tol_sq:
                hits += 1
                break
    return hits / len(points)


def dilate_disk_naive(masks, tol):
    """For (..., H, W) boolean masks, each pixel that has a True pixel of
    its plane within Euclidean distance ``tol``, by exhaustive search over
    pixel pairs with the exact integer-versus-tol*tol test."""
    masks = np.asarray(masks, dtype=bool)
    h, w = masks.shape[-2:]
    planes = masks.reshape(-1, h, w)
    near = np.zeros(planes.shape, dtype=bool)
    tol_sq = tol * tol
    for p, plane in enumerate(planes):
        points = [(i, j) for i in range(h) for j in range(w) if plane[i, j]]
        for i in range(h):
            for j in range(w):
                near[p, i, j] = any((i - pi) ** 2 + (j - pj) ** 2 <= tol_sq
                                    for pi, pj in points)
    return near.reshape(masks.shape)


def bf_match_fraction_kdtree(points, targets, tol):
    """``bf_match_fraction_naive`` through a k-d tree: each point's nearest
    target, found by ``scipy.spatial.cKDTree``, is a hit when its integer
    squared distance is at most tol * tol, the same exact test."""
    if not points or not targets:
        return 0.0
    pts = np.asarray(points, dtype=np.int64)
    tgs = np.asarray(targets, dtype=np.int64)
    _, nearest = cKDTree(tgs).query(pts)
    d = pts - tgs[nearest]
    hits = np.count_nonzero((d * d).sum(axis=1) <= tol * tol)
    return int(hits) / len(points)


def bf_precision_recall(pred_points, gt_points, tol, naive=False):
    """(precision, recall) of boundary matching from the k-d tree oracle;
    with ``naive``, the scalar-loop oracle must give the same two floats."""
    p = bf_match_fraction_kdtree(pred_points, gt_points, tol)
    r = bf_match_fraction_kdtree(gt_points, pred_points, tol)
    if naive:
        assert (bf_match_fraction_naive(pred_points, gt_points, tol),
                bf_match_fraction_naive(gt_points, pred_points, tol)) == (p, r)
    return p, r


def kl_divergence(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi)
    return total


def min_kl_given_floor(s, true_class, tau):
    """Numerically minimize KL(y || s) over the simplex subject to
    y[true_class] >= tau, via constrained optimization from several starts."""
    from scipy.optimize import minimize

    c = len(s)
    rng = np.random.default_rng(0)

    def objective(y):
        y = np.clip(y, 1e-12, 1.0)
        return float(np.sum(y * np.log(y / s)))

    best = None
    starts = [np.full(c, 1.0 / c), np.asarray(s, dtype=float)]
    for _ in range(4):
        starts.append(rng.dirichlet(np.ones(c)))
    cons = [
        {"type": "eq", "fun": lambda y: np.sum(y) - 1.0},
        {"type": "ineq", "fun": lambda y: y[true_class] - tau},
    ]
    for y0 in starts:
        y0 = np.clip(y0, 1e-6, None)
        y0 = y0 / y0.sum()
        res = minimize(objective, y0, method="SLSQP", constraints=cons,
                       bounds=[(1e-12, 1.0)] * c,
                       options={"maxiter": 500, "ftol": 1e-14})
        if res.success and (best is None or res.fun < best):
            best = float(res.fun)
    assert best is not None, "oracle optimizer failed on every start"
    return best


# Complex128 forwards of the two players' objectives, written from the
# formulas in the ``losses`` docstrings for the complex-step derivative:
# for a real-analytic f, Im f(x + i h v) / h = v . grad f(x) + O(h^2) with
# no subtractive cancellation, so h = 1e-30 gives it to rounding.


def clamp_complex(z, lo, hi):
    """Clamp into [lo, hi] with the branch chosen on ``z.real``: ``z`` where
    lo <= Re z <= hi, ties included, so the derivative passes there; the
    real bound outside, so the derivative is zero there."""
    inside = (z.real >= lo) & (z.real <= hi)
    return np.where(inside, z, np.clip(z.real, lo, hi))


def mce_complex(pred, target_onehot):
    """-sum_i sum_c y_ic ln(clamp(pred_ic))."""
    p = clamp_complex(pred, PROB_EPS, 1.0 - PROB_EPS)
    return -np.sum(target_onehot * np.log(p))


def bce_complex(pred, target):
    """sum_n mean_cells -ln(q), with q = p for target 1 and 1 - p for 0."""
    p = clamp_complex(pred, PROB_EPS, 1.0 - PROB_EPS)
    q = p if target == 1 else 1.0 - p
    return np.sum(np.mean(-np.log(q), axis=(1, 2, 3)))


def adversary_objective_complex(adv_on_gt, adv_on_pred):
    """bce(a(x, y), 1) + bce(a(x, s(x)), 0)."""
    return bce_complex(adv_on_gt, 1) + bce_complex(adv_on_pred, 0)


def adversarial_term_complex(adv_on_pred, lam, modified_update):
    """The segmenter's adversarial term: lam * bce(a(x, s(x)), 1) in the
    modified update, -lam * bce(a(x, s(x)), 0) in the original."""
    if modified_update:
        return lam * bce_complex(adv_on_pred, 1)
    return -lam * bce_complex(adv_on_pred, 0)


def segmenter_objective_complex(seg_out, target_onehot, adv_on_pred, lam,
                                modified_update):
    """mce plus the adversarial term."""
    return (mce_complex(seg_out, target_onehot)
            + adversarial_term_complex(adv_on_pred, lam, modified_update))


# ---------------------------------------------------------------------------
# test-only helpers over the package's own pieces


def mce_reference(pred: Tensor, target, mask) -> Tensor:
    """The cross-entropy with an explicit (N, H, W) VOID mask: the target
    times the mask expanded over the channels, then clamp, log, mul and sum.
    On a one-hot target, which is all-zero at VOID, ``losses.mce_loss``
    must equal it bit for bit."""
    weights = np.asarray(target, dtype=np.float64) * np.asarray(mask)[:, None]
    p = clamp(pred, PROB_EPS, 1.0 - PROB_EPS)
    return mul(reduce_sum(mul(log(p), Tensor(weights))), -1.0)


def hybrid_loss(seg_out: Tensor, target_onehot,
                adv_on_gt: Tensor, adv_on_pred: Tensor, lam: float) -> Tensor:
    """The combined two-player loss (training uses the two split
    objectives): sum_n mce - lam * [bce(a_gt, 1) + bce(a_pred, 0)]."""
    loss = mce_loss(seg_out, target_onehot)
    if lam == 0.0:
        return loss
    bracket = add(bce_loss(adv_on_gt, 1), bce_loss(adv_on_pred, 0))
    return add(loss, mul(bracket, -lam))


def adv_pair_reference(image, labels, seg_out: Tensor, enc):
    """What ``encodings.build_adv_pair`` returns, by a route that zeroes VOID
    on both sides explicitly and then, for the product encoding, slices each
    class map out three times, stacks the slices and multiplies them into
    the tiled image."""
    c, h = seg_out.shape[1], seg_out.shape[2]
    mask = Tensor(np.repeat((labels != VOID)[:, None], c, axis=1).astype(np.float64))
    gt_map = (encode_scaling(seg_out.data, labels, enc.tau) if enc.kind == "scaling"
              else one_hot(labels, c))
    gt = mul(Tensor(gt_map), mask)
    pred = mul(seg_out, mask)
    if enc.kind == "product" or enc.include_image:
        img = np.asarray(image, dtype=np.float64)
        img = downsample(img, img.shape[2] // h)
    if enc.kind == "product":
        tiled = Tensor(np.tile(img, (1, c, 1, 1)))
        gt, pred = (mul(concat_channels([slice_channels(t, ci, ci + 1)
                                         for ci in range(c) for _ in range(3)]), tiled)
                    for t in (gt, pred))
    gt = gt.detach()
    if enc.include_image:
        branch = Tensor(img)
        return (gt, branch), (pred, branch)
    return gt, pred


def affected_outputs(spec: NetSpec, pixel: int, out_extent: int) -> tuple[int, int]:
    """Inclusive output-index range [a, b] whose window covers an input
    pixel along one axis; the analytic prediction the perturbation oracle
    checks against."""
    jump, lo, hi = rf_geometry(spec)
    first = -(-(pixel - hi) // jump)  # ceil div
    last = (pixel - lo) // jump
    return max(first, 0), min(last, out_extent - 1)


def boundary_points(labels: np.ndarray, cls: int) -> np.ndarray:
    """(K, 2) integer coordinates of class-``cls`` boundary pixels in
    row-major order. VOID neighbors never create boundary points; the image
    border always does."""
    labels = np.asarray(labels)
    return np.argwhere(boundary_mask(labels) & (labels == cls)).astype(np.int64)
