"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive (scalar loops, exhaustive search) and
shares no code with the implementation paths it checks.
"""

import math

import numpy as np


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
