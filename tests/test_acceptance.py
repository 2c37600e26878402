"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 7, the desk-scale paired experiment on the adversarial term, is
still pending and has no test here. Every other criterion is a hard
assertion at the stated tolerance.
"""

import time

import numpy as np

import advseg.cli as cli
from advseg.encodings import EncodingKind, build_adv_pair, encode_scaling, one_hot
from advseg.gradcheck import TOLERANCE, run_suite
from advseg.labelmap import VOID
from advseg.losses import (
    adversary_objective,
    bce_loss,
    mce_loss,
    segmenter_objective,
)
from advseg.metrics import (
    BFConfig,
    bf_score,
    confusion,
    evaluate_predictions,
    image_diagonal,
    summary_metrics,
)
from advseg.networks import (
    build_adversary,
    build_segmenter,
    forward,
    init_params,
)
from advseg.tensor import Tensor, backward

from oracles import (
    affected_outputs,
    bf_precision_recall,
    boundary_points,
    boundary_points_naive,
    confusion_naive,
    hybrid_loss,
    kl_divergence,
    min_kl_given_floor,
)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_gradient_oracle_suite():
    t0 = time.monotonic()
    results = run_suite()
    elapsed = time.monotonic() - t0
    worst_name, worst = max(results, key=lambda r: r[1])
    ok = all(err < TOLERANCE for _, err in results) and elapsed < 120.0
    _report(1, ok, f"{len(results)} grad checks, worst {worst:.2e} "
                   f"({worst_name}), {elapsed:.0f}s < 120s")


def test_criterion_2_objective_identities():
    rng = np.random.default_rng(42)

    def simplex(shape):
        raw = rng.uniform(0.05, 1.0, size=shape)
        return raw / raw.sum(axis=1, keepdims=True)

    # (a) lambda = 0 hybrid equals the bare cross-entropy sum
    max_a = 0.0
    for _ in range(10):
        pred = Tensor(simplex((2, 3, 4, 4)))
        labels = rng.integers(0, 3, size=(2, 4, 4))
        labels[rng.uniform(size=(2, 4, 4)) <= 0.2] = VOID
        target = one_hot(labels, 3)
        adv = Tensor(rng.uniform(0.1, 0.9, size=(2, 1, 2, 2)))
        h = hybrid_loss(pred, target, adv, adv, 0.0).item()
        m = mce_loss(pred, target).item()
        max_a = max(max_a, abs(h - m))

    # (b) adversary objective is the negated bracket of the hybrid loss
    max_b = 0.0
    for _ in range(20):
        lam = rng.uniform(0.1, 3.0)
        pred = Tensor(simplex((2, 3, 4, 4)))
        target = one_hot(rng.integers(0, 3, size=(2, 4, 4)), 3)
        adv_gt = Tensor(rng.uniform(0.05, 0.95, size=(2, 1, 2, 2)))
        adv_pred = Tensor(rng.uniform(0.05, 0.95, size=(2, 1, 2, 2)))
        h = hybrid_loss(pred, target, adv_gt, adv_pred, lam).item()
        m = mce_loss(pred, target).item()
        a = adversary_objective(adv_gt, adv_pred).item()
        max_b = max(max_b, abs(a - (-(h - m) / lam)))

    # (c) surrogate gradients: same sign everywhere, magnitude ratio a/(1-a)
    max_c = 0.0
    signs_ok = True
    for a_val in np.arange(0.001, 0.9995, 0.001):
        t = Tensor(np.full((1, 1, 1, 1), a_val), requires_grad=True)
        backward(bce_loss(t, 0))
        g_orig = t.grad.item()
        t.zero_grad()
        backward(bce_loss(t, 1))
        g_mod = t.grad.item()
        signs_ok &= np.sign(g_orig) == -np.sign(g_mod)
        max_c = max(max_c, abs(abs(g_orig) / abs(g_mod) - a_val / (1 - a_val)))

    ok = max_a < 1e-12 and max_b < 1e-12 and signs_ok and max_c < 1e-9
    _report(2, ok, f"lam0 delta {max_a:.1e} (<1e-12), zero-sum delta "
                   f"{max_b:.1e} (<1e-12), ratio delta {max_c:.1e} (<1e-9)")


def test_criterion_3_scaling_encoding_exactness():
    rng = np.random.default_rng(7)
    tau = 0.9
    t0 = time.monotonic()
    worst_sum = 0.0
    worst_kl = 0.0
    identity_ok = True
    mass_ok = True
    kl_checked = 0
    for i in range(1000):
        c = int(rng.integers(2, 5))
        raw = rng.uniform(0.01, 1.0, size=c)
        s = raw / raw.sum()
        label = int(rng.integers(0, c))
        out = encode_scaling(s.reshape(1, c, 1, 1), np.full((1, 1, 1), label), tau)[0, :, 0, 0]
        mass_ok &= out[label] >= tau - 1e-15
        worst_sum = max(worst_sum, abs(out.sum() - 1.0))
        if s[label] >= tau:
            identity_ok &= np.allclose(out, s, atol=1e-15)
        elif i % 10 == 0:  # constrained-optimizer oracle on a subsample
            ours = kl_divergence(out, s)
            best = min_kl_given_floor(s, label, tau)
            worst_kl = max(worst_kl, ours - best)
            kl_checked += 1
    elapsed = time.monotonic() - t0
    ok = (mass_ok and worst_sum < 1e-12 and identity_ok
          and worst_kl < 1e-6 and elapsed < 60.0)
    _report(3, ok, f"1000 simplex points: sums within {worst_sum:.1e}, "
                   f"KL gap {worst_kl:.2e} over {kl_checked} oracle points, "
                   f"{elapsed:.0f}s < 60s")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(11)

    for _ in range(200):
        h, w = rng.integers(1, 9, size=2)
        c = int(rng.integers(2, 5))
        gt = rng.integers(0, c, size=(h, w))
        gt[rng.uniform(size=(h, w)) < 0.2] = VOID
        pred = rng.integers(0, c, size=(h, w))
        cm = confusion(pred, gt, c)
        cm_naive = confusion_naive(pred, gt, c, VOID)
        assert np.array_equal(cm, cm_naive)
        if cm.sum():
            per_class, pix, miou = summary_metrics(cm)
            row = cm_naive.sum(axis=1)
            col = cm_naive.sum(axis=0)
            diag = np.diag(cm_naive)
            assert pix == diag.sum() / cm_naive.sum()
            ious = [diag[k] / (row[k] + col[k] - diag[k])
                    for k in range(c) if row[k] + col[k] - diag[k] > 0]
            assert miou == (np.mean(ious) if ious else 0.0)
            for k in range(c):
                expect = diag[k] / row[k] if row[k] else None
                assert per_class[k] == expect

    for i in range(100):
        h, w = rng.integers(4, 33, size=2)
        c = int(rng.integers(2, 4))
        gt = rng.integers(0, c, size=(h, w))
        pred = rng.integers(0, c, size=(h, w))
        diag_len = image_diagonal(gt.shape)
        cfg = BFConfig(smallest_diagonal=diag_len)
        scores = bf_score(pred, gt, c, cfg, diag_len)
        tol = cfg.tolerance(diag_len)
        for cls in range(c):
            pb = [tuple(p) for p in boundary_points(pred, cls)]
            gb = [tuple(p) for p in boundary_points(gt, cls)]
            assert pb == sorted(boundary_points_naive(pred, cls, VOID))
            if not pb and not gb:
                assert cls not in scores
                continue
            # the O(n^2) scalar loop on every tenth map
            p, r = bf_precision_recall(pb, gb, tol, naive=i % 10 == 0)
            f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert scores[cls] == (p, r, f1)

    d = image_diagonal((48, 64))
    cfg = BFConfig(smallest_diagonal=d)
    tolerance_exact = cfg.tolerance(d) == 5.0
    _report(4, tolerance_exact,
            "confusion exact on 200 maps, bf exact on 100 maps, tolerance(d)=5 exact")


def test_criterion_5_structural_fidelity():
    specs = {
        "segmenter": build_segmenter(3, channels_base=6, n_context_layers=2),
        "adv_large": build_adversary(3, "large"),
        "adv_large_light": build_adversary(3, "large", "light"),
        "adv_small": build_adversary(3, "small"),
        "adv_small_light": build_adversary(3, "small", "light"),
        "adv_two_branch": build_adversary(3, "large", "light", two_branch=True),
    }
    rng = np.random.default_rng(13)
    for name, spec in specs.items():
        params = init_params(spec, 5)
        for pname, t in params.items():
            if pname.endswith(".kernel"):
                fan_in = t.shape[1] * t.shape[2] * t.shape[3]
                t.data[...] = rng.uniform(0.5, 1.5, size=t.shape) / fan_in
            else:
                t.data[...] = 0.1
        hw = 16
        x = np.ones((1, spec.in_channels, hw, hw))
        img = Tensor(np.ones((1, 3, hw, hw)))

        def run(arr):
            inp = (Tensor(arr), img) if spec.image_channels else Tensor(arr)
            return forward(spec, params, inp).data

        base = run(x)
        for pixel in ((hw // 2, hw // 2), (2, hw - 3)):
            pert = x.copy()
            pert[0, :, pixel[0], pixel[1]] += 0.5
            delta = np.abs(run(pert) - base)
            changed = np.argwhere(delta > 0)
            assert changed.size, f"{name}: no output changed"
            box = (changed[:, 2].min(), changed[:, 2].max(),
                   changed[:, 3].min(), changed[:, 3].max())
            ai, bi = affected_outputs(spec, pixel[0], base.shape[2])
            aj, bj = affected_outputs(spec, pixel[1], base.shape[3])
            assert box == (ai, bi, aj, bj), f"{name}: {box} != {(ai, bi, aj, bj)}"

    seg = build_segmenter(4)
    adv = build_adversary(4, "large")
    x = Tensor(np.random.default_rng(17).uniform(size=(1, 3, 32, 32)))
    probs = forward(seg, init_params(seg, 0), x)
    grid = forward(adv, init_params(adv, 1), probs)
    ratio = (probs.shape[2] * probs.shape[3]) // (grid.shape[2] * grid.shape[3])

    labels = np.random.default_rng(19).integers(0, 4, size=(1, 16, 16))
    img = np.random.default_rng(23).uniform(size=(1, 3, 32, 32))
    gt, pred = build_adv_pair(img, labels, probs, EncodingKind("product"))
    product_channels = gt.shape[1]

    ok = ratio == 16 and product_channels == 3 * 4
    _report(5, ok, f"rf matches perturbation on {len(specs)} specs, "
                   f"adversary grid {ratio}x fewer predictions (=16), "
                   f"product channels {product_channels} = 3C")


def test_criterion_6_void_pixel_isolation():
    rng = np.random.default_rng(29)
    c = 3
    h = w = 8
    labels = rng.integers(0, c, size=(1, h, w))
    labels[0, 2:5, 3:6] = VOID
    void_pos = np.argwhere(labels[0] == VOID)
    raw = rng.uniform(0.05, 1.0, size=(1, c, h, w))
    seg_data = raw / raw.sum(axis=1, keepdims=True)
    image = rng.uniform(size=(1, 3, h, w))
    target = one_hot(labels, c)
    adv = build_adversary(3 * c, "small", "light")
    adv_params = init_params(adv, 3)

    def all_losses(seg_arr, img_arr):
        seg = Tensor(seg_arr, requires_grad=True)
        gt, pred = build_adv_pair(img_arr, labels, seg, EncodingKind("product"))
        a_gt = forward(adv, adv_params, gt)
        a_pred = forward(adv, adv_params, pred)
        vals = (mce_loss(seg, target).item(),
                segmenter_objective(seg, target, a_pred, 1.0, True).item(),
                adversary_objective(a_gt, Tensor(a_pred.data)).item(),
                hybrid_loss(seg, target, a_gt, a_pred, 1.0).item())
        loss = segmenter_objective(seg, target, a_pred, 1.0, True)
        backward(loss)
        return vals, seg.grad.copy()

    base_vals, base_grad = all_losses(seg_data, image)

    # exact zero gradient at every void position, including the backward
    # pass of the adversarial term
    grad_zero = all(np.all(base_grad[0, :, i, j] == 0.0) for i, j in void_pos)

    seg_pert = seg_data.copy()
    img_pert = image.copy()
    for i, j in void_pos:
        seg_pert[0, :, i, j] = rng.uniform(0.01, 0.99, size=c)
        img_pert[0, :, i, j] = rng.uniform(size=3)
    pert_vals, _ = all_losses(seg_pert, img_pert)
    loss_deltas = [abs(a - b) for a, b in zip(base_vals, pert_vals)]

    pred_a = rng.integers(0, c, size=(h, w))
    pred_b = pred_a.copy()
    for i, j in void_pos:
        pred_b[i, j] = (pred_b[i, j] + 1) % c
    ra = evaluate_predictions([pred_a], [labels[0]], c,
                              BFConfig(smallest_diagonal=image_diagonal((h, w))))
    rb = evaluate_predictions([pred_b], [labels[0]], c,
                              BFConfig(smallest_diagonal=image_diagonal((h, w))))
    metric_same = (ra.pixel_acc == rb.pixel_acc and ra.mean_iou == rb.mean_iou
                   and ra.per_class_acc == rb.per_class_acc)

    ok = grad_zero and all(d == 0.0 for d in loss_deltas) and metric_same
    _report(6, ok, f"loss deltas {loss_deltas} all exactly 0, gradients zero "
                   f"at {len(void_pos)} void positions, metrics unchanged")


def test_criterion_8_reproducibility(tmp_path):
    data_args = ["--set", "height=16", "--set", "width=16",
                 "--set", "num_classes=3", "--set", "n_train=4",
                 "--set", "n_val=2", "--set", "n_test=1"]
    net_args = ["--set", "num_classes=3", "--set", "channels_base=4",
                "--set", "n_context_layers=1",
                "--set", "adversary_capacity=light",
                "--set", "max_iters=6", "--set", "eval_every=3",
                "--set", "lambda=1.0"]

    pairs = {}
    for tag in ("a", "b"):
        d = tmp_path / f"data_{tag}"
        r = tmp_path / f"run_{tag}"
        e = tmp_path / f"eval_{tag}"
        assert cli.main(["gen-data", "--out", str(d)] + data_args) == 0
        assert cli.main(["train", "--data", str(d), "--out", str(r)] + net_args) == 0
        assert cli.main(["eval", "--data", str(d), "--ckpt", str(r),
                         "--out", str(e)] + net_args) == 0
        pairs[tag] = (d, r, e)

    identical = True
    for kind in range(3):
        da, db = pairs["a"][kind], pairs["b"][kind]
        for name in sorted(p.name for p in da.iterdir()):
            identical &= (da / name).read_bytes() == (db / name).read_bytes()
    _report(8, identical, "gen-data, train, and eval reruns byte-identical")
