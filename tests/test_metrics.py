import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advseg.labelmap import VOID
from advseg.layers import local_contrast_normalize
from advseg.metrics import (
    BFConfig,
    _within_tolerance,
    bf_score,
    confusion,
    evaluate_predictions,
    evaluate_split,
    image_diagonal,
    predict_labels,
    summary_metrics,
    upsample_labels,
)
from advseg.networks import build_segmenter, forward, init_params, receptive_field
from advseg.tensor import Tensor
from advseg.toyscenes import SceneSpec, make_dataset
from advseg.training import network_input

from oracles import (
    bf_match_fraction_naive,
    bf_precision_recall,
    boundary_points,
    boundary_points_naive,
    confusion_naive,
    dilate_disk_naive,
)


def test_confusion_perfect_prediction():
    rng = np.random.default_rng(0)
    gt = rng.integers(0, 3, size=(5, 5))
    cm = confusion(gt, gt, 3)
    assert cm.sum() == 25
    assert np.all(cm == np.diag(np.diag(cm)))
    for c in range(3):
        assert cm[c, c] == np.sum(gt == c)


def test_confusion_all_void():
    gt = np.full((3, 3), VOID)
    pred = np.zeros((3, 3), dtype=int)
    assert confusion(pred, gt, 2).sum() == 0


def test_confusion_hand_case():
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    np.testing.assert_array_equal(confusion(pred, gt, 2), [[1, 1], [0, 2]])


def test_confusion_shape_mismatch():
    with pytest.raises(ValueError):
        confusion(np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int), 2)


def test_confusion_rejects_void_predictions():
    with pytest.raises(ValueError):
        confusion(np.full((2, 2), VOID), np.zeros((2, 2), dtype=int), 2)


def test_confusion_rejects_ground_truth_outside_the_classes():
    gt = np.array([[0, VOID], [2, 3]])
    pred = np.zeros((2, 2), dtype=int)
    assert confusion(pred, gt, 4).sum() == 3
    with pytest.raises(ValueError, match="label 3 out of range for 3 classes"):
        confusion(pred, gt, 3)


def test_confusion_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        h, w = rng.integers(1, 9, size=2)
        c = int(rng.integers(2, 5))
        gt = rng.integers(0, c, size=(h, w))
        gt[rng.uniform(size=(h, w)) < 0.15] = VOID
        pred = rng.integers(0, c, size=(h, w))
        np.testing.assert_array_equal(
            confusion(pred, gt, c), confusion_naive(pred, gt, c, VOID))


def test_confusion_additive_over_disjoint_sets():
    rng = np.random.default_rng(2)
    gt = rng.integers(0, 3, size=(6, 6))
    pred = rng.integers(0, 3, size=(6, 6))
    whole = confusion(pred, gt, 3)
    top = confusion(pred[:3], gt[:3], 3)
    bottom = confusion(pred[3:], gt[3:], 3)
    np.testing.assert_array_equal(whole, top + bottom)


def test_summary_perfect():
    cm = np.diag([5, 3, 7])
    per_class, pix, miou = summary_metrics(cm)
    assert per_class == [1.0, 1.0, 1.0]
    assert pix == 1.0 and miou == 1.0


def test_summary_hand_case():
    per_class, pix, miou = summary_metrics(np.array([[1, 1], [0, 2]]))
    assert pix == 0.75
    assert abs(per_class[0] - 0.5) < 1e-12 and per_class[1] == 1.0
    assert abs(miou - (0.5 + 2 / 3) / 2) < 1e-12


def test_summary_absent_class_excluded():
    cm = np.zeros((3, 3), dtype=int)
    cm[0, 0] = 4
    cm[1, 1] = 2
    per_class, _, miou = summary_metrics(cm)
    assert per_class[2] is None
    assert miou == 1.0


def test_summary_empty_errors():
    with pytest.raises(ValueError):
        summary_metrics(np.zeros((2, 2)))


def test_boundary_uniform_map_border_ring():
    labels = np.full((5, 6), 2)
    pts = {tuple(p) for p in boundary_points(labels, 2)}
    ring = {(i, j) for i in range(5) for j in range(6)
            if i in (0, 4) or j in (0, 5)}
    assert pts == ring


def test_boundary_single_pixel_region():
    labels = np.zeros((5, 5), dtype=int)
    labels[2, 2] = 1
    assert {tuple(p) for p in boundary_points(labels, 1)} == {(2, 2)}


def test_boundary_centered_square():
    labels = np.zeros((5, 5), dtype=int)
    labels[1:4, 1:4] = 1
    pts = {tuple(p) for p in boundary_points(labels, 1)}
    assert len(pts) == 8
    assert (2, 2) not in pts


def test_boundary_void_neighbors_neutral():
    labels = np.zeros((5, 5), dtype=int)
    labels[2, 2] = VOID
    pts = boundary_points(labels, 0)
    interior = [p for p in pts if 0 < p[0] < 4 and 0 < p[1] < 4]
    assert len(interior) == 0


def test_boundary_matches_naive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        labels = rng.integers(0, 3, size=(7, 7))
        labels[rng.uniform(size=(7, 7)) < 0.1] = VOID
        for c in range(3):
            got = sorted(map(tuple, boundary_points(labels, c)))
            want = sorted(boundary_points_naive(labels, c, VOID))
            assert got == want


def test_bf_config_exact_at_smallest_diagonal():
    d = math.hypot(48, 64)
    cfg = BFConfig(smallest_diagonal=d)
    assert cfg.tolerance(d) == 5.0
    assert cfg.tolerance(2 * d) == 10.0
    theta = cfg.reference_tolerance_px / cfg.smallest_diagonal
    assert abs(theta - 5.0 / d) < 1e-15


def test_bf_identical_maps_score_one():
    rng = np.random.default_rng(4)
    labels = np.zeros((16, 16), dtype=int)
    labels[4:12, 4:12] = 1
    cfg = BFConfig(smallest_diagonal=image_diagonal(labels.shape))
    scores = bf_score(labels, labels, 2, cfg, image_diagonal(labels.shape))
    for c, (p, r, f1) in scores.items():
        assert p == r == f1 == 1.0


def test_bf_small_shift_forgiven_large_shift_not():
    def square_map(offset):
        labels = np.zeros((64, 64), dtype=int)
        labels[20 + offset: 40 + offset, 20 + offset: 40 + offset] = 1
        return labels

    gt = square_map(0)
    cfg = BFConfig(smallest_diagonal=image_diagonal(gt.shape))
    diag = image_diagonal(gt.shape)
    tol = cfg.tolerance(diag)
    assert abs(tol - 5.0) < 1e-12

    near = bf_score(square_map(1), gt, 2, cfg, diag)
    assert near[1][2] == 1.0

    far = bf_score(square_map(10), gt, 2, cfg, diag)
    assert far[1][2] < 0.5


def test_bf_symmetry_swaps_precision_recall():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, size=(12, 12))
    b = rng.integers(0, 3, size=(12, 12))
    cfg = BFConfig(smallest_diagonal=image_diagonal(a.shape))
    diag = image_diagonal(a.shape)
    ab = bf_score(a, b, 3, cfg, diag)
    ba = bf_score(b, a, 3, cfg, diag)
    assert ab.keys() == ba.keys()
    for c in ab:
        assert ab[c][0] == ba[c][1]
        assert ab[c][1] == ba[c][0]
        assert abs(ab[c][2] - ba[c][2]) < 1e-15


def test_bf_huge_tolerance_scores_one():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 2, size=(10, 10))
    b = rng.integers(0, 2, size=(10, 10))
    diag = image_diagonal(a.shape)
    cfg = BFConfig(smallest_diagonal=diag, reference_tolerance_px=diag)
    for c, (p, r, f1) in bf_score(a, b, 2, cfg, diag).items():
        pa = boundary_points(a, c)
        pb = boundary_points(b, c)
        if len(pa) and len(pb):
            assert f1 == 1.0


def test_bf_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for i in range(100):
        h, w = rng.integers(4, 33, size=2)
        c = int(rng.integers(2, 4))
        gt = rng.integers(0, c, size=(h, w))
        pred = rng.integers(0, c, size=(h, w))
        diag = image_diagonal(gt.shape)
        cfg = BFConfig(smallest_diagonal=diag)
        got = bf_score(pred, gt, c, cfg, diag)
        tol = cfg.tolerance(diag)
        for cls in range(c):
            pb = [tuple(p) for p in boundary_points(pred, cls)]
            gb = [tuple(p) for p in boundary_points(gt, cls)]
            if not pb and not gb:
                assert cls not in got
                continue
            # the O(n^2) scalar loop on every tenth map
            p, r = bf_precision_recall(pb, gb, tol, naive=i % 10 == 0)
            f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert got[cls][0] == p
            assert got[cls][1] == r
            assert got[cls][2] == f1


def _bf_naive(pred, gt, num_classes, tol):
    """bf_score from the scalar-loop oracles alone."""
    out = {}
    for cls in range(num_classes):
        pb = boundary_points_naive(pred, cls, VOID)
        gb = boundary_points_naive(gt, cls, VOID)
        if not pb and not gb:
            continue
        p = bf_match_fraction_naive(pb, gb, tol)
        r = bf_match_fraction_naive(gb, pb, tol)
        out[cls] = (p, r, 0.0 if p + r == 0 else 2 * p * r / (p + r))
    return out


def _bf_at(pred, gt, num_classes, tol):
    """bf_score with a config whose tolerance at this image is ``tol``."""
    diag = image_diagonal(gt.shape)
    cfg = BFConfig(smallest_diagonal=diag, reference_tolerance_px=tol)
    assert cfg.tolerance(diag) == tol
    return bf_score(pred, gt, num_classes, cfg, diag)


def test_bf_matches_naive_oracle_edge_cases():
    rng = np.random.default_rng(10)
    shapes = [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1), (5, 7), (12, 4)]
    for h, w in shapes:
        diag = math.hypot(h, w)
        tols = [0.0, 0.5, 0.999, 1.0, 1.2, math.sqrt(2.0), 2.5, math.sqrt(13.0),
                diag, 1.5 * diag, 1e6]
        for trial in range(12):
            c = int(rng.integers(2, 5))
            gt = rng.integers(0, c, size=(h, w))
            pred = rng.integers(0, c, size=(h, w))
            if trial % 3 == 1:  # VOID-bearing maps
                gt[rng.uniform(size=(h, w)) < 0.25] = VOID
                pred[rng.uniform(size=(h, w)) < 0.25] = VOID
            if trial % 3 == 2:  # class c-1 present only in the prediction
                gt[gt == c - 1] = 0
                pred[rng.uniform(size=(h, w)) < 0.3] = c - 1
            for tol in tols:
                got = _bf_at(pred, gt, c, tol)
                assert got == _bf_naive(pred, gt, c, tol), (h, w, trial, tol)


def test_bf_class_in_one_map_only():
    gt = np.zeros((6, 6), dtype=int)
    pred = gt.copy()
    pred[2:4, 2:4] = 1
    got = _bf_at(pred, gt, 3, 1.0)
    assert got[1] == (0.0, 0.0, 0.0)  # predicted only: no target boundary
    assert 2 not in got  # in neither map
    assert got == _bf_naive(pred, gt, 3, 1.0)
    swapped = _bf_at(gt, pred, 3, 1.0)
    assert swapped[1] == (0.0, 0.0, 0.0)


def test_bf_rejects_shape_mismatch():
    cfg = BFConfig(smallest_diagonal=5.0)
    with pytest.raises(ValueError):
        bf_score(np.zeros((3, 4), dtype=int), np.zeros((4, 3), dtype=int), 2,
                 cfg, 5.0)


@st.composite
def _map_pairs(draw):
    h = draw(st.integers(1, 10))
    w = draw(st.integers(1, 10))
    c = draw(st.integers(1, 4))
    cells = st.sampled_from(list(range(c)) + [VOID])
    pred = np.array(draw(st.lists(cells, min_size=h * w, max_size=h * w))).reshape(h, w)
    gt = np.array(draw(st.lists(cells, min_size=h * w, max_size=h * w))).reshape(h, w)
    tol = draw(st.one_of(
        st.floats(0.0, 16.0, allow_nan=False),
        st.integers(0, 13).map(lambda k: math.sqrt(k)),
        st.integers(0, 16).map(float)))
    return pred, gt, c, tol


@settings(max_examples=300, deadline=None)
@given(_map_pairs())
def test_bf_equals_naive_oracle_property(case):
    pred, gt, c, tol = case
    assert _bf_at(pred, gt, c, tol) == _bf_naive(pred, gt, c, tol)


@st.composite
def _masks_and_tolerance(draw):
    planes, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        cells = draw(st.lists(st.booleans(), min_size=planes * h * w,
                              max_size=planes * h * w))
        masks = np.array(cells, dtype=bool).reshape(planes, h, w)
    else:  # a few points, so that the disk's edge decides most pixels
        masks = np.zeros((planes, h, w), dtype=bool)
        points = st.tuples(st.integers(0, planes - 1), st.integers(0, h - 1),
                           st.integers(0, w - 1))
        for point in draw(st.lists(points, max_size=4)):
            masks[point] = True
    extent = max(h, w)
    tol = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 2.0 * extent, allow_nan=False).filter(lambda t: t != int(t)),
        st.floats(float(extent), 4.0 * extent),  # a disk wider than the image
        st.integers(0, 2 * extent * extent).map(math.sqrt)))
    return masks, tol


@settings(max_examples=200, deadline=None)
@given(_masks_and_tolerance())
def test_within_tolerance_equals_brute_force_disk_dilation(case):
    masks, tol = case
    near = _within_tolerance(masks, tol)
    assert near.dtype == bool and near.shape == masks.shape
    assert near.tobytes() == dilate_disk_naive(masks, tol).tobytes()


def test_evaluate_split_builds_no_graph_and_matches_graph_forward(monkeypatch):
    spec = SceneSpec(height=16, width=16, num_classes=3, void_border_px=0,
                     void_ribbon_px=0, seed=4)
    samples = make_dataset(spec, 0, 3).val
    seg = build_segmenter(3, channels_base=4, n_context_layers=1)
    params = init_params(seg, 5)
    stride = receptive_field(seg)[2]
    rng = np.random.default_rng(11)
    for t in params.values():
        t.grad = rng.standard_normal(t.shape)
    params["L0.bias"].requires_grad = False
    before = {k: (t.requires_grad, t.grad.copy(), t.data.copy())
              for k, t in params.items()}
    cfg = BFConfig(smallest_diagonal=image_diagonal((16, 16)))

    import advseg.networks as N
    real_forward = N.forward
    # no hook segments the raw images; the training module's hook feeds
    # 3x3 contrast-normalized ones
    for window, hook in ((0, None), (3, partial(network_input, window=3))):
        outputs = []
        monkeypatch.setattr(N, "forward",
                            lambda *a, **k: outputs.append(real_forward(*a, **k)) or outputs[-1])
        got = evaluate_split(seg, params, samples, 3, cfg, stride, preprocess=hook)
        monkeypatch.undo()
        assert len(outputs) == 3 and all(o.node is None for o in outputs)

        for k, t in params.items():
            requires_grad, grad, data = before[k]
            assert t.requires_grad is requires_grad
            np.testing.assert_array_equal(t.grad, grad)
            np.testing.assert_array_equal(t.data, data)
        params["L0.bias"].requires_grad = True
        preds = []
        for s in samples:
            image = s.image
            if window:
                image = local_contrast_normalize(image, window)
            probs = forward(seg, params, Tensor(image[None]))
            assert probs.node is not None  # the reference really builds a graph
            preds.append(predict_labels(probs.data[0], upsample=stride))
        want = evaluate_predictions(preds, [s.labels for s in samples], 3, cfg)
        assert got.n_bf_images == 3
        assert vars(got) == vars(want)
        params["L0.bias"].requires_grad = False


def test_predict_labels_tie_breaks_low_class():
    probs = np.full((3, 2, 2), 1.0 / 3.0)
    np.testing.assert_array_equal(predict_labels(probs, 1), np.zeros((2, 2)))


def test_upsample_nearest():
    lab = np.array([[1, 2], [3, 4]])
    up = upsample_labels(lab, 2)
    assert up.shape == (4, 4)
    assert up[0, 0] == up[1, 1] == 1
    assert up[2, 2] == up[3, 3] == 4


def test_evaluate_predictions_perfect_single_image():
    rng = np.random.default_rng(8)
    gt = rng.integers(0, 3, size=(16, 16))
    cfg = BFConfig(smallest_diagonal=image_diagonal(gt.shape))
    rep = evaluate_predictions([gt], [gt], 3, cfg)
    assert rep.pixel_acc == 1.0 and rep.mean_iou == 1.0
    assert rep.mean_bf == 1.0 and rep.bf_std_across_images == 0.0


def test_evaluate_predictions_two_point_bf_stats():
    # image 1: perfect (BF 1.0); image 2: every class scores 0 (disjoint
    # uniform maps) -> mean 0.5 with population std 0.5
    gt1 = np.zeros((16, 16), dtype=int)
    gt1[4:12, 4:12] = 1
    gt2 = np.zeros((16, 16), dtype=int)
    pred2 = np.ones((16, 16), dtype=int)
    cfg = BFConfig(smallest_diagonal=image_diagonal(gt1.shape),
                   reference_tolerance_px=1.0)
    rep = evaluate_predictions([gt1.copy(), pred2], [gt1, gt2], 2, cfg)
    assert rep.mean_bf == 0.5
    assert rep.bf_std_across_images == 0.5


def test_evaluate_predictions_bf_skips_void_images():
    gt = np.zeros((8, 8), dtype=int)
    gt[2:6, 2:6] = 1
    voided = gt.copy()
    voided[0, 0] = VOID
    cfg = BFConfig(smallest_diagonal=image_diagonal(gt.shape))
    rep = evaluate_predictions([gt, gt.copy()], [gt, voided], 2, cfg)
    assert rep.n_bf_images == 1


def test_evaluate_predictions_empty_errors():
    with pytest.raises(ValueError):
        evaluate_predictions([], [], 2, BFConfig(smallest_diagonal=1.0))


def test_metrics_bounded_and_perfect_iff_equal():
    rng = np.random.default_rng(9)
    gt = rng.integers(0, 4, size=(10, 10))
    noisy = gt.copy()
    noisy[0, 0] = (gt[0, 0] + 1) % 4
    cfg = BFConfig(smallest_diagonal=image_diagonal(gt.shape))
    rep = evaluate_predictions([noisy], [gt], 4, cfg)
    vals = [rep.pixel_acc, rep.mean_iou] + [a for a in rep.per_class_acc if a is not None]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert rep.pixel_acc < 1.0
    perfect = evaluate_predictions([gt], [gt], 4, cfg)
    assert perfect.pixel_acc == 1.0 and perfect.mean_iou == 1.0
