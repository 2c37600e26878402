"""Segmentation quality metrics.

Confusion-matrix statistics (per-class accuracy, pixel accuracy, mean IoU)
plus the boundary-matching BF measure: per class, a predicted boundary
point counts as correct if some ground-truth boundary point lies within a
distance tolerance, and vice versa for recall. The tolerance is a fixed
fraction of the image diagonal, calibrated so the smallest diagonal in the
dataset gets exactly ``reference_tolerance_px`` pixels.

Boundary definition: a pixel of class c is a boundary point if it lies on
the image border or has a 4-neighbor with a different non-VOID label.
Distances are exact Euclidean, compared through integer squared distances.

BF works on boolean masks, never on point-pair distance matrices. The
boundary test does not depend on the class, so one mask per label map
serves every class (class c's boundary is that mask AND ``labels == c``).
"Within tolerance of the other map's boundary" is that boundary dilated by
the disk dy*dy + dx*dx <= tol*tol, built as a union of row runs: row offset
dy covers |dx| <= h(dy), the largest integer with h*h + dy*dy <= tol*tol,
found by comparing Python integers with the float tol*tol. That is the
same integer-versus-``tol*tol`` test a brute-force search over point pairs
makes, so a point is a hit under one method exactly when it is under the
other, and precision = hits / points is the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .labelmap import VOID, is_fully_labeled


@dataclass(frozen=True)
class BFConfig:
    """Boundary-match tolerance rule: the tolerance is a fixed fraction of
    the image diagonal, reference px exactly at the smallest image."""

    smallest_diagonal: float
    reference_tolerance_px: float = 5.0

    def tolerance(self, image_diag: float) -> float:
        return self.reference_tolerance_px * (image_diag / self.smallest_diagonal)


@dataclass
class EvalReport:
    per_class_acc: list
    pixel_acc: float
    mean_iou: float
    per_class_bf: list | None = None
    mean_bf: float | None = None
    bf_std_across_images: float | None = None
    n_images: int = 0
    n_bf_images: int = 0


def confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """counts[g][p] over non-void ground-truth pixels; ``pred`` must not
    contain VOID, and a ground-truth label of ``num_classes`` or more
    raises ValueError."""
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    if np.any(pred == VOID) or np.any(pred >= num_classes):
        raise ValueError("predictions must be class indices, never VOID")
    valid = gt != VOID
    labels = gt[valid].astype(np.int64)
    if np.any(labels >= num_classes):
        raise ValueError(f"ground-truth label {labels.max()} out of range "
                         f"for {num_classes} classes")
    idx = labels * num_classes + pred[valid].astype(np.int64)
    counts = np.bincount(idx, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def summary_metrics(cm: np.ndarray) -> tuple[list, float, float]:
    """(per_class_acc, pixel_acc, mean_iou); classes absent from both gt
    and prediction are excluded from the means."""
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    row = cm.sum(axis=1)
    col = cm.sum(axis=0)
    diag = np.diag(cm)
    per_class = [float(diag[c] / row[c]) if row[c] > 0 else None
                 for c in range(cm.shape[0])]
    pixel_acc = float(diag.sum() / total)
    denom = row + col - diag
    ious = [float(diag[c] / denom[c]) for c in range(cm.shape[0]) if denom[c] > 0]
    mean_iou = float(np.mean(ious)) if ious else 0.0
    return per_class, pixel_acc, mean_iou


def mean_class_accuracy(per_class: list) -> float:
    vals = [v for v in per_class if v is not None]
    return float(np.mean(vals)) if vals else 0.0


def boundary_mask(labels: np.ndarray) -> np.ndarray:
    """Boolean mask of the boundary pixels of every class at once: pixels
    on the image border or with a 4-neighbor whose label differs and is not
    VOID. Class c's boundary is ``boundary_mask(labels) & (labels == c)``."""
    mask = np.zeros(labels.shape, dtype=bool)
    above, below = labels[:-1, :], labels[1:, :]
    differs = above != below
    mask[1:, :] |= differs & (above != VOID)
    mask[:-1, :] |= differs & (below != VOID)
    left, right = labels[:, :-1], labels[:, 1:]
    differs = left != right
    mask[:, 1:] |= differs & (left != VOID)
    mask[:, :-1] |= differs & (right != VOID)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask


def _class_boundaries(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """(num_classes, H, W) boundary masks, one plane per class."""
    classes = np.arange(num_classes)[:, None, None]
    return boundary_mask(labels)[None] & (labels[None] == classes)


def _within_tolerance(masks: np.ndarray, tol: float) -> np.ndarray:
    """For (..., H, W) boolean masks, the pixels that lie within Euclidean
    distance ``tol`` of some True pixel of the same plane.

    The disk dy*dy + dx*dx <= tol*tol is a union of row runs: row offset dy
    spans |dx| <= h(dy), the largest such integer, capped at W - 1 (a wider
    run covers no more of a row). h only shrinks as |dy| grows, so one
    downward scan finds every h. The runs then grow the other way, from
    half-width 0 up to h(0), each the last one OR-ed with the masks shifted
    one pixel further left and right, and each is OR-ed into place at the
    row offsets that take it. Every row is followed by h(0) zero columns,
    so each shift is one slice of the flat array, and no pixel shifts into
    another row or plane."""
    h, w = masks.shape[-2:]
    tol_sq = tol * tol
    halves, half = [], w - 1
    for dy in range(h):
        # exact: Python compares the integer sum with the float tol_sq exactly
        while half >= 0 and not half * half + dy * dy <= tol_sq:
            half -= 1
        if half < 0:
            break
        halves.append(half)
    wide = w + (halves[0] if halves else 0)
    padded = np.zeros(masks.shape[:-1] + (wide,), dtype=bool)
    padded[..., :w] = masks
    runs, near = padded.copy(), np.zeros_like(padded)
    flat, runs_flat = padded.reshape(-1), runs.reshape(-1)
    plane = h * wide
    runs_planes, near_planes = runs.reshape(-1, plane), near.reshape(-1, plane)
    built = 0
    for dy in reversed(range(len(halves))):
        while built < halves[dy]:
            built += 1
            runs_flat[built:] |= flat[:-built]
            runs_flat[:-built] |= flat[built:]
        shift = dy * wide
        near_planes[:, : plane - shift] |= runs_planes[:, shift:]
        if dy:
            near_planes[:, shift:] |= runs_planes[:, : plane - shift]
    return near[..., :w]


def _fraction(hits, n) -> float:
    return int(hits) / int(n) if n else 0.0


def bf_score(pred: np.ndarray, gt: np.ndarray, num_classes: int,
             cfg: BFConfig, image_diag: float) -> dict:
    """Per-class (precision, recall, F1); classes with both boundary sets
    empty are skipped (absent from the dict). ``pred`` and ``gt`` must have
    the same shape."""
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    pb = _class_boundaries(pred, num_classes)
    gb = _class_boundaries(gt, num_classes)
    near = _within_tolerance(np.concatenate([pb, gb]), cfg.tolerance(image_diag))
    near_pred, near_gt = near[:num_classes], near[num_classes:]
    n_pred = pb.sum(axis=(1, 2))
    n_gt = gb.sum(axis=(1, 2))
    hits_pred = (pb & near_gt).sum(axis=(1, 2))
    hits_gt = (gb & near_pred).sum(axis=(1, 2))
    out = {}
    for c in range(num_classes):
        if n_pred[c] == 0 and n_gt[c] == 0:
            continue
        precision = _fraction(hits_pred[c], n_pred[c])
        recall = _fraction(hits_gt[c], n_gt[c])
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        out[c] = (precision, recall, f1)
    return out


def image_diagonal(shape) -> float:
    h, w = shape[-2:]
    return math.hypot(h, w)


def upsample_labels(labels: np.ndarray, factor: int) -> np.ndarray:
    return np.repeat(np.repeat(labels, factor, axis=-2), factor, axis=-1)


def predict_labels(probs: np.ndarray, upsample: int) -> np.ndarray:
    """Argmax over channels (ties to the smallest class index), nearest-
    neighbor upsampled by ``upsample`` to label resolution."""
    return upsample_labels(np.argmax(probs, axis=-3).astype(np.int64), upsample)


def evaluate_predictions(preds: list, gts: list, num_classes: int,
                         cfg: BFConfig) -> EvalReport:
    """Aggregate metrics over (prediction, ground truth) label-map pairs.

    The confusion matrix accumulates over all images; BF runs only on fully
    labeled images (no VOID anywhere) and reports the across-image mean and
    population standard deviation of the per-image class-averaged F1.
    """
    if not preds:
        raise ValueError("empty evaluation split")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in zip(preds, gts):
        cm += confusion(p, g, num_classes)
    per_class, pixel_acc, mean_iou = summary_metrics(cm)

    report = EvalReport(per_class, pixel_acc, mean_iou, n_images=len(preds))
    per_image = []
    class_scores = [[] for _ in range(num_classes)]
    for p, g in zip(preds, gts):
        if not is_fully_labeled(g):
            continue
        scores = bf_score(p, g, num_classes, cfg, image_diagonal(g.shape))
        if not scores:
            continue
        per_image.append(float(np.mean([f1 for _, _, f1 in scores.values()])))
        for c, (_, _, f1) in scores.items():
            class_scores[c].append(f1)
    if per_image:
        report.per_class_bf = [
            float(np.mean(s)) if s else None for s in class_scores]
        report.mean_bf = float(np.mean(per_image))
        report.bf_std_across_images = float(np.std(per_image))
        report.n_bf_images = len(per_image)
    return report


def segment(seg_spec, seg_params, samples, preprocess=None):
    """Yield the segmenter's (1, C, h, w) output per sample, on detached
    parameters, so no graph is built and ``seg_params`` stay as they are.
    Its input is ``preprocess(sample)``, a (3, H, W) array, or
    ``sample.image`` without a hook. One image at a time: over 16 images at
    64x64 that took 37-39 ms and 41 MB ``ru_maxrss``, one batch of 16 took
    45-47 ms and 69 MB (2 vCPUs, OpenBLAS on 1 thread)."""
    from .networks import detach_params, forward
    from .tensor import Tensor

    params = detach_params(seg_params)
    for sample in samples:
        image = sample.image if preprocess is None else preprocess(sample)
        yield forward(seg_spec, params, Tensor(image[None])).data


def evaluate_split(seg_spec, seg_params, samples, num_classes: int,
                   cfg: BFConfig, stride: int,
                   preprocess=None, outputs: list | None = None) -> EvalReport:
    """Segment every sample (see ``segment``), argmax + nearest upsample to
    label resolution, and aggregate metrics. If given, ``outputs``
    receives each sample's (1, C, h, w) map."""
    preds = []
    for probs in segment(seg_spec, seg_params, samples, preprocess):
        if outputs is not None:
            outputs.append(probs)
        preds.append(predict_labels(probs[0], upsample=stride))
    return evaluate_predictions(preds, [s.labels for s in samples], num_classes, cfg)


def report_values(report: EvalReport) -> dict:
    """The measures an evaluation reports, by name, in the order that the
    eval summary and CSV and the ``run.log`` rows list them: the one place a
    measure is added. ``bf_images`` counts the images that boundary F1
    scored, so a ``mean_bf`` of ``na`` says why."""
    return {
        "pixel_acc": report.pixel_acc,
        "mean_class_acc": mean_class_accuracy(report.per_class_acc),
        "mean_iou": report.mean_iou,
        "mean_bf": report.mean_bf,
        "bf_std": report.bf_std_across_images,
        "bf_images": report.n_bf_images,
    }


def fmt(v) -> str:
    """How every report writes a value: ``na`` for None, six decimals for a
    float, ``str`` for anything else."""
    if v is None:
        return "na"
    return f"{v:.6f}" if isinstance(v, float) else str(v)


def report_to_csv(report: EvalReport, num_classes: int) -> str:
    """One row per class, then one aggregate row per reported measure."""
    lines = ["row,class,accuracy,bf_f1"]
    for c in range(num_classes):
        bf = None if report.per_class_bf is None else report.per_class_bf[c]
        lines.append(f"class,{c},{fmt(report.per_class_acc[c])},{fmt(bf)}")
    lines += [f"aggregate,{name},{fmt(v)}," for name, v in report_values(report).items()]
    return "\n".join(lines) + "\n"


def report_summary(report: EvalReport) -> str:
    return " ".join([f"images={report.n_images}"] + [
        f"{name}={fmt(v)}" for name, v in report_values(report).items()])
