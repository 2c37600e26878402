"""Loss functions and the two players' objectives.

The two players minimize split objectives: the adversary a binary
discrimination loss, the segmenter per-pixel multi-class cross-entropy plus
a lambda-weighted adversarial surrogate. Per-image losses
sum over pixels; batch objectives sum over images (the training engine
divides by batch size). Probabilities are clamped to [1e-7, 1 - 1e-7]
before any log so every objective stays finite.
"""

from __future__ import annotations

from .tensor import ShapeError, Tensor, clamp, log, mul, neg, reduce_mean, reduce_sum

PROB_EPS = 1e-7


def mce_loss(pred: Tensor, target_onehot) -> Tensor:
    """Multi-class cross-entropy, summed over pixels and images:
    -sum_i sum_c y_ic * ln(pred_ic). The one-hot target is all-zero at VOID,
    so VOID pixels add nothing to the loss or its gradient."""
    if pred.ndim != 4:
        raise ShapeError(f"expected (N, C, H, W), got {pred.shape}")
    if target_onehot.shape != pred.shape:
        raise ShapeError(f"target shape {target_onehot.shape} != pred shape {pred.shape}")
    p = clamp(pred, PROB_EPS, 1.0 - PROB_EPS)
    return neg(reduce_sum(mul(log(p), Tensor(target_onehot))))


def bce_loss(pred: Tensor, target: int) -> Tensor:
    """Binary cross-entropy against a constant 0/1 target: the (N, 1, h, w)
    adversary output is averaged over grid positions per image and summed
    over the batch."""
    if target not in (0, 1):
        raise ValueError(f"bce target must be 0 or 1, got {target!r}")
    p = clamp(pred, PROB_EPS, 1.0 - PROB_EPS)
    per_cell = neg(log(p)) if target == 1 else neg(log((-p) + 1.0))
    return reduce_sum(reduce_mean(per_cell, axes=(1, 2, 3)))


def adversary_objective(adv_on_gt: Tensor, adv_on_pred: Tensor) -> Tensor:
    """Discrimination loss the adversary minimizes:
    sum_n bce(a(x, y), 1) + bce(a(x, s(x)), 0).

    Callers must detach the segmenter outputs feeding ``adv_on_pred`` so no
    gradient reaches the segmenter.
    """
    return bce_loss(adv_on_gt, 1) + bce_loss(adv_on_pred, 0)


def segmenter_objective(seg_out: Tensor, target_onehot, adv_on_pred: Tensor | None,
                        lam: float, modified_update: bool) -> Tensor:
    """Cross-entropy plus the lambda-weighted adversarial surrogate,
    adversary frozen. The modified update has the original's critical points
    but a stronger gradient when the adversary is confident the map is fake.

    modified_update: mce + lam * bce(a(x, s(x)), 1)
    original:        mce - lam * bce(a(x, s(x)), 0)
    """
    loss = mce_loss(seg_out, target_onehot)
    if lam == 0.0:
        return loss
    if adv_on_pred is None:
        raise ValueError("adversary output required when lambda > 0")
    if modified_update:
        return loss + mul(bce_loss(adv_on_pred, 1), lam)
    return loss - mul(bce_loss(adv_on_pred, 0), lam)

