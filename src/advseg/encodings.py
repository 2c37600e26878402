"""Adversary input construction from label maps, predictions, and images.

Three encodings are supported:

* basic:   the probability map itself (one-hot on the ground-truth side).
* product: each class probability map multiplied into every color channel
           of the (down-sampled) image, giving 3C channels.
* scaling: the ground-truth one-hot is softened toward the prediction while
           keeping at least tau mass on the true class; the predicted side
           stays the raw probability map.

Void positions are zero across all channels on both sides: the
ground-truth maps are built that way, and the predicted map is zeroed,
which also kills the gradient there. Gradients flow only through the
predicted side.
``build_adv_pair`` hands each side over in the form ``networks.forward``
takes: the channel stack, or with ``include_image`` the pair (channels,
image) for the two-branch adversary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labelmap import VOID
from .tensor import ShapeError, Tensor, concat_channels, mul, slice_channels


@dataclass(frozen=True)
class EncodingKind:
    """Which adversary input scheme to use.

    ``tau`` only matters for scaling and must exceed 1/C so the mass floor
    binds only when the prediction is wrong enough. ``include_image`` routes
    the down-sampled image into a separate adversary branch.
    """

    kind: str = "basic"
    tau: float = 0.9
    include_image: bool = False

    def __post_init__(self):
        if self.kind not in ("basic", "product", "scaling"):
            raise ValueError(f"unknown encoding kind {self.kind!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")

    def channels(self, num_classes: int) -> int:
        """The adversary's label-channel count: 3C for product, else C."""
        return 3 * num_classes if self.kind == "product" else num_classes


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """(N, C, H, W) one-hot encoding of (N, H, W) labels; VOID pixels are
    all-zero."""
    if np.any((labels >= num_classes) & (labels != VOID)):
        raise ValueError(f"label out of range for C={num_classes}")
    n, h, w = labels.shape
    out = np.zeros((n, num_classes, h, w))
    for c in range(num_classes):
        out[:, c] = labels == c
    return out


def downsample(x: np.ndarray, stride: int) -> np.ndarray:
    """Nearest-neighbor over the last two axes (label maps and images alike):
    keep the top-left sample of each stride block."""
    h, w = x.shape[-2:]
    if h % stride or w % stride:
        raise ShapeError(f"extents {h}x{w} not divisible by stride {stride}")
    return x[..., ::stride, ::stride]


def encode_product(image: np.ndarray, prob: Tensor) -> Tensor:
    """Channel (3c + k) is class-c probability times color channel k; the
    (N, 3, h, w) image must already be at the probability resolution, and
    ``prob`` already zero at VOID, as ``build_adv_pair`` hands them over."""
    if prob.ndim != 4:
        raise ShapeError(f"expected (N, C, H, W) probabilities, got {prob.shape}")
    n, c, h, w = prob.shape
    if image.shape != (n, 3, h, w):
        raise ShapeError(f"expected an {(n, 3, h, w)} image, got {image.shape}")

    class_rep = concat_channels(
        [slice_channels(prob, ci, ci + 1) for ci in range(c) for _ in range(3)])
    image_tile = Tensor(np.tile(image, (1, c, 1, 1)))
    return mul(class_rep, image_tile)


def encode_scaling(pred: np.ndarray, labels: np.ndarray, tau: float) -> np.ndarray:
    """Soften ground truth toward the prediction with at least ``tau`` mass
    on the true class:

        y_l = max(tau, s_l);  y_c = s_c * (1 - y_l) / (1 - s_l) for c != l

    Applied to the (N, C, H, W) predictions on the ground-truth side only and
    returned as plain data (no gradient). Void pixels come out all-zero. If
    s_l == 1 exactly the denominator vanishes; the limit is the one-hot
    vector.
    """
    n, c, h, w = pred.shape
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels {labels.shape} do not match predictions {pred.shape}")

    valid = labels != VOID
    safe_labels = np.where(valid, labels, 0).astype(np.int64)
    s_true = np.take_along_axis(pred, safe_labels[:, None], axis=1)[:, 0]
    y_true = np.maximum(tau, s_true)
    denom = 1.0 - s_true
    degenerate = denom <= 0.0
    factor = np.where(degenerate, 0.0, (1.0 - y_true) / np.where(degenerate, 1.0, denom))

    out = pred * factor[:, None]
    np.put_along_axis(out, safe_labels[:, None],
                      np.where(degenerate, 1.0, y_true)[:, None], axis=1)
    out *= valid[:, None]
    return out


def build_adv_pair(image, labels, seg_out: Tensor, enc: EncodingKind):
    """Encode the ground-truth and predicted adversary inputs for a batch,
    each as ``networks.forward`` takes it: the channel stack, or with
    ``enc.include_image`` the pair (channels, image), both sides sharing
    one image tensor.

    ``labels`` (N, h, w) must already be down-sampled to the segmenter
    output resolution; the (N, 3, H, W) ``image`` is brought to it here.
    Only the predicted side carries gradient.
    """
    if seg_out.ndim != 4:
        raise ShapeError(f"expected (N, C, H, W) segmenter output, got {seg_out.shape}")
    n, c, h, w = seg_out.shape
    if enc.kind == "scaling" and enc.tau <= 1.0 / c:
        raise ValueError(f"tau must exceed 1/C = {1.0 / c:.4f}")

    if enc.kind == "scaling":
        gt_map = encode_scaling(seg_out.data, labels, enc.tau)
    else:
        gt_map = one_hot(labels, c)
    # the ground-truth map is already zero at VOID, so only the predicted
    # side is zeroed there, which also zeroes the gradient that reaches it
    keep = np.broadcast_to(labels[:, None] != VOID, seg_out.shape).astype(np.float64)
    gt, pred = Tensor(gt_map), mul(seg_out, Tensor(keep))

    if enc.kind == "product" or enc.include_image:
        img = downsample(image, image.shape[2] // h)

    if enc.kind == "product":
        gt, pred = encode_product(img, gt), encode_product(img, pred)
    if enc.include_image:
        branch = Tensor(img)
        return (gt, branch), (pred, branch)
    return gt, pred
