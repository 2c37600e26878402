"""Alternating SGD for the segmenter and the adversary.

Exactly one player updates per iteration; the active player flips at block
boundaries (fast alternation is a block length of 1, the slow scheme uses
longer blocks). During a segmenter turn the adversary is frozen; during an
adversary turn the segmenter runs on detached parameters and builds no
graph, so gradients never leak across players. Objectives are divided by
batch size only; pixel sums stay at the per-image scale.

Adversary pre-training is available behind ``pretrain_adversary_iters`` but
defaults to off: warming the adversary up first destabilizes training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import networks as N
from .encodings import EncodingKind, build_adv_pair, downsample_labels, one_hot
from .labelmap import void_mask
from .layers import local_contrast_normalize
from .losses import ObjectiveConfig, adversary_objective, segmenter_objective
from .metrics import BFConfig, evaluate_split, image_diagonal
from .tensor import Tensor, backward, mul

SEGMENTER = "segmenter"
ADVERSARY = "adversary"


@dataclass(frozen=True)
class TrainConfig:
    slr: float = 0.02
    alr: float = 0.1
    lam: float = 0.0
    scheme: str = "fast"  # "fast" | "slow"
    block_len: int = 500
    batch_size: int = 4
    max_iters: int = 500
    seed: int = 0
    encoding: EncodingKind = EncodingKind("basic")
    modified_update: bool = True
    eval_every: int = 250
    num_classes: int = 4
    channels_base: int = 16
    n_context_layers: int = 4
    adversary_fov: str = "large"
    adversary_capacity: str = "full"
    adversary_head: str = "sigmoid"
    lcn_window: int = 0  # 0 disables local contrast normalization
    pretrain_adversary_iters: int = 0

    def __post_init__(self):
        if self.slr <= 0 or self.alr <= 0:
            raise ValueError("learning rates must be positive")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if self.scheme not in ("fast", "slow"):
            raise ValueError("scheme must be 'fast' or 'slow'")

    @property
    def effective_block_len(self) -> int:
        return 1 if self.scheme == "fast" else self.block_len


def player_for_iteration(iteration: int, block_len: int) -> str:
    """Alternation schedule: blocks of ``block_len`` iterations, segmenter
    first."""
    return SEGMENTER if (iteration // block_len) % 2 == 0 else ADVERSARY


def adversary_in_channels(cfg: TrainConfig) -> int:
    return 3 * cfg.num_classes if cfg.encoding.kind == "product" else cfg.num_classes


@dataclass
class Batch:
    images: np.ndarray        # (B, 3, H, W), already preprocessed
    labels_ds: np.ndarray     # (B, h, w) at segmenter output resolution
    target_onehot: np.ndarray
    mask: np.ndarray


@dataclass
class TrainState:
    cfg: TrainConfig
    seg_spec: N.NetSpec
    adv_spec: N.NetSpec
    seg_params: dict
    adv_params: dict
    rng: np.random.Generator
    iteration: int = 0
    loss_history: list = field(default_factory=list)  # (iter, player, loss)


def network_specs(cfg: TrainConfig) -> tuple[N.NetSpec, N.NetSpec]:
    """(segmenter, adversary) architectures that ``cfg`` trains."""
    seg_spec = N.build_segmenter(cfg.num_classes, cfg.channels_base,
                                 cfg.n_context_layers)
    adv_spec = N.build_adversary(adversary_in_channels(cfg), cfg.adversary_fov,
                                 cfg.adversary_capacity,
                                 two_branch=cfg.encoding.include_image,
                                 head=cfg.adversary_head)
    return seg_spec, adv_spec


def init_state(cfg: TrainConfig) -> TrainState:
    seg_spec, adv_spec = network_specs(cfg)
    return TrainState(
        cfg=cfg,
        seg_spec=seg_spec,
        adv_spec=adv_spec,
        seg_params=N.init_params(seg_spec, cfg.seed),
        adv_params=N.init_params(adv_spec, cfg.seed + 1),
        rng=np.random.default_rng(cfg.seed + 2),
    )


def preprocess_images(images: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    if cfg.lcn_window:
        return local_contrast_normalize(images, cfg.lcn_window)
    return images


def make_batch(samples, indices, cfg: TrainConfig, stride: int) -> Batch:
    images = np.stack([samples[i].image for i in indices])
    labels = np.stack([samples[i].labels for i in indices])
    labels_ds = downsample_labels(labels, stride)
    return Batch(
        images=preprocess_images(images, cfg),
        labels_ds=labels_ds,
        target_onehot=one_hot(labels_ds, cfg.num_classes),
        mask=void_mask(labels_ds),
    )


def sgd_step(params: dict, lr: float) -> None:
    """p <- p - lr * grad for every element, then zero the grads."""
    for name, t in params.items():
        if t.grad is None:
            raise RuntimeError(f"sgd_step: no gradient on {name}")
        t.data -= lr * t.grad
        t.zero_grad()


def _adv_inputs(adv: "object") -> object:
    return (adv.channels, adv.image) if adv.image is not None else adv.channels


def train_iteration(state: TrainState, batch: Batch, player: str | None = None) -> TrainState:
    """Run one SGD step for the scheduled player (or an explicit one)."""
    cfg = state.cfg
    if player is None:
        player = player_for_iteration(state.iteration, cfg.effective_block_len)
    b = len(batch.images)
    obj_cfg = ObjectiveConfig(lam=cfg.lam, modified_update=cfg.modified_update)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if player == SEGMENTER:
            probs = N.forward(state.seg_spec, state.seg_params, Tensor(batch.images))
            adv_on_pred = None
            if cfg.lam > 0.0:
                N.set_requires_grad(state.adv_params, False)
                _, pred = build_adv_pair(batch.images, batch.labels_ds, probs,
                                         cfg.encoding)
                adv_on_pred = N.forward(state.adv_spec, state.adv_params,
                                        _adv_inputs(pred))
            loss = mul(segmenter_objective(probs, batch.target_onehot, batch.mask,
                                           adv_on_pred, obj_cfg), 1.0 / b)
            loss_val = loss.item()
            if math.isfinite(loss_val):
                backward(loss)
                sgd_step(state.seg_params, cfg.slr)
            if cfg.lam > 0.0:
                N.set_requires_grad(state.adv_params, True)
        else:
            probs = N.forward(state.seg_spec, N.detach_params(state.seg_params),
                              Tensor(batch.images))
            gt, pred = build_adv_pair(batch.images, batch.labels_ds, probs,
                                      cfg.encoding)
            adv_on_gt = N.forward(state.adv_spec, state.adv_params, _adv_inputs(gt))
            adv_on_pred = N.forward(state.adv_spec, state.adv_params, _adv_inputs(pred))
            loss = mul(adversary_objective(adv_on_gt, adv_on_pred), 1.0 / b)
            loss_val = loss.item()
            if math.isfinite(loss_val):
                backward(loss)
                sgd_step(state.adv_params, cfg.alr)

    state.loss_history.append((state.iteration, player, loss_val))
    state.iteration += 1
    return state


def adversary_accuracy(state: TrainState, samples) -> tuple[float, float]:
    """Fraction of adversary grid outputs on the correct side of 0.5 for
    ground-truth and predicted inputs. Both networks run on detached
    parameters, so no graph is built."""
    cfg = state.cfg
    stride = N.receptive_field(state.seg_spec)[2]
    idx = list(range(len(samples)))
    batch = make_batch(samples, idx, cfg, stride)
    seg_params = N.detach_params(state.seg_params)
    adv_params = N.detach_params(state.adv_params)
    probs = N.forward(state.seg_spec, seg_params, Tensor(batch.images))
    gt, pred = build_adv_pair(batch.images, batch.labels_ds, probs, cfg.encoding)
    out_gt = N.forward(state.adv_spec, adv_params, _adv_inputs(gt)).data
    out_pred = N.forward(state.adv_spec, adv_params, _adv_inputs(pred)).data
    return float(np.mean(out_gt > 0.5)), float(np.mean(out_pred < 0.5))


@dataclass
class RunRecord:
    cfg: TrainConfig
    rows: list = field(default_factory=list)  # dict per evaluation
    loss_history: list = field(default_factory=list)
    status: str = "completed"  # "completed" | "diverged"
    diverged_at: int | None = None
    best_iteration: int | None = None
    best_val_miou: float = -1.0
    best_val_mbf: float | None = None
    best_seg_params: dict | None = None
    best_adv_params: dict | None = None

    def rows_for(self, split: str):
        return [r for r in self.rows if r["split"] == split]


def _snapshot(params: dict) -> dict:
    return {name: Tensor(t.data.copy(), requires_grad=True)
            for name, t in params.items()}


def _record_eval(record: RunRecord, state: TrainState, dataset, bf_cfg,
                 acc_samples) -> None:
    acc_gt, acc_pred = adversary_accuracy(state, acc_samples)
    cfg = state.cfg
    stride = N.receptive_field(state.seg_spec)[2]
    for split in ("train", "val"):
        report = evaluate_split(state.seg_spec, state.seg_params,
                                dataset.split(split), cfg.num_classes, bf_cfg,
                                stride, preprocess=lambda im: preprocess_images(im, cfg))
        row = {
            "iter": state.iteration,
            "split": split,
            "pixel_acc": report.pixel_acc,
            "mean_class_acc": float(np.mean(
                [a for a in report.per_class_acc if a is not None])),
            "mean_iou": report.mean_iou,
            "mean_bf": report.mean_bf,
            "bf_std": report.bf_std_across_images,
            "adv_acc_gt": acc_gt,
            "adv_acc_pred": acc_pred,
        }
        record.rows.append(row)
        if split == "val":
            better = (report.mean_iou > record.best_val_miou)
            if better:
                record.best_val_miou = report.mean_iou
                record.best_val_mbf = report.mean_bf
                record.best_iteration = state.iteration
                record.best_seg_params = _snapshot(state.seg_params)
                record.best_adv_params = _snapshot(state.adv_params)


def dataset_bf_config(dataset) -> BFConfig:
    diags = [image_diagonal(s.labels.shape)
             for split in ("train", "val", "test") for s in dataset.split(split)]
    return BFConfig(smallest_diagonal=min(diags))


def train_run(cfg: TrainConfig, dataset) -> RunRecord:
    """Full training run with periodic evaluation on train and val, best
    validation-mIoU checkpointing, and a divergence guard (a non-finite
    loss aborts the run with a diagnostic record instead of crashing)."""
    state = init_state(cfg)
    record = RunRecord(cfg=cfg)
    bf_cfg = dataset_bf_config(dataset)
    stride = N.receptive_field(state.seg_spec)[2]
    train_samples = dataset.train
    acc_samples = dataset.val[: min(8, len(dataset.val))] or train_samples[:8]

    def draw_batch():
        replace_draw = cfg.batch_size > len(train_samples)
        idx = state.rng.choice(len(train_samples), size=cfg.batch_size,
                               replace=replace_draw)
        return make_batch(train_samples, idx, cfg, stride)

    for _ in range(cfg.pretrain_adversary_iters):
        train_iteration(state, draw_batch(), player=ADVERSARY)
        if not math.isfinite(state.loss_history[-1][2]):
            record.status = "diverged"
            record.diverged_at = state.iteration - 1
            record.loss_history = state.loss_history
            return record
    state.iteration = 0

    _record_eval(record, state, dataset, bf_cfg, acc_samples)
    while state.iteration < cfg.max_iters:
        train_iteration(state, draw_batch())
        if not math.isfinite(state.loss_history[-1][2]):
            record.status = "diverged"
            record.diverged_at = state.iteration - 1
            record.loss_history = state.loss_history
            return record
        if state.iteration % cfg.eval_every == 0 or state.iteration == cfg.max_iters:
            _record_eval(record, state, dataset, bf_cfg, acc_samples)

    record.loss_history = state.loss_history
    return record


def record_log_text(record: RunRecord) -> str:
    """One evaluation row per line, 'key=value' columns."""
    lines = [f"status={record.status}"
             + (f" diverged_at={record.diverged_at}" if record.diverged_at is not None else "")]
    for row in record.rows:
        parts = [f"iter={row['iter']}", f"split={row['split']}"]
        for key in ("pixel_acc", "mean_class_acc", "mean_iou", "mean_bf",
                    "bf_std", "adv_acc_gt", "adv_acc_pred"):
            v = row[key]
            parts.append(f"{key}={'na' if v is None else f'{v:.6f}'}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hyper-parameter grid search


def _rank_key(entry):
    cfg, record = entry
    diverged = record.status != "completed"
    mbf = record.best_val_mbf if record.best_val_mbf is not None else -1.0
    return (diverged, -record.best_val_miou, -mbf, (cfg.slr, cfg.alr, cfg.lam))


def _grid_worker(args):
    cfg, dataset = args
    return cfg, train_run(cfg, dataset)


def grid_search(base_cfg: TrainConfig, dataset, slr_values, alr_values,
                lambda_values, jobs: int = 1):
    """Cross product of the listed values; selection by best validation
    mIoU, ties by mBF then lexicographically smallest (slr, alr, lambda).
    Diverged runs rank last. Returns (best entry, all entries)."""
    configs = [replace(base_cfg, slr=s, alr=a, lam=l)
               for s in slr_values for a in alr_values for l in lambda_values]
    if not configs:
        raise ValueError("empty grid")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_grid_worker, [(c, dataset) for c in configs]))
    else:
        entries = [_grid_worker((c, dataset)) for c in configs]
    ranked = sorted(entries, key=_rank_key)
    return ranked[0], entries
