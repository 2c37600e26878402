"""Alternating SGD for the segmenter and the adversary.

Exactly one player updates per iteration; the active player flips at block
boundaries (fast alternation is a block length of 1, the slow scheme uses
longer blocks). Each player reads the other's parameters through detached
views: the adversary in a segmenter turn passes gradients through to the
predictions only, and the segmenter in an adversary turn builds no graph,
so gradients never leak across players. Objectives are divided by
batch size only; pixel sums stay at the per-image scale.

The segmenter does not move during adversary turns, so ``TrainState``
keeps its probability maps in ``seg_probs``, keyed by the ``Sample``
object: an adversary turn forwards only the samples the store lacks, each
once, and a segmenter turn empties the store. In the slow scheme a block of
adversary turns then forwards each training scene at most once; in the fast
scheme each adversary turn of the main loop follows a segmenter turn and
finds the store empty. This is exact: a row of a batched segmenter forward
does not depend on the other images of the batch, so every stored map
equals the row a full forward of any batch would give, bit for bit. The
store holds at most one (C, H/2, W/2) map per training scene, C/12 of the
scenes' image memory.

``network_input(sample, lcn_window)`` decides what the segmenter sees of a
scene in training batches, evaluation, adversary accuracy and exported
maps: its image at ``lcn_window=0``, else its contrast-normalized image,
computed on the first request and stored under the sample object and the
window. Normalization takes one image, so what is stored is what a
batch of that sample would hold. The store's weak keys let an
entry live exactly as long as its sample. It holds one image per scene
drawn or evaluated and window, 98 KB at 64x64, 7.9 MB for the README's 64
train and 16 val scenes, and nothing at ``lcn_window=0``. Its arrays reach
``networks.forward`` as views, so nothing may write into a forward's input.

Adversary pre-training is available behind ``pretrain_adversary_iters`` but
defaults to off: warming the adversary up first destabilizes training.

A ``TrainConfig`` is the one description of a run; ``grid_search`` trains a
list of them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import networks as N
from .encodings import EncodingKind, build_adv_pair, downsample, one_hot
from .layers import local_contrast_normalize
from .losses import adversary_objective, segmenter_objective
from .metrics import BFConfig, evaluate_split, fmt, image_diagonal, report_values
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
    lcn_window: int = 0  # 0 disables local contrast normalization
    pretrain_adversary_iters: int = 0

    def __post_init__(self):
        if not (0 < self.slr < math.inf and 0 < self.alr < math.inf):
            raise ValueError(f"learning rates must be positive and finite, got "
                             f"slr={self.slr}, alr={self.alr}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be >= 0 and finite, got {self.lam}")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if self.scheme not in ("fast", "slow"):
            raise ValueError("scheme must be 'fast' or 'slow'")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.lcn_window != 0 and (self.lcn_window < 3 or self.lcn_window % 2 == 0):
            raise ValueError("lcn_window must be 0 or an odd number >= 3")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.channels_base < 1:
            raise ValueError("channels_base must be >= 1")
        if self.n_context_layers < 0:
            raise ValueError("n_context_layers must be >= 0")
        if self.adversary_fov not in ("large", "small"):
            raise ValueError("adversary_fov must be 'large' or 'small'")
        if self.adversary_capacity not in ("full", "light"):
            raise ValueError("adversary_capacity must be 'full' or 'light'")
        if self.encoding.kind == "scaling" and self.encoding.tau <= 1.0 / self.num_classes:
            raise ValueError(f"tau must exceed 1/num_classes = "
                             f"{1.0 / self.num_classes:.4f} for the scaling encoding")

    @property
    def effective_block_len(self) -> int:
        return 1 if self.scheme == "fast" else self.block_len


def player_for_iteration(iteration: int, block_len: int) -> str:
    """Alternation schedule: blocks of ``block_len`` iterations, segmenter
    first."""
    return SEGMENTER if (iteration // block_len) % 2 == 0 else ADVERSARY


@dataclass
class Batch:
    images: np.ndarray        # (B, 3, H, W), each row a ``network_input``
    labels_ds: np.ndarray     # (B, h, w) at segmenter output resolution
    samples: list             # the drawn ``Sample`` objects, in batch order


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
    # Sample -> the frozen segmenter's (C, h, w) probability map of it;
    # valid until the segmenter moves, so a segmenter turn empties it
    seg_probs: dict = field(default_factory=dict)


def network_specs(cfg: TrainConfig) -> tuple[N.NetSpec, N.NetSpec]:
    """(segmenter, adversary) architectures that ``cfg`` trains."""
    seg_spec = N.build_segmenter(cfg.num_classes, cfg.channels_base,
                                 cfg.n_context_layers)
    adv_spec = N.build_adversary(cfg.encoding.channels(cfg.num_classes),
                                 cfg.adversary_fov, cfg.adversary_capacity,
                                 two_branch=cfg.encoding.include_image)
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


# Sample -> {lcn_window: its contrast-normalized (3, H, W) image}; weak
# keys, so an entry goes with its sample
_normalized = weakref.WeakKeyDictionary()


def network_input(sample, window: int) -> np.ndarray:
    """The (3, H, W) array the segmenter sees of ``sample``: its image at
    ``window=0``, else its contrast-normalized image, computed on the first
    request at ``window`` and then read from ``_normalized``."""
    if not window:
        return sample.image
    by_window = _normalized.setdefault(sample, {})
    if window not in by_window:
        by_window[window] = local_contrast_normalize(sample.image, window)
    return by_window[window]


def make_batch(samples, indices, cfg: TrainConfig, stride: int) -> Batch:
    drawn = [samples[i] for i in indices]
    return Batch(
        images=np.stack([network_input(s, cfg.lcn_window) for s in drawn]),
        labels_ds=downsample(np.stack([s.labels for s in drawn]), stride),
        samples=drawn,
    )


def sgd_step(params: dict, lr: float) -> None:
    """p <- p - lr * grad for every element, then zero the grads."""
    for name, t in params.items():
        if t.grad is None:
            raise RuntimeError(f"sgd_step: no gradient on {name}")
        t.data -= lr * t.grad
        t.zero_grad()


def frozen_segmenter_probs(state: TrainState, batch: Batch) -> Tensor:
    """The segmenter's probability maps of ``batch`` on detached parameters.
    Only the samples that ``state.seg_probs`` lacks are forwarded, each once
    in batch order, and their rows are stored; the batch's maps are then
    stacked from the store."""
    store = state.seg_probs
    rows = {}  # sample -> its first row in the batch
    for row, sample in enumerate(batch.samples):
        if sample not in store:
            rows.setdefault(sample, row)
    if rows:
        probs = N.forward(state.seg_spec, N.detach_params(state.seg_params),
                          Tensor(batch.images[list(rows.values())]))
        store.update(zip(rows, probs.data))
    return Tensor(np.stack([store[s] for s in batch.samples]))


def train_iteration(state: TrainState, batch: Batch, player: str | None = None) -> TrainState:
    """Run one SGD step for the scheduled player (or an explicit one)."""
    cfg = state.cfg
    if player is None:
        player = player_for_iteration(state.iteration, cfg.effective_block_len)
    b = len(batch.images)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if player == SEGMENTER:
            state.seg_probs.clear()
            probs = N.forward(state.seg_spec, state.seg_params, Tensor(batch.images))
            adv_on_pred = None
            if cfg.lam > 0.0:
                _, pred = build_adv_pair(batch.images, batch.labels_ds, probs,
                                         cfg.encoding)
                adv_on_pred = N.forward(state.adv_spec,
                                        N.detach_params(state.adv_params), pred)
            target = one_hot(batch.labels_ds, cfg.num_classes)
            loss = mul(segmenter_objective(probs, target, adv_on_pred, cfg.lam,
                                           cfg.modified_update), 1.0 / b)
            loss_val = loss.item()
            if math.isfinite(loss_val):
                backward(loss)
                sgd_step(state.seg_params, cfg.slr)
        else:
            probs = frozen_segmenter_probs(state, batch)
            gt, pred = build_adv_pair(batch.images, batch.labels_ds, probs,
                                      cfg.encoding)
            adv_on_gt = N.forward(state.adv_spec, state.adv_params, gt)
            adv_on_pred = N.forward(state.adv_spec, state.adv_params, pred)
            loss = mul(adversary_objective(adv_on_gt, adv_on_pred), 1.0 / b)
            loss_val = loss.item()
            if math.isfinite(loss_val):
                backward(loss)
                sgd_step(state.adv_params, cfg.alr)

    state.loss_history.append((state.iteration, player, loss_val))
    state.iteration += 1
    return state


def adversary_accuracy(state: TrainState, samples, maps) -> tuple[float, float]:
    """Fraction of adversary grid outputs on the correct side of 0.5 for
    ground-truth and predicted inputs, over ``samples``. ``maps`` holds
    each sample's (1, C, h, w) segmenter output from ``metrics.segment``;
    the adversary judges them as one batch per side on detached
    parameters, so no graph is built."""
    stride = N.receptive_field(state.seg_spec)[2]
    batch = make_batch(samples, range(len(samples)), state.cfg, stride)
    gt, pred = build_adv_pair(batch.images, batch.labels_ds,
                              Tensor(np.concatenate(maps)), state.cfg.encoding)
    adv_params = N.detach_params(state.adv_params)
    out_gt = N.forward(state.adv_spec, adv_params, gt).data
    out_pred = N.forward(state.adv_spec, adv_params, pred).data
    return np.mean(out_gt > 0.5), np.mean(out_pred < 0.5)


@dataclass
class RunRecord:
    rows: list = field(default_factory=list)  # dict per evaluation
    loss_history: list = field(default_factory=list)
    status: str = "completed"  # "completed" | "diverged"
    diverged_at: int | None = None
    best_iteration: int | None = None
    best_val_miou: float = -1.0
    best_val_mbf: float | None = None
    best_seg_params: dict | None = None
    best_adv_params: dict | None = None


def _snapshot(params: dict) -> dict:
    return {name: Tensor(t.data.copy(), requires_grad=True)
            for name, t in params.items()}


def _record_eval(record: RunRecord, state: TrainState, dataset, bf_cfg) -> None:
    cfg = state.cfg
    stride = N.receptive_field(state.seg_spec)[2]
    reports, val_maps = {}, []
    for split in ("train", "val"):
        reports[split] = evaluate_split(
            state.seg_spec, state.seg_params, dataset.split(split),
            cfg.num_classes, bf_cfg, stride,
            preprocess=partial(network_input, window=cfg.lcn_window),
            outputs=val_maps if split == "val" else None)
    acc_gt, acc_pred = (adversary_accuracy(state, dataset.val, val_maps)
                        if cfg.lam != 0.0 else (None, None))
    for split, report in reports.items():
        record.rows.append({"iter": state.iteration, "split": split,
                            **report_values(report),
                            "adv_acc_gt": acc_gt, "adv_acc_pred": acc_pred})
    report = reports["val"]
    if report.mean_iou > record.best_val_miou:
        record.best_val_miou = report.mean_iou
        record.best_val_mbf = report.mean_bf
        record.best_iteration = state.iteration
        record.best_seg_params = _snapshot(state.seg_params)
        record.best_adv_params = _snapshot(state.adv_params)


def dataset_bf_config(dataset) -> BFConfig:
    """The tolerance rule for ``dataset``: ``make_dataset`` draws every
    scene from one spec and ``load_dataset`` rejects a scene of another
    size, so the spec's diagonal is every scene's."""
    return BFConfig(image_diagonal((dataset.spec.height, dataset.spec.width)))


def train_run(cfg: TrainConfig, dataset) -> RunRecord:
    """Full training run with periodic evaluation on train and val, best
    validation-mIoU checkpointing, and a divergence guard (a non-finite
    loss aborts the run with a diagnostic record instead of crashing)."""
    state = init_state(cfg)
    record = RunRecord(loss_history=state.loss_history)
    bf_cfg = dataset_bf_config(dataset)
    stride = N.receptive_field(state.seg_spec)[2]
    train_samples = dataset.train

    def turn(player=None) -> bool:
        """Train one iteration on a fresh batch (an adversary turn at lambda 0
        only draws it). A non-finite loss marks the run diverged and returns False."""
        replace_draw = cfg.batch_size > len(train_samples)
        idx = state.rng.choice(len(train_samples), size=cfg.batch_size,
                               replace=replace_draw)
        player = player or player_for_iteration(state.iteration, cfg.effective_block_len)
        if player == ADVERSARY and cfg.lam == 0.0:
            state.iteration += 1
            return True
        train_iteration(state, make_batch(train_samples, idx, cfg, stride), player)
        if math.isfinite(state.loss_history[-1][2]):
            return True
        record.status = "diverged"
        record.diverged_at = state.iteration - 1
        return False

    for _ in range(cfg.pretrain_adversary_iters):
        if not turn(ADVERSARY):
            return record
    state.iteration = 0

    _record_eval(record, state, dataset, bf_cfg)
    while state.iteration < cfg.max_iters:
        if not turn():
            return record
        if state.iteration % cfg.eval_every == 0 or state.iteration == cfg.max_iters:
            _record_eval(record, state, dataset, bf_cfg)
    return record


def record_log_text(record: RunRecord) -> str:
    """The status line, then one evaluation row per line as 'key=value'
    columns, each value written by ``metrics.fmt``."""
    lines = [f"status={record.status}"
             + (f" diverged_at={record.diverged_at}" if record.diverged_at is not None else "")]
    lines += [" ".join(f"{key}={fmt(v)}" for key, v in row.items()) for row in record.rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hyper-parameter grid search


def _rank_key(entry):
    _, record = entry
    diverged = record.status != "completed"
    mbf = record.best_val_mbf if record.best_val_mbf is not None else -1.0
    return (diverged, -record.best_val_miou, -mbf)


_grid_dataset = None  # the dataset of a grid worker process


def _grid_init(dataset) -> None:
    global _grid_dataset
    _grid_dataset = dataset


def _grid_worker(cfg):
    return cfg, train_run(cfg, _grid_dataset)


def grid_search(configs, dataset, jobs: int = 1):
    """Train each distinct config of ``configs`` once; selection by best
    validation mIoU, ties by mBF, then the earlier config. Diverged runs rank
    last. Runs ``min(jobs, distinct configs)`` worker processes, each handed
    the dataset once when it starts, and in this process when that is 1.
    Returns (best entry, the (config, record) entries in the order of
    ``configs``, one per listed config: equal configs share a record)."""
    if not configs:
        raise ValueError("empty grid")
    distinct = list(dict.fromkeys(configs))
    workers = min(jobs, len(distinct))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_grid_init,
                                 initargs=(dataset,)) as pool:
            records = dict(pool.map(_grid_worker, distinct))
    else:
        records = {c: train_run(c, dataset) for c in distinct}
    entries = [(c, records[c]) for c in configs]
    return min(entries, key=_rank_key), entries
