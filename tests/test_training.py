import gc
import resource
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advseg.layers as L
import advseg.networks as N
import advseg.tensor as T
import advseg.training as TR
from advseg.encodings import EncodingKind, build_adv_pair
from advseg.layers import local_contrast_normalize
from advseg.metrics import evaluate_split, segment
from advseg.networks import forward, receptive_field
from advseg.tensor import Tensor, backward, reduce_sum
from advseg.toyscenes import SceneSpec, make_dataset
from advseg.training import (
    ADVERSARY,
    SEGMENTER,
    TrainConfig,
    frozen_segmenter_probs,
    grid_search,
    init_state,
    make_batch,
    player_for_iteration,
    record_log_text,
    sgd_step,
    train_iteration,
    train_run,
)

from oracles import lcn_per_plane


def tiny_cfg(**kw):
    base = dict(slr=0.01, alr=0.05, lam=1.0, scheme="fast", batch_size=2,
                max_iters=6, seed=0, num_classes=3, channels_base=4,
                n_context_layers=1, adversary_capacity="light",
                eval_every=3)
    base.update(kw)
    return TrainConfig(**base)


def tiny_dataset(n_train=4, n_val=2, seed=0, **kw):
    spec = SceneSpec(height=16, width=16, num_classes=3, seed=seed, **kw)
    return make_dataset(spec, n_train, n_val)


def grid_configs(base, slrs, alrs, lams):
    """``base`` at every (slr, alr, lambda) of the cross product."""
    return [replace(base, slr=s, alr=a, lam=l) for s in slrs for a in alrs for l in lams]


def params_bytes(params):
    return b"".join(t.data.tobytes() for t in params.values())


def test_sgd_step_basics():
    p = {"w": Tensor([1.0, 2.0], requires_grad=True)}
    p["w"].grad = np.array([2.0, -1.0])
    sgd_step(p, 0.5)
    np.testing.assert_array_equal(p["w"].data, [0.0, 2.5])
    assert p["w"].grad is None


def test_sgd_step_zero_lr_keeps_params():
    p = {"w": Tensor([1.0], requires_grad=True)}
    p["w"].grad = np.array([3.0])
    sgd_step(p, 0.0)
    np.testing.assert_array_equal(p["w"].data, [1.0])


def test_sgd_step_missing_grad_errors():
    p = {"w": Tensor([1.0], requires_grad=True)}
    with pytest.raises(RuntimeError):
        sgd_step(p, 0.1)


def test_sgd_two_steps_equal_double_lr_on_linear():
    def run(lr, steps):
        w = {"w": Tensor([1.0], requires_grad=True)}
        for _ in range(steps):
            loss = reduce_sum(T.mul(w["w"], 3.0))
            backward(loss)
            sgd_step(w, lr)
        return w["w"].data.copy()

    np.testing.assert_allclose(run(0.1, 2), run(0.2, 1), atol=1e-15)


def test_player_schedule_fast_and_blocks():
    assert [player_for_iteration(i, 1) for i in range(4)] == [
        SEGMENTER, ADVERSARY, SEGMENTER, ADVERSARY]
    pattern = [player_for_iteration(i, 3) for i in range(9)]
    assert pattern == [SEGMENTER] * 3 + [ADVERSARY] * 3 + [SEGMENTER] * 3


def test_alternation_matches_analytic_pattern_any_block():
    for block in (1, 2, 5):
        seq = [player_for_iteration(i, block) for i in range(4 * block)]
        for i, p in enumerate(seq):
            expect = SEGMENTER if (i // block) % 2 == 0 else ADVERSARY
            assert p == expect


def test_exactly_one_player_changes_per_iteration():
    cfg = tiny_cfg()
    ds = tiny_dataset()
    state = init_state(cfg)
    stride = receptive_field(state.seg_spec)[2]
    for i in range(4):
        seg_before = params_bytes(state.seg_params)
        adv_before = params_bytes(state.adv_params)
        batch = make_batch(ds.train, [0, 1], cfg, stride)
        train_iteration(state, batch)
        seg_changed = params_bytes(state.seg_params) != seg_before
        adv_changed = params_bytes(state.adv_params) != adv_before
        assert seg_changed != adv_changed  # exactly one player moved
        expected = player_for_iteration(i, cfg.effective_block_len)
        assert seg_changed == (expected == SEGMENTER)


def test_lambda_zero_adversary_never_touches_segmenter():
    ds = tiny_dataset()

    def run(adv_seed_shift):
        cfg = tiny_cfg(lam=0.0, max_iters=4)
        state = init_state(cfg)
        # perturb only the adversary init; segmenter trajectory must not care
        for name, t in state.adv_params.items():
            if name.endswith(".kernel"):
                t.data += adv_seed_shift * 0.01
        stride = receptive_field(state.seg_spec)[2]
        for i in range(4):
            train_iteration(state, make_batch(ds.train, [0, 1], cfg, stride))
        return params_bytes(state.seg_params)

    assert run(0) == run(3)


def test_adversary_objective_detached_from_segmenter():
    cfg = tiny_cfg()
    ds = tiny_dataset()
    state = init_state(cfg)
    stride = receptive_field(state.seg_spec)[2]
    batch = make_batch(ds.train, [0, 1], cfg, stride)
    train_iteration(state, batch, player=ADVERSARY)
    for name, t in state.seg_params.items():
        assert t.grad is None, name


def test_adversary_turn_builds_no_segmenter_graph(monkeypatch):
    import advseg.networks as N
    cfg = tiny_cfg()
    state = init_state(cfg)
    batch = make_batch(tiny_dataset().train, [0, 1], cfg,
                       receptive_field(state.seg_spec)[2])
    seg_outputs = []
    real_forward = N.forward

    def spy(spec, *a, **k):
        out = real_forward(spec, *a, **k)
        if spec is state.seg_spec:
            seg_outputs.append(out)
        return out

    monkeypatch.setattr(N, "forward", spy)
    train_iteration(state, batch, player=ADVERSARY)
    assert len(seg_outputs) == 1
    assert seg_outputs[0].node is None and not seg_outputs[0].requires_grad


def test_segmenter_turn_that_raises_leaves_adversary_trainable(monkeypatch):
    state = init_state(tiny_cfg())
    batch = make_batch(tiny_dataset().train, [0, 1], state.cfg,
                       receptive_field(state.seg_spec)[2])

    def fails(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(TR, "segmenter_objective", fails)
    with pytest.raises(RuntimeError, match="stop"):
        train_iteration(state, batch, player=SEGMENTER)
    assert all(t.requires_grad for t in state.adv_params.values())


@pytest.mark.skipif(not T._HEAP_KEPT, reason="no glibc mallopt to keep freed memory")
def test_training_turns_reuse_freed_memory():
    # 64x64 scenes in batches of 4 free several MB per turn: enough for
    # the default malloc to give it back to the kernel, whose fresh pages
    # then fault in again (hundreds of minor faults per turn)
    cfg = tiny_cfg(batch_size=4, channels_base=16)
    ds = make_dataset(SceneSpec(height=64, width=64, num_classes=3, seed=0), 4, 1)
    state = init_state(cfg)
    batch = make_batch(ds.train, [0, 1, 2, 3], cfg, receptive_field(state.seg_spec)[2])
    for player in (SEGMENTER, ADVERSARY):
        train_iteration(state, batch, player=player)
    turns = 6
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(turns):
        train_iteration(state, batch, player=(SEGMENTER, ADVERSARY)[i % 2])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 25 * turns


def test_turn_peak_memory_at_readme_config():
    # the bounds sit between the peaks of a graph that frees each activation
    # once no backward rule reads it (about 10 and 7 MB) and those of one
    # that holds every activation until the turn ends (about 24 and 11 MB)
    cfg = TrainConfig(slr=0.0003, alr=0.1, lam=1.0, scheme="slow", block_len=50,
                      batch_size=4, encoding=EncodingKind("basic"),
                      adversary_fov="large", adversary_capacity="full")
    ds = make_dataset(SceneSpec(seed=0), 4, 1)
    state = init_state(cfg)
    batch = make_batch(ds.train, [0, 1, 2, 3], cfg, receptive_field(state.seg_spec)[2])
    for player in (SEGMENTER, ADVERSARY):  # scratch buffers reach full size
        train_iteration(state, batch, player=player)
    peaks = {}
    for player in (SEGMENTER, ADVERSARY):
        tracemalloc.start()
        try:
            train_iteration(state, batch, player=player)
            peaks[player] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    assert peaks[SEGMENTER] < 14.0 and peaks[ADVERSARY] < 9.0, peaks


def test_train_run_records_and_reproducibility():
    cfg = tiny_cfg(max_iters=6, eval_every=3)
    ds = tiny_dataset()
    r1 = train_run(cfg, ds)
    r2 = train_run(cfg, ds)
    assert r1.status == "completed"
    assert [row["iter"] for row in r1.rows if row["split"] == "val"] == [0, 3, 6]
    assert r1.loss_history == r2.loss_history
    for a, b in zip(r1.rows, r2.rows):
        assert a == b
    assert r1.best_seg_params is not None


def test_initial_adversary_accuracy_near_half():
    cfg = tiny_cfg(max_iters=2, eval_every=2)
    record = train_run(cfg, tiny_dataset())
    first = record.rows[0]
    assert first["iter"] == 0
    assert 0.15 <= first["adv_acc_gt"] <= 0.85
    assert 0.15 <= first["adv_acc_pred"] <= 0.85


def test_evaluation_builds_no_graph(monkeypatch):
    import advseg.networks as N
    calls = []
    real_forward = N.forward

    def counted(spec, *args, **kwargs):
        calls.append((spec.role, real_forward(spec, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(N, "forward", counted)
    record = train_run(tiny_cfg(max_iters=0), tiny_dataset(n_train=4, n_val=3))
    assert [row["iter"] for row in record.rows] == [0, 0]
    # one segmenter forward per train and val image; the adversary judges
    # the val pass's outputs as one batch of ground truth and one of
    # predictions
    names = [name for name, _ in calls]
    assert names.count("segmenter") == 4 + 3
    assert names.count("adversary") == 2
    assert all(o.node is None and not o.requires_grad for _, o in calls)


def test_adversary_accuracy_covers_the_whole_val_split():
    cfg = tiny_cfg(max_iters=0, lcn_window=3,
                   encoding=EncodingKind("product", include_image=True))
    ds = tiny_dataset(n_train=2, n_val=11)
    row = train_run(cfg, ds).rows[0]
    # the same networks judge all 11 val scenes as one graph-building batch
    state = init_state(cfg)
    stride = receptive_field(state.seg_spec)[2]
    batch = make_batch(ds.val, range(len(ds.val)), cfg, stride)
    probs = forward(state.seg_spec, state.seg_params, Tensor(batch.images))
    assert probs.node is not None
    gt, pred = build_adv_pair(batch.images, batch.labels_ds, probs, cfg.encoding)
    out_gt = forward(state.adv_spec, state.adv_params, gt).data
    out_pred = forward(state.adv_spec, state.adv_params, pred).data
    assert row["adv_acc_gt"] == float(np.mean(out_gt > 0.5))
    assert row["adv_acc_pred"] == float(np.mean(out_pred < 0.5))


def test_divergence_guard_aborts_cleanly():
    # every log in the objectives is clamped and the softmax is
    # max-subtracted, so no learning rate can push the loss non-finite on
    # well-formed data (extreme steps saturate and freeze instead); inject
    # a non-finite input to exercise the guard
    ds = tiny_dataset()
    ds.train[0].image[0, 3, 3] = np.nan
    cfg = tiny_cfg(lam=0.0, max_iters=50, eval_every=50, batch_size=4)
    record = train_run(cfg, ds)
    assert record.status == "diverged"
    assert record.diverged_at is not None
    assert not np.isfinite(record.loss_history[-1][2])


def test_extreme_learning_rate_saturates_but_stays_finite():
    cfg = tiny_cfg(slr=1e6, lam=0.0, max_iters=20, eval_every=20)
    record = train_run(cfg, tiny_dataset())
    assert record.status == "completed"
    # the skipped adversary turns of lambda 0 record nothing
    assert [(it, p) for it, p, _ in record.loss_history] == [
        (it, SEGMENTER) for it in range(0, 20, 2)]
    assert all(np.isfinite(v) for _, _, v in record.loss_history)


@pytest.mark.parametrize("scheme, block_len", [("fast", 1), ("slow", 3)])
def test_lambda_0_skips_adversary_turns_and_keeps_the_segmenter_trajectory(
        monkeypatch, scheme, block_len):
    import advseg.networks as N
    import advseg.training as tr

    cfg = tiny_cfg(lam=0.0, scheme=scheme, block_len=block_len, max_iters=10,
                   eval_every=5, pretrain_adversary_iters=2)
    ds = tiny_dataset()
    states, roles = [], []
    real_init, real_forward = tr.init_state, N.forward

    def kept_init(c):
        states.append(real_init(c))
        return states[-1]

    def counted(spec, *args, **kwargs):
        roles.append(spec.role)
        return real_forward(spec, *args, **kwargs)

    monkeypatch.setattr(tr, "init_state", kept_init)
    monkeypatch.setattr(N, "forward", counted)
    record = train_run(cfg, ds)
    monkeypatch.undo()
    assert record.status == "completed"
    assert "adversary" not in roles
    assert all(row["adv_acc_gt"] is None and row["adv_acc_pred"] is None
               for row in record.rows)
    assert " adv_acc_gt=na adv_acc_pred=na" in record_log_text(record)

    # the same draws with every turn run, the adversary's included
    state = init_state(cfg)
    stride = receptive_field(state.seg_spec)[2]

    def draw():
        return make_batch(ds.train, state.rng.choice(len(ds.train), size=cfg.batch_size,
                                                     replace=False), cfg, stride)

    for _ in range(cfg.pretrain_adversary_iters):
        train_iteration(state, draw(), ADVERSARY)
    state.iteration = 0
    while state.iteration < cfg.max_iters:
        train_iteration(state, draw())
    players = [p for _, p, _ in state.loss_history[cfg.pretrain_adversary_iters:]]
    assert players.count(ADVERSARY) == (4 if scheme == "slow" else 5)
    assert params_bytes(states[0].seg_params) == params_bytes(state.seg_params)
    assert params_bytes(states[0].adv_params) == params_bytes(init_state(cfg).adv_params)
    assert states[0].rng.bit_generator.state == state.rng.bit_generator.state


def test_record_log_text_format():
    cfg = tiny_cfg(max_iters=2, eval_every=2)
    record = train_run(cfg, tiny_dataset())
    text = record_log_text(record)
    lines = text.strip().splitlines()
    assert lines[0] == "status=completed"
    assert lines[1].startswith("iter=0 split=train")
    assert "mean_iou=" in lines[1] and "adv_acc_gt=" in lines[1]
    # boundary F1 scores fully labelled images only: none of the default
    # scenes, which hold VOID pixels, and every scene of a void-free dataset
    assert " mean_bf=na bf_std=na bf_images=0 adv_acc_gt=" in lines[1]
    void_free = train_run(cfg, tiny_dataset(void_border_px=0, void_ribbon_px=0))
    rows = record_log_text(void_free).strip().splitlines()[1:]
    assert [row.split()[1] + " " + row.split()[7] for row in rows] == [
        "split=train bf_images=4", "split=val bf_images=2"] * 2


def test_pretrain_flag_runs_extra_adversary_iterations():
    ds = tiny_dataset()
    cfg = tiny_cfg(max_iters=2, eval_every=2, pretrain_adversary_iters=3)
    record = train_run(cfg, ds)
    players = [p for _, p, _ in record.loss_history]
    assert players[:3] == [ADVERSARY] * 3
    assert players[3] == SEGMENTER


def test_grid_search_single_point_and_selection():
    ds = tiny_dataset()
    base = tiny_cfg(max_iters=3, eval_every=3)
    best, entries = grid_search(grid_configs(base, [0.01], [0.05], [0.0]), ds)
    assert len(entries) == 1
    assert best[0].slr == 0.01

    configs = grid_configs(base, [0.005, 0.02], [0.05, 0.1], [0.0, 1.0])
    best, entries = grid_search(configs, ds)
    assert [cfg for cfg, _ in entries] == configs
    # selection must agree with an exhaustive re-scan of recorded mIoUs
    assert best[1].best_val_miou == max(r.best_val_miou for _, r in entries)


def test_grid_search_ranks_diverged_last(monkeypatch):
    import advseg.training as tr

    ds = tiny_dataset()
    base = tiny_cfg(max_iters=2, eval_every=2)

    def fake_run(cfg, dataset):
        rec = tr.RunRecord()
        if cfg.slr > 1.0:
            rec.status = "diverged"
            rec.diverged_at = 0
            rec.best_val_miou = 0.99  # must still rank last
        else:
            rec.best_val_miou = 0.5 + cfg.alr
            rec.best_val_mbf = cfg.lam
        return rec

    monkeypatch.setattr(tr, "train_run", fake_run)
    best, entries = tr.grid_search(grid_configs(base, [0.01, 5.0], [0.05, 0.2], [0.0]), ds)
    assert len(entries) == 4
    assert best[0].slr == 0.01 and best[0].alr == 0.2

    # a tie on mIoU is broken by mBF
    def run2(cfg, dataset):
        rec = tr.RunRecord()
        rec.best_val_miou = 0.5
        rec.best_val_mbf = 0.7 if cfg.alr == 0.05 else 0.1
        return rec

    monkeypatch.setattr(tr, "train_run", run2)
    best, _ = tr.grid_search(grid_configs(base, [0.01], [0.2, 0.05], [0.0]), ds)
    assert best[0].alr == 0.05


def test_grid_search_over_seeds_keeps_list_order_and_ties_go_to_the_earlier(monkeypatch):
    import advseg.training as tr

    ds = tiny_dataset()
    configs = [tiny_cfg(max_iters=2, eval_every=2, seed=seed) for seed in (2, 0, 1)]
    _, entries = grid_search(configs, ds)
    assert [cfg for cfg, _ in entries] == configs
    for cfg, record in entries:
        assert record.loss_history == train_run(cfg, ds).loss_history

    def tied(cfg, dataset):
        rec = tr.RunRecord()
        rec.best_val_miou, rec.best_val_mbf = 0.5, 0.25
        return rec

    monkeypatch.setattr(tr, "train_run", tied)
    for order in (configs, configs[::-1]):
        best, _ = tr.grid_search(order, ds)
        assert best[0] is order[0]


def test_grid_search_trains_each_distinct_config_once(monkeypatch):
    import advseg.training as tr

    trained = []

    def counted(cfg, dataset):
        trained.append(cfg)
        rec = tr.RunRecord()
        rec.best_val_miou = cfg.slr
        return rec

    monkeypatch.setattr(tr, "train_run", counted)
    base = tiny_cfg()
    # -0.0 == 0.0, so those two lambdas are one config
    configs = grid_configs(base, [0.01, 0.02, 0.01], [0.05, 0.05], [-0.0, 0.0, 1.0])
    best, entries = tr.grid_search(configs, tiny_dataset())
    assert len(trained) == len(set(configs)) == 4
    assert trained == list(dict.fromkeys(configs))
    assert [cfg for cfg, _ in entries] == configs
    assert all(record.best_val_miou == cfg.slr for cfg, record in entries)
    assert best[0] is configs[configs.index(replace(base, slr=0.02, alr=0.05, lam=0.0))]


def test_grid_search_empty_errors():
    with pytest.raises(ValueError):
        grid_search([], tiny_dataset())


def test_two_branch_encoding_trains():
    cfg = tiny_cfg(encoding=EncodingKind("basic", include_image=True),
                   max_iters=2, eval_every=2)
    record = train_run(cfg, tiny_dataset())
    assert record.status == "completed"


def test_product_encoding_trains():
    cfg = tiny_cfg(encoding=EncodingKind("product"), max_iters=2, eval_every=2)
    record = train_run(cfg, tiny_dataset())
    assert record.status == "completed"


def test_scaling_encoding_trains():
    cfg = tiny_cfg(encoding=EncodingKind("scaling", tau=0.9), max_iters=2,
                   eval_every=2)
    record = train_run(cfg, tiny_dataset())
    assert record.status == "completed"


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(slr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(block_len=0)
    with pytest.raises(ValueError):
        TrainConfig(scheme="sometimes")
    for bad in (dict(eval_every=0), dict(batch_size=0), dict(max_iters=-1),
                dict(lcn_window=1), dict(lcn_window=4), dict(lcn_window=-3),
                dict(adversary_fov="bogus"), dict(adversary_capacity="heavy"),
                dict(num_classes=1), dict(channels_base=0),
                dict(n_context_layers=-1),
                dict(encoding=EncodingKind("scaling", tau=0.25)),
                dict(num_classes=3, encoding=EncodingKind("scaling", tau=0.3)),
                dict(lam=-1.0), dict(lam=float("nan")), dict(lam=float("inf")),
                dict(slr=float("nan")), dict(alr=float("nan")),
                dict(slr=float("inf")), dict(alr=float("inf")), dict(seed=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(max_iters=0, lcn_window=3)
    TrainConfig(n_context_layers=0, encoding=EncodingKind("scaling", tau=0.26))


def test_report_formats_share_one_measure_list(monkeypatch):
    import advseg.training as tr
    from advseg.metrics import EvalReport, report_summary, report_to_csv, report_values

    # a float 1.0, a mean of two class accuracies, no boundary F1 and an
    # integer image count, written by the eval summary, the eval CSV and run.log
    report = EvalReport(per_class_acc=[1.0, 0.5, None], pixel_acc=1.0, mean_iou=0.25,
                        n_images=3, n_bf_images=0)
    monkeypatch.setattr(tr, "evaluate_split", lambda *args, **kwargs: report)
    record = train_run(tiny_cfg(lam=0.0, max_iters=0), tiny_dataset())

    summary = report_summary(report)
    csv = report_to_csv(report, 3)
    row = record_log_text(record).splitlines()[1]
    assert summary == ("images=3 pixel_acc=1.000000 mean_class_acc=0.750000 "
                       "mean_iou=0.250000 mean_bf=na bf_std=na bf_images=0")
    assert csv == ("row,class,accuracy,bf_f1\n"
                   "class,0,1.000000,na\n"
                   "class,1,0.500000,na\n"
                   "class,2,na,na\n"
                   "aggregate,pixel_acc,1.000000,\n"
                   "aggregate,mean_class_acc,0.750000,\n"
                   "aggregate,mean_iou,0.250000,\n"
                   "aggregate,mean_bf,na,\n"
                   "aggregate,bf_std,na,\n"
                   "aggregate,bf_images,0,\n")
    assert row == ("iter=0 split=train pixel_acc=1.000000 mean_class_acc=0.750000 "
                   "mean_iou=0.250000 mean_bf=na bf_std=na bf_images=0 "
                   "adv_acc_gt=na adv_acc_pred=na")

    names = list(report_values(report))
    assert [part.split("=")[0] for part in summary.split()[1:]] == names
    assert [line.split(",")[1] for line in csv.splitlines()
            if line.startswith("aggregate,")] == names
    assert [part.split("=")[0] for part in row.split()[2:-2]] == names


def test_grid_search_starts_no_more_workers_than_runs(monkeypatch):
    import concurrent.futures

    import advseg.training as tr

    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records ``max_workers``, runs
        the initializer and maps in this process, so no worker process
        starts."""

        def __init__(self, max_workers, initializer=None, initargs=()):
            started.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(tr, "train_run", lambda cfg, dataset: tr.RunRecord())
    ds, base = tiny_dataset(), tiny_cfg()
    _, entries = tr.grid_search(grid_configs(base, [0.01, 0.02], [0.05], [0.0]), ds,
                                jobs=64)
    assert len(entries) == 2 and started == [2]
    _, entries = tr.grid_search([base], ds, jobs=3)
    assert len(entries) == 1 and started == [2]  # one run: in this process


def test_grid_search_worker_processes_match_one_process():
    ds = tiny_dataset()
    base = tiny_cfg(max_iters=2, eval_every=2)
    configs = grid_configs(base, [0.01, 0.02], [0.05], [1.0])
    _, serial = grid_search(configs, ds, jobs=1)
    _, pooled = grid_search(configs, ds, jobs=2)
    assert [cfg for cfg, _ in pooled] == [cfg for cfg, _ in serial]
    for (_, a), (_, b) in zip(serial, pooled):
        assert a.rows == b.rows and a.status == b.status
        assert a.best_val_miou == b.best_val_miou and a.best_val_mbf == b.best_val_mbf
        assert a.loss_history == b.loss_history
        assert params_bytes(a.best_seg_params) == params_bytes(b.best_seg_params)
        assert params_bytes(a.best_adv_params) == params_bytes(b.best_adv_params)


def test_grid_search_hands_each_worker_the_dataset_at_most_once(monkeypatch):
    from advseg.toyscenes import Dataset

    pickled = []  # appended to in this process only

    def counted(self, protocol):
        pickled.append(protocol)
        return object.__reduce_ex__(self, protocol)

    monkeypatch.setattr(Dataset, "__reduce_ex__", counted, raising=False)
    ds = tiny_dataset()
    base = tiny_cfg(max_iters=1, eval_every=1, lam=0.0)
    _, entries = grid_search(grid_configs(base, [0.01, 0.02, 0.03, 0.04], [0.05], [0.0]),
                             ds, jobs=2)
    assert len(entries) == 4 and all(r.status == "completed" for _, r in entries)
    # before, every run's (cfg, dataset) pair went through the pool's pipe
    assert len(pickled) <= 2


# ---------------------------------------------------------------------------
# the frozen segmenter's stored probability maps in adversary turns


def _train_run_final_state(cfg, ds, monkeypatch, cold):
    """``train_run`` on ``ds``, emptying the store before every adversary
    turn when ``cold``. Returns the record, the final state, and the number
    of segmenter rows that adversary turns forwarded and of the distinct
    samples in their batches."""
    real_iteration, real_forward = TR.train_iteration, N.forward
    rows, turn = {"forwarded": 0, "distinct": 0}, {}

    def iteration(state, batch, player=None):
        if player == ADVERSARY:
            if cold:
                state.seg_probs.clear()
            rows["distinct"] += len(set(batch.samples))
        turn.update(state=state, player=player)
        try:
            return real_iteration(state, batch, player)
        finally:
            turn["player"] = None  # evaluations forward the segmenter too

    def forward(spec, params, inputs, *args, **kwargs):
        if turn.get("player") == ADVERSARY and spec.role == "segmenter":
            rows["forwarded"] += len(inputs.data)
        return real_forward(spec, params, inputs, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(TR, "train_iteration", iteration)
        m.setattr(N, "forward", forward)
        record = TR.train_run(cfg, ds)
    return record, turn["state"], rows


@pytest.mark.parametrize("kw", [
    dict(),
    dict(batch_size=6),  # more than the 4 scenes: draws with replacement
    dict(encoding=EncodingKind("product", include_image=True), lcn_window=3),
    dict(encoding=EncodingKind("scaling", tau=0.8)),
    dict(pretrain_adversary_iters=5),
], ids=["basic", "replace", "product_image_lcn", "scaling", "pretrain"])
def test_stored_segmenter_maps_change_nothing(monkeypatch, kw):
    # slow scheme, blocks of 3 over 14 iterations: 2 adversary blocks that
    # draw 2 of 4 scenes per turn, so scenes repeat within a block
    cfg = tiny_cfg(scheme="slow", block_len=3, max_iters=14, eval_every=7, **kw)
    ds = tiny_dataset()
    cold = _train_run_final_state(cfg, ds, monkeypatch, cold=True)
    warm = _train_run_final_state(cfg, ds, monkeypatch, cold=False)
    assert warm[0].status == cold[0].status == "completed"
    assert warm[0].loss_history == cold[0].loss_history
    assert warm[0].rows == cold[0].rows
    for name in ("seg_params", "adv_params"):
        assert (params_bytes(getattr(warm[1], name))
                == params_bytes(getattr(cold[1], name))), name
    assert cold[2]["forwarded"] == cold[2]["distinct"]
    assert warm[2]["forwarded"] < warm[2]["distinct"]  # the store was read


def test_segmenter_turn_empties_the_store():
    cfg = tiny_cfg()
    ds = tiny_dataset()
    state = init_state(cfg)
    stride = receptive_field(state.seg_spec)[2]
    train_iteration(state, make_batch(ds.train, [0, 1], cfg, stride), ADVERSARY)
    assert len(state.seg_probs) == 2
    train_iteration(state, make_batch(ds.train, [2, 3], cfg, stride), SEGMENTER)
    assert state.seg_probs == {}


def test_adversary_turn_stores_one_map_per_distinct_sample(monkeypatch):
    cfg = tiny_cfg(batch_size=4)
    ds = tiny_dataset()
    state = init_state(cfg)
    stride = receptive_field(state.seg_spec)[2]
    real = N.forward
    seg_rows = []

    def spy(spec, params, inputs, *args, **kwargs):
        if spec is state.seg_spec:
            seg_rows.append(inputs.data.copy())
        return real(spec, params, inputs, *args, **kwargs)

    monkeypatch.setattr(N, "forward", spy)
    batch = make_batch(ds.train, [2, 0, 2, 1], cfg, stride)
    train_iteration(state, batch, ADVERSARY)
    # one forward of each distinct sample, in batch order
    assert len(seg_rows) == 1
    assert seg_rows[0].tobytes() == batch.images[[0, 1, 3]].tobytes()
    assert list(state.seg_probs) == [ds.train[2], ds.train[0], ds.train[1]]
    detached = N.detach_params(state.seg_params)
    for sample, probs in state.seg_probs.items():
        alone = real(state.seg_spec, detached, Tensor(sample.image[None])).data[0]
        assert probs.tobytes() == alone.tobytes()

    # a second turn forwards only the sample the store lacks
    batch = make_batch(ds.train, [1, 3, 0, 3], cfg, stride)
    train_iteration(state, batch, ADVERSARY)
    assert len(seg_rows) == 2
    assert seg_rows[1].tobytes() == ds.train[3].image[None].tobytes()
    assert len(state.seg_probs) == 4
    # the maps come out in batch order, as one forward of the batch gives them
    whole = real(state.seg_spec, detached, Tensor(batch.images)).data
    assert frozen_segmenter_probs(state, batch).data.tobytes() == whole.tobytes()

    # samples of another dataset carry the same ids and pixels, yet never hit
    twin = tiny_dataset()
    assert [s.id for s in twin.train] == [s.id for s in ds.train]
    assert twin.train[0].image.tobytes() == ds.train[0].image.tobytes()
    train_iteration(state, make_batch(twin.train, [0, 1], cfg, stride), ADVERSARY)
    assert len(seg_rows) == 3 and len(seg_rows[2]) == 2
    assert len(state.seg_probs) == 6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=st.integers(2, 4), extent=st.sampled_from([8, 12, 16]),
       num_classes=st.integers(2, 4), channels_base=st.integers(1, 6),
       n_context_layers=st.integers(0, 2), lcn=st.sampled_from([0, 3, 5]),
       seed=st.integers(0, 2**32 - 1))
def test_segmenter_batch_rows_equal_each_image_alone(
        batch, extent, num_classes, channels_base, n_context_layers, lcn, seed):
    """What the store rests on: a row of a batched segmenter forward does not
    depend on the other images of the batch, bit for bit, and local
    contrast normalization before it normalizes each image plane by plane."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, size=(batch, 3, extent, extent))
    spec = N.build_segmenter(num_classes, channels_base, n_context_layers)
    params = N.detach_params(N.init_params(spec, seed % 1000))
    if lcn:
        normalized = [local_contrast_normalize(image, lcn) for image in images]
        for image, alone in zip(images, normalized):
            assert alone.tobytes() == lcn_per_plane(image, lcn).tobytes()
        images = np.stack(normalized)
    whole = forward(spec, params, Tensor(images)).data
    for i in range(batch):
        alone = forward(spec, params, Tensor(images[i:i + 1])).data
        assert alone.tobytes() == whole[i:i + 1].tobytes()
    tail = forward(spec, params, Tensor(images[1:])).data
    assert tail.tobytes() == whole[1:].tobytes()


def _band_rows_spy(monkeypatch) -> list:
    """(n, output width, rows) of every band size a conv pass takes."""
    calls = []
    real = L.band_rows

    def spy(n, wout, macs):
        rows = real(n, wout, macs)
        calls.append((n, wout, rows))
        return rows

    monkeypatch.setattr(L, "band_rows", spy)
    return calls


def test_segment_maps_equal_rows_of_a_batch_at_full_size(monkeypatch):
    """At 64x64 one image's bands are wider than a batch of four's, and its
    map from ``metrics.segment`` is still that image's row of the batch's,
    bit for bit."""
    spec = N.build_segmenter(3)
    params = N.init_params(spec, 0)
    samples = make_dataset(SceneSpec(seed=3), 0, 4).val
    calls = _band_rows_spy(monkeypatch)
    whole = forward(spec, N.detach_params(params),
                    Tensor(np.stack([s.image for s in samples]))).data
    batch_bands = calls[:]
    del calls[:]
    for i, probs in enumerate(segment(spec, params, samples)):
        assert probs.tobytes() == whole[i:i + 1].tobytes(), i
    assert {n for n, _, _ in batch_bands} == {4} and {n for n, _, _ in calls} == {1}
    assert [w for _, w, _ in calls] == [w for _, w, _ in batch_bands] * 4
    assert any(one > four for (_, _, one), (_, _, four) in zip(calls, batch_bands))


def test_turns_at_readme_config_band_by_batch(monkeypatch):
    """A batch-4 turn of either player gives every conv pass 128 output
    positions per image in whole rows. An adversary turn whose batch the
    store partly holds forwards the frozen segmenter on the two scenes it
    lacks, on wider bands, and the maps it stores are still those scenes'
    rows of a batch-4 forward, bit for bit."""
    cfg = TrainConfig(slr=0.0003, alr=0.1, lam=1.0, scheme="slow", block_len=50,
                      batch_size=4, encoding=EncodingKind("basic"),
                      adversary_fov="large", adversary_capacity="full")
    ds = make_dataset(SceneSpec(seed=0), 6, 1)
    state = init_state(cfg)
    stride = receptive_field(state.seg_spec)[2]
    batch = make_batch(ds.train, [0, 1, 2, 3], cfg, stride)
    calls = _band_rows_spy(monkeypatch)
    for player in (SEGMENTER, ADVERSARY):
        del calls[:]
        train_iteration(state, batch, player=player)
        assert calls and {n for n, _, _ in calls} >= {4}, player
        for n, w, rows in calls:
            assert rows == max(1, 128 // w), (player, n, w, rows)
    del calls[:]
    batch = make_batch(ds.train, [2, 4, 3, 5], cfg, stride)
    train_iteration(state, batch, player=ADVERSARY)
    pair = [(w, rows) for n, w, rows in calls if n == 2]
    assert pair and any(rows > max(1, 128 // w) for w, rows in pair)
    for n, w, rows in calls:
        assert n == 2 or rows == max(1, 128 // w), (n, w, rows)
    whole = forward(state.seg_spec, N.detach_params(state.seg_params),
                    Tensor(batch.images)).data
    assert frozen_segmenter_probs(state, batch).data.tobytes() == whole.tobytes()


def _count_lcn(monkeypatch) -> list:
    """The window of every call to local contrast normalization, through
    the name the training module looks up."""
    calls = []

    def counted(image, window):
        calls.append(window)
        return local_contrast_normalize(image, window)

    monkeypatch.setattr(TR, "local_contrast_normalize", counted)
    return calls


def test_batches_are_contrast_normalized_as_a_stack(monkeypatch):
    """Each sample is normalized once per window and stored; every batch
    is the stack of its raw images, each contrast-normalized."""
    ds = tiny_dataset()
    calls = _count_lcn(monkeypatch)
    draws = [[0, 1], [1, 0], [2, 2], [3, 1, 3, 0], [0, 1]]  # repeats, duplicates
    for window in (3, 5):  # two configs over the same samples
        cfg = tiny_cfg(lcn_window=window)
        for indices in draws:
            want = np.stack([lcn_per_plane(ds.train[i].image, window) for i in indices])
            batch = make_batch(ds.train, indices, cfg, 2)
            assert batch.images.tobytes() == want.tobytes()
    assert calls == [3] * 4 + [5] * 4


def test_twenty_batches_over_four_scenes_normalize_four_times(monkeypatch):
    ds = tiny_dataset()
    calls = _count_lcn(monkeypatch)
    cfg = tiny_cfg(lcn_window=3)
    rng = np.random.default_rng(0)
    drawn = set()
    for _ in range(20):
        indices = rng.choice(4, size=2, replace=False)
        drawn.update(indices.tolist())
        make_batch(ds.train, indices, cfg, 2)
    assert drawn == {0, 1, 2, 3}
    assert len(calls) == 4


def test_no_window_batches_hold_the_raw_pixels_and_store_nothing():
    ds = tiny_dataset()
    batch = make_batch(ds.train, [2, 0, 2], tiny_cfg(lcn_window=0), 2)
    raw = np.stack([ds.train[i].image for i in (2, 0, 2)])
    assert batch.images.tobytes() == raw.tobytes()
    assert not any(s in TR._normalized for s in ds.train)


def test_a_run_normalizes_each_train_and_val_scene_once(monkeypatch):
    """Training batches, every evaluation of both splits and the adversary's
    accuracy read one stored image per scene."""
    ds = tiny_dataset(n_train=4, n_val=3)
    calls = _count_lcn(monkeypatch)
    record = train_run(tiny_cfg(lcn_window=3, max_iters=6, eval_every=2), ds)
    assert [row["iter"] for row in record.rows if row["split"] == "val"] == [0, 2, 4, 6]
    assert record.rows[0]["adv_acc_gt"] is not None
    assert calls == [3] * (4 + 3)


def test_a_stored_image_is_freed_with_its_sample():
    """Entries that a training batch and an evaluation made both go with
    their samples."""
    ds = tiny_dataset()
    cfg = tiny_cfg(lcn_window=3)
    state = init_state(cfg)
    batch = make_batch(ds.train, [0, 1], cfg, 2)
    evaluate_split(state.seg_spec, state.seg_params, ds.val, cfg.num_classes,
                   TR.dataset_bf_config(ds),
                   receptive_field(state.seg_spec)[2],
                   preprocess=partial(TR.network_input, window=3))
    kept = (ds.train[0], ds.val[0])
    refs = [weakref.ref(s) for s in kept] + [weakref.ref(TR._normalized[s][3]) for s in kept]
    del ds, batch, kept
    gc.collect()
    assert all(ref() is None for ref in refs)
