import resource

import numpy as np
import pytest

import advseg.tensor as T
from advseg.encodings import EncodingKind
from advseg.networks import forward, receptive_field
from advseg.tensor import Tensor, backward, reduce_sum
from advseg.toyscenes import SceneSpec, make_dataset
from advseg.training import (
    ADVERSARY,
    SEGMENTER,
    TrainConfig,
    grid_search,
    init_state,
    make_batch,
    player_for_iteration,
    record_log_text,
    sgd_step,
    train_iteration,
    train_run,
)


def tiny_cfg(**kw):
    base = dict(slr=0.01, alr=0.05, lam=1.0, scheme="fast", batch_size=2,
                max_iters=6, seed=0, num_classes=3, channels_base=4,
                n_context_layers=1, adversary_capacity="light",
                eval_every=3)
    base.update(kw)
    return TrainConfig(**base)


def tiny_dataset(n_train=4, n_val=2, seed=0, **kw):
    spec = SceneSpec(height=16, width=16, num_classes=3, seed=seed,
                     shape_extent_min=4, shape_extent_max=8, **kw)
    return make_dataset(spec, n_train, n_val)


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
            loss = reduce_sum(w["w"] * 3.0)
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


def test_train_run_records_and_reproducibility():
    cfg = tiny_cfg(max_iters=6, eval_every=3)
    ds = tiny_dataset()
    r1 = train_run(cfg, ds)
    r2 = train_run(cfg, ds)
    assert r1.status == "completed"
    assert [row["iter"] for row in r1.rows_for("val")] == [0, 3, 6]
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
    outputs = []
    real_forward = N.forward
    monkeypatch.setattr(N, "forward",
                        lambda *a, **k: outputs.append(real_forward(*a, **k)) or outputs[-1])
    record = train_run(tiny_cfg(max_iters=0), tiny_dataset())
    assert [row["iter"] for row in record.rows] == [0, 0]
    # one adversary_accuracy (segmenter + two adversary passes) plus one
    # forward per train and val image
    assert len(outputs) > 3
    assert all(o.node is None and not o.requires_grad for o in outputs)


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
    assert all(np.isfinite(v) for _, _, v in record.loss_history)


def test_record_log_text_format():
    cfg = tiny_cfg(max_iters=2, eval_every=2)
    record = train_run(cfg, tiny_dataset())
    text = record_log_text(record)
    lines = text.strip().splitlines()
    assert lines[0] == "status=completed"
    assert lines[1].startswith("iter=0 split=train")
    assert "mean_iou=" in lines[1] and "adv_acc_gt=" in lines[1]


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
    best, entries = grid_search(base, ds, [0.01], [0.05], [0.0])
    assert len(entries) == 1
    assert best[0].slr == 0.01

    best, entries = grid_search(base, ds, [0.005, 0.02], [0.05, 0.1], [0.0, 1.0])
    assert len(entries) == 8
    # selection must agree with an exhaustive re-scan of recorded mIoUs
    assert best[1].best_val_miou == max(r.best_val_miou for _, r in entries)


def test_grid_search_ranks_diverged_last(monkeypatch):
    import advseg.training as tr

    ds = tiny_dataset()
    base = tiny_cfg(max_iters=2, eval_every=2)

    def fake_run(cfg, dataset):
        rec = tr.RunRecord(cfg=cfg)
        if cfg.slr > 1.0:
            rec.status = "diverged"
            rec.diverged_at = 0
            rec.best_val_miou = 0.99  # must still rank last
        else:
            rec.best_val_miou = 0.5 + cfg.alr
            rec.best_val_mbf = cfg.lam
        return rec

    monkeypatch.setattr(tr, "train_run", fake_run)
    best, entries = tr.grid_search(base, ds, [0.01, 5.0], [0.05, 0.2], [0.0])
    assert len(entries) == 4
    assert best[0].slr == 0.01 and best[0].alr == 0.2
    # tie on miou broken by mbf, then lexicographic (slr, alr, lam)
    def run2(cfg, dataset):
        rec = tr.RunRecord(cfg=cfg)
        rec.best_val_miou = 0.5
        rec.best_val_mbf = 0.7 if cfg.alr == 0.05 else 0.1
        return rec

    monkeypatch.setattr(tr, "train_run", run2)
    best, _ = tr.grid_search(base, ds, [0.02, 0.01], [0.05, 0.2], [0.0])
    assert best[0].alr == 0.05 and best[0].slr == 0.01


def test_grid_search_empty_errors():
    with pytest.raises(ValueError):
        grid_search(tiny_cfg(), tiny_dataset(), [], [0.1], [0.0])


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
