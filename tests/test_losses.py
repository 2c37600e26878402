import math

import numpy as np
import pytest

from advseg.labelmap import VOID, void_mask
from advseg.losses import (
    adversary_objective,
    apply_void_zeroing,
    bce_loss,
    expand_mask,
    mce_loss,
    segmenter_objective,
)
from advseg.tensor import ShapeError, Tensor, backward, grad_check, mul, reduce_sum

from oracles import hybrid_loss

LN2 = math.log(2.0)


def _softmax_like(rng, shape):
    raw = rng.uniform(0.05, 1.0, size=shape)
    return raw / raw.sum(axis=1, keepdims=True)


def test_mce_perfect_prediction_near_zero():
    y = np.zeros((1, 2, 2, 2))
    y[0, 0] = 1.0
    pred = Tensor(y.copy())
    loss = mce_loss(pred, y, np.ones((1, 2, 2))).item()
    assert 0.0 <= loss < 4 * 1e-6  # clamp to 1 - 1e-7 leaves ~1e-7 per pixel


def test_mce_hand_value():
    pred = Tensor(np.array([0.8, 0.2]).reshape(1, 2, 1, 1))
    target = np.array([1.0, 0.0]).reshape(1, 2, 1, 1)
    loss = mce_loss(pred, target, np.ones((1, 1, 1))).item()
    assert abs(loss - 0.2231435513) < 1e-9


def test_mce_all_void_zero_loss_and_grad():
    rng = np.random.default_rng(0)
    pred = Tensor(_softmax_like(rng, (1, 3, 2, 2)), requires_grad=True)
    labels = np.full((1, 2, 2), VOID)
    target = np.zeros((1, 3, 2, 2))
    loss = mce_loss(pred, target, void_mask(labels))
    assert loss.item() == 0.0
    backward(loss)
    np.testing.assert_array_equal(pred.grad, np.zeros_like(pred.data))


def test_mce_shape_mismatch():
    with pytest.raises(ShapeError):
        mce_loss(Tensor(np.ones((1, 2, 2, 2))), np.ones((1, 3, 2, 2)), np.ones((1, 2, 2)))


def _cell(value):
    """A one-cell (1, 1, 1, 1) adversary grid."""
    return Tensor(np.full((1, 1, 1, 1), value))


def test_bce_half():
    assert abs(bce_loss(_cell(0.5), 1).item() - LN2) < 1e-12


def test_bce_near_perfect():
    assert bce_loss(_cell(1.0 - 1e-7), 1).item() < 1.1e-7


def test_bce_grid_mean():
    grid = Tensor(np.array([[0.5, 0.5], [1.0 - 1e-7, 1.0 - 1e-7]]).reshape(1, 1, 2, 2))
    val = bce_loss(grid, 1).item()
    assert abs(val - (2 * LN2 + 2e-7) / 4) < 1e-8


def test_bce_batched_grid_sums_over_images():
    grid = Tensor(np.full((3, 1, 2, 2), 0.5))
    assert abs(bce_loss(grid, 1).item() - 3 * LN2) < 1e-12


def test_bce_rejects_other_targets():
    with pytest.raises(ValueError):
        bce_loss(_cell(0.5), 2)


def test_hybrid_reduces_to_mce_at_lambda_zero():
    rng = np.random.default_rng(1)
    pred = Tensor(_softmax_like(rng, (2, 3, 4, 4)))
    target = _softmax_like(rng, (2, 3, 4, 4)) > 0.5
    target = target.astype(float)
    mask = np.ones((2, 4, 4))
    adv = Tensor(np.full((2, 1, 2, 2), 0.7))
    h = hybrid_loss(pred, target, mask, adv, adv, 0.0).item()
    m = mce_loss(pred, target, mask).item()
    assert h == m


def test_hybrid_with_uninformed_adversary():
    rng = np.random.default_rng(2)
    n = 3
    pred = Tensor(_softmax_like(rng, (n, 2, 2, 2)))
    target = np.zeros((n, 2, 2, 2))
    target[:, 0] = 1.0
    mask = np.ones((n, 2, 2))
    adv = Tensor(np.full((n, 1, 1, 1), 0.5))
    h = hybrid_loss(pred, target, mask, adv, adv, 1.0).item()
    m = mce_loss(pred, target, mask).item()
    assert abs(h - (m - 2 * LN2 * n)) < 1e-9


def test_hybrid_with_perfect_adversary():
    rng = np.random.default_rng(3)
    pred = Tensor(_softmax_like(rng, (1, 2, 2, 2)))
    target = np.zeros((1, 2, 2, 2))
    target[:, 0] = 1.0
    mask = np.ones((1, 2, 2))
    adv_gt = Tensor(np.full((1, 1, 1, 1), 1.0 - 1e-7))
    adv_pred = Tensor(np.full((1, 1, 1, 1), 1e-7))
    h = hybrid_loss(pred, target, mask, adv_gt, adv_pred, 1.0).item()
    m = mce_loss(pred, target, mask).item()
    assert abs(h - m) < 1e-6


def test_adversary_objective_uninformed():
    adv = Tensor(np.full((4, 1, 2, 2), 0.5))
    assert abs(adversary_objective(adv, adv).item() - 8 * LN2) < 1e-12


def test_adversary_objective_perfect():
    gt = Tensor(np.full((2, 1, 2, 2), 1.0 - 1e-7))
    pred = Tensor(np.full((2, 1, 2, 2), 1e-7))
    assert adversary_objective(gt, pred).item() < 1e-6


def test_adversary_objective_zero_sum_with_hybrid_bracket():
    """adversary_objective == -(hybrid - mce) / lambda on random inputs."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        lam = rng.uniform(0.1, 3.0)
        pred = Tensor(_softmax_like(rng, (2, 3, 2, 2)))
        target = np.zeros((2, 3, 2, 2))
        target[:, 1] = 1.0
        mask = np.ones((2, 2, 2))
        adv_gt = Tensor(rng.uniform(0.01, 0.99, size=(2, 1, 1, 1)))
        adv_pred = Tensor(rng.uniform(0.01, 0.99, size=(2, 1, 1, 1)))
        h = hybrid_loss(pred, target, mask, adv_gt, adv_pred, lam).item()
        m = mce_loss(pred, target, mask).item()
        a = adversary_objective(adv_gt, adv_pred).item()
        assert abs(a - (-(h - m) / lam)) < 1e-12


def test_segmenter_objective_lambda_zero_matches_mce_gradient():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(1, 3, 2, 2)), requires_grad=True)
    target = np.zeros((1, 3, 2, 2))
    target[0, 2] = 1.0
    mask = np.ones((1, 2, 2))
    from advseg.layers import channel_softmax

    backward(segmenter_objective(channel_softmax(logits), target, mask, None,
                                 0.0, True))
    g1 = logits.grad.copy()
    logits.zero_grad()
    backward(mce_loss(channel_softmax(logits), target, mask))
    np.testing.assert_array_equal(g1, logits.grad)


def test_segmenter_objective_surrogate_values_at_half():
    rng = np.random.default_rng(6)
    pred = Tensor(_softmax_like(rng, (1, 2, 2, 2)))
    target = np.zeros((1, 2, 2, 2))
    target[:, 0] = 1.0
    mask = np.ones((1, 2, 2))
    adv = Tensor(np.full((1, 1, 1, 1), 0.5))
    m = mce_loss(pred, target, mask).item()
    lam = 0.7
    modified = segmenter_objective(pred, target, mask, adv, lam, True).item()
    original = segmenter_objective(pred, target, mask, adv, lam, False).item()
    assert abs(modified - (m + lam * LN2)) < 1e-12
    assert abs(original - (m - lam * LN2)) < 1e-12


def test_surrogate_gradients_same_sign_and_ratio():
    """d/da[bce(a,0)] and -d/da[bce(a,1)] never disagree in sign on (0,1);
    the magnitude ratio is a/(1-a)."""
    for a_val in np.linspace(0.001, 0.999, 999):
        a = _cell(a_val)
        a.requires_grad = True
        backward(bce_loss(a, 0))
        g_orig = a.grad.item()  # d/da of the term the original update subtracts
        a.zero_grad()
        backward(bce_loss(a, 1))
        g_mod = a.grad.item()
        assert np.sign(g_orig) == -np.sign(g_mod)
        ratio = abs(g_orig) / abs(g_mod)
        assert abs(ratio - a_val / (1.0 - a_val)) < 1e-9


def test_apply_void_zeroing_identity_and_annihilation():
    rng = np.random.default_rng(7)
    prob = Tensor(rng.uniform(size=(1, 3, 2, 2)))
    out = apply_void_zeroing(prob, np.ones((1, 2, 2)))
    np.testing.assert_array_equal(out.data, prob.data)
    out = apply_void_zeroing(prob, np.zeros((1, 2, 2)))
    np.testing.assert_array_equal(out.data, np.zeros_like(prob.data))


def test_apply_void_zeroing_kills_gradient():
    rng = np.random.default_rng(8)
    mask = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    x = Tensor(rng.uniform(0.2, 0.8, size=(1, 2, 2, 2)))

    def f(t):
        return reduce_sum(mul(apply_void_zeroing(t, mask), apply_void_zeroing(t, mask)))

    assert grad_check(f, x) < 1e-4
    x.zero_grad()
    backward(f(x))
    assert np.all(x.grad[0, :, 0, 1] == 0.0)
    assert np.all(x.grad[0, :, 1, 0] == 0.0)


def test_losses_grad_checks():
    rng = np.random.default_rng(9)
    pred = Tensor(_softmax_like(rng, (1, 3, 2, 2)))
    target = np.zeros((1, 3, 2, 2))
    target[0, 1] = 1.0
    mask = np.array([[[1.0, 1.0], [0.0, 1.0]]])
    assert grad_check(lambda t: mce_loss(t, target, mask), pred) < 1e-4

    grid = Tensor(rng.uniform(0.1, 0.9, size=(2, 1, 2, 2)))
    assert grad_check(lambda t: bce_loss(t, 1), grid) < 1e-4
    assert grad_check(lambda t: bce_loss(t, 0), grid) < 1e-4


def test_objectives_finite_under_extreme_inputs():
    pred = Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1))
    target = np.array([0.0, 1.0]).reshape(1, 2, 1, 1)
    mask = np.ones((1, 1, 1))
    adv = Tensor(np.zeros((1, 1, 1, 1)))
    for v in (mce_loss(pred, target, mask),
              segmenter_objective(pred, target, mask, adv, 2.0, True),
              hybrid_loss(pred, target, mask, adv, adv, 2.0)):
        assert np.isfinite(v.item())


def test_expand_mask_shapes():
    shape = (2, 3, 4, 4)
    rng = np.random.default_rng(0)
    per_image = rng.integers(0, 2, size=(2, 4, 4)).astype(float)
    for c in range(3):
        np.testing.assert_array_equal(expand_mask(per_image, shape)[:, c], per_image)
    # one mask per image of the batch, nothing shared or broadcast
    for bad in ((4, 4), (1, 4, 4), (1, 5, 5), (5, 5), (3, 4, 4), (2, 4, 5), (2, 4),
                (2, 1, 4, 4), ()):
        with pytest.raises(ShapeError):
            expand_mask(np.ones(bad), shape)
