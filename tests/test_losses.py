import math

import numpy as np
import pytest

from advseg.encodings import EncodingKind, build_adv_pair, one_hot
from advseg.labelmap import VOID
from advseg.losses import adversary_objective, bce_loss, mce_loss, segmenter_objective
from advseg.networks import build_adversary, detach_params, forward, init_params
from advseg.tensor import ShapeError, Tensor, backward, grad_check, mul

from oracles import hybrid_loss, mce_reference

LN2 = math.log(2.0)


def _softmax_like(rng, shape):
    raw = rng.uniform(0.05, 1.0, size=shape)
    return raw / raw.sum(axis=1, keepdims=True)


def test_mce_perfect_prediction_near_zero():
    y = np.zeros((1, 2, 2, 2))
    y[0, 0] = 1.0
    pred = Tensor(y.copy())
    loss = mce_loss(pred, y).item()
    assert 0.0 <= loss < 4 * 1e-6  # clamp to 1 - 1e-7 leaves ~1e-7 per pixel


def test_mce_hand_value():
    pred = Tensor(np.array([0.8, 0.2]).reshape(1, 2, 1, 1))
    target = np.array([1.0, 0.0]).reshape(1, 2, 1, 1)
    loss = mce_loss(pred, target).item()
    assert abs(loss - 0.2231435513) < 1e-9


def test_mce_all_void_zero_loss_and_grad():
    rng = np.random.default_rng(0)
    pred = Tensor(_softmax_like(rng, (1, 3, 2, 2)), requires_grad=True)
    loss = mce_loss(pred, one_hot(np.full((1, 2, 2), VOID), 3))
    assert loss.item() == 0.0
    backward(loss)
    np.testing.assert_array_equal(pred.grad, np.zeros_like(pred.data))


def test_mce_shape_mismatch():
    with pytest.raises(ShapeError):
        mce_loss(Tensor(np.ones((1, 2, 2, 2))), np.ones((1, 3, 2, 2)))


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
    adv = Tensor(np.full((2, 1, 2, 2), 0.7))
    h = hybrid_loss(pred, target, adv, adv, 0.0).item()
    m = mce_loss(pred, target).item()
    assert h == m


def test_hybrid_with_uninformed_adversary():
    rng = np.random.default_rng(2)
    n = 3
    pred = Tensor(_softmax_like(rng, (n, 2, 2, 2)))
    target = np.zeros((n, 2, 2, 2))
    target[:, 0] = 1.0
    adv = Tensor(np.full((n, 1, 1, 1), 0.5))
    h = hybrid_loss(pred, target, adv, adv, 1.0).item()
    m = mce_loss(pred, target).item()
    assert abs(h - (m - 2 * LN2 * n)) < 1e-9


def test_hybrid_with_perfect_adversary():
    rng = np.random.default_rng(3)
    pred = Tensor(_softmax_like(rng, (1, 2, 2, 2)))
    target = np.zeros((1, 2, 2, 2))
    target[:, 0] = 1.0
    adv_gt = Tensor(np.full((1, 1, 1, 1), 1.0 - 1e-7))
    adv_pred = Tensor(np.full((1, 1, 1, 1), 1e-7))
    h = hybrid_loss(pred, target, adv_gt, adv_pred, 1.0).item()
    m = mce_loss(pred, target).item()
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
        adv_gt = Tensor(rng.uniform(0.01, 0.99, size=(2, 1, 1, 1)))
        adv_pred = Tensor(rng.uniform(0.01, 0.99, size=(2, 1, 1, 1)))
        h = hybrid_loss(pred, target, adv_gt, adv_pred, lam).item()
        m = mce_loss(pred, target).item()
        a = adversary_objective(adv_gt, adv_pred).item()
        assert abs(a - (-(h - m) / lam)) < 1e-12


def test_segmenter_objective_lambda_zero_matches_mce_gradient():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(1, 3, 2, 2)), requires_grad=True)
    target = np.zeros((1, 3, 2, 2))
    target[0, 2] = 1.0
    from advseg.layers import channel_softmax

    backward(segmenter_objective(channel_softmax(logits), target, None, 0.0, True))
    g1 = logits.grad.copy()
    logits.zero_grad()
    backward(mce_loss(channel_softmax(logits), target))
    np.testing.assert_array_equal(g1, logits.grad)


def test_segmenter_objective_surrogate_values_at_half():
    rng = np.random.default_rng(6)
    pred = Tensor(_softmax_like(rng, (1, 2, 2, 2)))
    target = np.zeros((1, 2, 2, 2))
    target[:, 0] = 1.0
    adv = Tensor(np.full((1, 1, 1, 1), 0.5))
    m = mce_loss(pred, target).item()
    lam = 0.7
    modified = segmenter_objective(pred, target, adv, lam, True).item()
    original = segmenter_objective(pred, target, adv, lam, False).item()
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


def test_losses_grad_checks():
    rng = np.random.default_rng(9)
    pred = Tensor(_softmax_like(rng, (1, 3, 2, 2)))
    target = one_hot(np.array([[[1, 1], [VOID, 1]]]), 3)
    assert grad_check(lambda t: mce_loss(t, target), pred) < 1e-4

    grid = Tensor(rng.uniform(0.1, 0.9, size=(2, 1, 2, 2)))
    assert grad_check(lambda t: bce_loss(t, 1), grid) < 1e-4
    assert grad_check(lambda t: bce_loss(t, 0), grid) < 1e-4


def test_objectives_finite_under_extreme_inputs():
    pred = Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1))
    target = np.array([0.0, 1.0]).reshape(1, 2, 1, 1)
    adv = Tensor(np.zeros((1, 1, 1, 1)))
    for v in (mce_loss(pred, target),
              segmenter_objective(pred, target, adv, 2.0, True),
              hybrid_loss(pred, target, adv, adv, 2.0)):
        assert np.isfinite(v.item())


def test_mce_and_objectives_match_the_masked_reference_bit_for_bit():
    """With the one-hot target as its own VOID mask, the cross-entropy and
    both segmenter updates equal, as bytes, in value and in the gradient
    that reaches the prediction, the route that multiplies the target by an
    explicit mask (``oracles.mce_reference``)."""
    rng = np.random.default_rng(10)
    c = 3
    probs = _softmax_like(rng, (2, c, 4, 4))
    labels = rng.integers(0, c, size=(2, 4, 4))
    labels[0, 0, :] = VOID
    labels[1, 2:, 1] = VOID
    target, mask = one_hot(labels, c), (labels != VOID).astype(np.float64)
    adv = build_adversary(c, "small", "light")
    adv_params = detach_params(init_params(adv, 1))

    def adv_on(pred):
        _, side = build_adv_pair(None, labels, pred, EncodingKind("basic"))
        return forward(adv, adv_params, side)

    def run(loss_of):
        pred = Tensor(probs.copy(), requires_grad=True)
        loss = loss_of(pred)
        backward(loss)
        return loss.data.tobytes(), pred.grad.tobytes()

    assert (run(lambda p: mce_loss(p, target))
            == run(lambda p: mce_reference(p, target, mask)))
    lam = 0.7
    assert (run(lambda p: segmenter_objective(p, target, adv_on(p), lam, True))
            == run(lambda p: mce_reference(p, target, mask)
                   + mul(bce_loss(adv_on(p), 1), lam)))
    assert (run(lambda p: segmenter_objective(p, target, adv_on(p), lam, False))
            == run(lambda p: mce_reference(p, target, mask)
                   - mul(bce_loss(adv_on(p), 0), lam)))

    # negative control: a target row that is nonzero at a VOID pixel is
    # scored by the loss but masked out by the reference
    stray = target.copy()
    stray[0, 1, 0, 2] = 1.0
    loss, grad = run(lambda p: mce_loss(p, stray))
    ref_loss, ref_grad = run(lambda p: mce_reference(p, stray, mask))
    assert loss != ref_loss and grad != ref_grad
