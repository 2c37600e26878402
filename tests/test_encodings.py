import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advseg.encodings import (
    EncodingKind,
    build_adv_pair,
    downsample,
    encode_product,
    encode_scaling,
    one_hot,
)
from advseg.labelmap import VOID
from advseg.tensor import ShapeError, Tensor, backward, grad_check, mul, reduce_sum

from oracles import adv_pair_reference, kl_divergence, min_kl_given_floor


def _random_simplex(rng, c):
    v = rng.uniform(0.02, 1.0, size=c)
    return v / v.sum()


def test_one_hot_basic():
    out = one_hot(np.array([[[0]]]), 2)
    np.testing.assert_array_equal(out, np.array([[[[1.0]], [[0.0]]]]))


def test_one_hot_void_all_zero():
    out = one_hot(np.array([[[VOID]]]), 3)
    np.testing.assert_array_equal(out, np.zeros((1, 3, 1, 1)))


def test_one_hot_roundtrip_argmax():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=(2, 6, 6))
    labels[0, 0, 0] = VOID
    out = one_hot(labels, 4)
    back = np.argmax(out, axis=1)
    nv = labels != VOID
    np.testing.assert_array_equal(back[nv], labels[nv])


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValueError):
        one_hot(np.array([[[4]]]), 4)


def test_downsample_labels_identity_and_corners():
    labels = np.arange(16).reshape(4, 4)
    np.testing.assert_array_equal(downsample(labels, 1), labels)
    blocks = np.repeat(np.repeat(np.array([[1, 2], [3, 0]]), 2, axis=0), 2, axis=1)
    np.testing.assert_array_equal(downsample(blocks, 2), [[1, 2], [3, 0]])


def test_downsample_keeps_void():
    labels = np.zeros((4, 4), dtype=int)
    labels[0, 0] = VOID
    assert downsample(labels, 2)[0, 0] == VOID


def test_downsample_indivisible_errors():
    with pytest.raises(ShapeError):
        downsample(np.zeros((5, 4), dtype=int), 2)


def test_basic_pair_passes_predictions_through_and_zeroes_void():
    rng = np.random.default_rng(1)
    prob = rng.uniform(size=(1, 3, 2, 2))
    labels = np.array([[[0, VOID], [1, 2]]])
    _, pred = build_adv_pair(None, labels, Tensor(prob), EncodingKind("basic"))
    out = pred.data
    np.testing.assert_array_equal(out[0, :, 0, 0], prob[0, :, 0, 0])
    np.testing.assert_array_equal(out[0, :, 0, 1], 0.0)
    assert out.shape == prob.shape


def test_encode_product_one_hot_pixel():
    img = np.array([0.2, 0.4, 0.6]).reshape(1, 3, 1, 1)
    prob = Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1))
    out = encode_product(img, prob).data[0, :, 0, 0]
    np.testing.assert_allclose(out, [0.2, 0.4, 0.6, 0.0, 0.0, 0.0])


def test_encode_product_uniform_prob():
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(1, 3, 2, 2))
    prob = Tensor(np.full((1, 2, 2, 2), 0.5))
    out = encode_product(img, prob).data
    np.testing.assert_allclose(out[0, 0:3], 0.5 * img[0])
    np.testing.assert_allclose(out[0, 3:6], 0.5 * img[0])


def test_encode_product_channel_count():
    img = np.zeros((1, 3, 4, 4))
    prob = Tensor(np.full((1, 2, 4, 4), 0.5))
    assert encode_product(img, prob).shape == (1, 6, 4, 4)


def test_encode_product_requires_the_image_at_map_resolution():
    prob = Tensor(np.ones((1, 1, 4, 4)))
    for shape in ((1, 3, 8, 8), (3, 4, 4), (2, 3, 4, 4), (1, 1, 4, 4)):
        with pytest.raises(ShapeError):
            encode_product(np.zeros(shape), prob)


def test_build_adv_pair_downsamples_image_for_product():
    img = np.zeros((1, 3, 8, 8))
    img[0, :, 0, 0] = (0.3, 0.6, 0.9)
    prob = Tensor(np.ones((1, 1, 4, 4)))
    labels = np.zeros((1, 4, 4), dtype=int)
    _, pred = build_adv_pair(img, labels, prob, EncodingKind("product"))
    np.testing.assert_allclose(pred.data[0, :, 0, 0], [0.3, 0.6, 0.9])


def test_encode_product_linear_in_prob():
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(1, 3, 4, 4))
    p = rng.uniform(size=(1, 3, 4, 4))
    q = rng.uniform(size=(1, 3, 4, 4))
    alpha = 0.3
    blend = encode_product(img, Tensor(alpha * p + (1 - alpha) * q)).data
    parts = (alpha * encode_product(img, Tensor(p)).data
             + (1 - alpha) * encode_product(img, Tensor(q)).data)
    np.testing.assert_allclose(blend, parts, atol=1e-12)


def test_encode_product_grad_check():
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(1, 3, 2, 2))
    prob = Tensor(rng.uniform(0.1, 0.9, size=(1, 2, 2, 2)))

    def f(t):
        e = encode_product(img, t)
        return reduce_sum(mul(e, e))

    assert grad_check(f, prob) < 1e-4


def test_encode_scaling_identity_when_confident():
    s = np.array([0.95, 0.03, 0.02]).reshape(1, 3, 1, 1)
    labels = np.zeros((1, 1, 1), dtype=int)
    out = encode_scaling(s, labels, 0.9)
    np.testing.assert_allclose(out, s, atol=1e-15)


def test_encode_scaling_hand_value():
    s = np.array([0.5, 0.3, 0.2]).reshape(1, 3, 1, 1)
    labels = np.zeros((1, 1, 1), dtype=int)
    out = encode_scaling(s, labels, 0.9)[0, :, 0, 0]
    np.testing.assert_allclose(out, [0.9, 0.06, 0.04], atol=1e-12)


def test_encode_scaling_sums_to_one():
    rng = np.random.default_rng(5)
    for c in (2, 3, 4):
        s = np.stack([_random_simplex(rng, c) for _ in range(16)], axis=1)
        s = s.reshape(1, c, 4, 4)
        labels = rng.integers(0, c, size=(1, 4, 4))
        out = encode_scaling(s, labels, 0.9)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_encode_scaling_void_zeroed():
    s = np.full((1, 2, 2, 2), 0.5)
    labels = np.array([[[0, VOID], [1, VOID]]])
    out = encode_scaling(s, labels, 0.9)
    np.testing.assert_array_equal(out[0, :, :, 1], 0.0)
    assert out[0, 0, 0, 0] == 0.9


def test_encode_scaling_degenerate_one_hot():
    s = np.array([1.0, 0.0, 0.0]).reshape(1, 3, 1, 1)
    labels = np.zeros((1, 1, 1), dtype=int)
    out = encode_scaling(s, labels, 0.9)
    np.testing.assert_array_equal(out[0, :, 0, 0], [1.0, 0.0, 0.0])


def test_encode_scaling_kl_optimal():
    """The closed form minimizes KL(y || s) subject to the tau mass floor."""
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(120):
        c = int(rng.integers(2, 5))
        s = _random_simplex(rng, c)
        label = int(rng.integers(0, c))
        if s[label] >= 0.9:
            continue
        out = encode_scaling(s.reshape(1, c, 1, 1), np.full((1, 1, 1), label), 0.9)[0, :, 0, 0]
        ours = kl_divergence(out, s)
        best = min_kl_given_floor(s, label, 0.9)
        assert ours <= best + 1e-6
        checked += 1
    assert checked >= 50


def test_product_encoding_commutes_with_void_zeroing():
    rng = np.random.default_rng(7)
    img = rng.uniform(size=(1, 3, 4, 4))
    prob = rng.uniform(size=(1, 3, 4, 4))
    labels = rng.integers(0, 3, size=(1, 4, 4))
    labels[0, 0, :2] = VOID
    labelled = (labels != VOID)[:, None]

    a = encode_product(img, Tensor(prob * labelled)).data
    b = encode_product(img, Tensor(prob)).data * labelled
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_build_adv_pair_basic():
    rng = np.random.default_rng(8)
    c = 3
    raw = rng.uniform(0.05, 1.0, size=(1, c, 4, 4))
    seg = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
    labels = rng.integers(0, c, size=(1, 4, 4))
    labels[0, 2, 2] = VOID
    gt, pred = build_adv_pair(None, labels, seg, EncodingKind("basic"))
    assert isinstance(gt, Tensor) and isinstance(pred, Tensor)
    np.testing.assert_array_equal(gt.data[0, :, 2, 2], 0.0)
    np.testing.assert_array_equal(pred.data[0, :, 2, 2], 0.0)
    assert not gt.requires_grad
    assert pred.requires_grad
    ij = np.argwhere(labels[0] != VOID)[0]
    lab = labels[0, ij[0], ij[1]]
    assert gt.data[0, lab, ij[0], ij[1]] == 1.0


def test_build_adv_pair_scaling_limit_case():
    labels = np.zeros((1, 2, 2), dtype=int)
    onehot = np.zeros((1, 2, 2, 2))
    onehot[0, 0] = 1.0
    gt, _ = build_adv_pair(None, labels, Tensor(onehot), EncodingKind("scaling", tau=0.9))
    np.testing.assert_array_equal(gt.data, onehot)


def test_build_adv_pair_product_channels():
    rng = np.random.default_rng(9)
    c = 2
    img = rng.uniform(size=(1, 3, 8, 8))
    raw = rng.uniform(0.05, 1.0, size=(1, c, 4, 4))
    seg = Tensor(raw / raw.sum(axis=1, keepdims=True))
    labels = rng.integers(0, c, size=(1, 4, 4))
    gt, pred = build_adv_pair(img, labels, seg, EncodingKind("product"))
    assert gt.shape == (1, 3 * c, 4, 4)
    assert pred.shape == (1, 3 * c, 4, 4)


def test_build_adv_pair_tau_must_exceed_uniform():
    labels = np.zeros((1, 2, 2), dtype=int)
    seg = Tensor(np.full((1, 4, 2, 2), 0.25))
    with pytest.raises(ValueError):
        build_adv_pair(None, labels, seg, EncodingKind("scaling", tau=0.25))


def test_build_adv_pair_gradient_only_through_pred():
    rng = np.random.default_rng(10)
    raw = rng.uniform(0.05, 1.0, size=(1, 2, 2, 2))
    seg = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
    labels = rng.integers(0, 2, size=(1, 2, 2))
    labels[0, 1, 0] = VOID
    gt, pred = build_adv_pair(None, labels, seg, EncodingKind("scaling", tau=0.9))
    backward(reduce_sum(pred) + reduce_sum(gt))
    assert seg.grad is not None
    labelled = (labels != VOID)[:, None]
    np.testing.assert_array_equal(seg.grad, np.broadcast_to(labelled, seg.shape))


def test_encoding_kind_validation():
    with pytest.raises(ValueError):
        EncodingKind("fancy")
    with pytest.raises(ValueError):
        EncodingKind("scaling", tau=1.5)


def test_downsample_image_nearest():
    img = np.arange(2 * 4 * 4, dtype=float).reshape(1, 2, 4, 4)
    out = downsample(img, 2)
    np.testing.assert_array_equal(out, img[:, :, ::2, ::2])


@pytest.mark.parametrize("include_image", [False, True])
@pytest.mark.parametrize("kind", ["basic", "product", "scaling"])
def test_build_adv_pair_sides_are_adversary_inputs(kind, include_image):
    from advseg.networks import forward, init_params, receptive_field
    from advseg.training import TrainConfig, network_specs

    cfg = TrainConfig(num_classes=3, channels_base=4, n_context_layers=1,
                      adversary_fov="small", adversary_capacity="light",
                      encoding=EncodingKind(kind, include_image=include_image))
    seg, adv = network_specs(cfg)
    rng = np.random.default_rng(11)
    images = rng.uniform(size=(2, 3, 16, 16))
    labels = rng.integers(0, 3, size=(2, 16, 16))
    labels[0, 0, :] = VOID
    probs = forward(seg, init_params(seg, 0), Tensor(images))
    labels_ds = downsample(labels, receptive_field(seg)[2])
    gt, pred = build_adv_pair(images, labels_ds, probs, cfg.encoding)

    params = init_params(adv, 1)
    for side in (gt, pred):
        assert forward(adv, params, side).shape == (2, 1, 2, 2)
    if include_image:
        assert gt[1] is pred[1]
        gt, pred = gt[0], pred[0]
    assert gt.node is None and not gt.requires_grad
    assert pred.node is not None


@st.composite
def _maps_with_void(draw):
    """(N, C, H, W) probability maps, (N, H, W) labels holding VOID, and a
    tau. Some pixels, VOID ones among them, are degenerate: all their mass
    sits on their label (class 0 at VOID), so s_l = 1."""
    n, c = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = n * h * w
    labels = np.array(draw(st.lists(st.sampled_from([*range(c), VOID]),
                                    min_size=size, max_size=size))).reshape(n, h, w)
    labels[0, 0, 0] = VOID
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=size * c,
                                 max_size=size * c))).reshape(n, c, h, w)
    degenerate = np.array(draw(st.lists(st.booleans(), min_size=size,
                                        max_size=size))).reshape(n, 1, h, w)
    hot = np.eye(c)[np.where(labels == VOID, 0, labels)].transpose(0, 3, 1, 2)
    s = np.where(degenerate, hot, raw / raw.sum(axis=1, keepdims=True))
    return s, labels, draw(st.floats(0.55, 1.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_maps_with_void())
def test_ground_truth_maps_are_positive_zero_at_void(case):
    """``build_adv_pair`` leaves the ground-truth side unzeroed, and
    ``mce_loss`` takes the one-hot map as its own VOID mask, because both
    maps already hold +0.0, sign bit clear, in every channel at VOID;
    multiplying by the 0.0 of a void mask would change no bit."""
    s, labels, tau = case
    void = labels == VOID
    for out in (one_hot(labels, s.shape[1]), encode_scaling(s, labels, tau)):
        at_void = out.transpose(0, 2, 3, 1)[void]
        assert not at_void.any() and not np.signbit(at_void).any()


@pytest.mark.parametrize("include_image", [False, True])
@pytest.mark.parametrize("kind", ["basic", "product", "scaling"])
def test_build_adv_pair_matches_the_reference_bit_for_bit(kind, include_image):
    """Both sides and the predicted side's gradient equal, to the bit, those
    of the route that zeroes VOID on both sides (``oracles``)."""
    rng = np.random.default_rng(12)
    c = 3
    images = rng.uniform(size=(2, 3, 8, 8))
    labels = rng.integers(0, c, size=(2, 4, 4))
    labels[0, 0, :] = VOID
    labels[1, :, 1] = VOID
    raw = rng.uniform(0.05, 1.0, size=(2, c, 4, 4))
    probs = raw / raw.sum(axis=1, keepdims=True)
    probs[1, :, 2, 2] = (0.0, 1.0, 0.0)  # s_l = 1 at a labelled pixel
    labels[1, 2, 2] = 1
    enc = EncodingKind(kind, include_image=include_image)
    weights = rng.normal(size=(2, enc.channels(c), 4, 4))

    results = []
    for build in (build_adv_pair, adv_pair_reference):
        seg = Tensor(probs.copy(), requires_grad=True)
        gt, pred = build(images, labels, seg, enc)
        branch = None
        if include_image:
            (gt, branch), (pred, image) = gt, pred
            assert image is branch
            branch = branch.data.tobytes()
        assert gt.node is None and not gt.requires_grad
        backward(reduce_sum(mul(pred, Tensor(weights))))
        results.append((gt.data.tobytes(), pred.data.tobytes(), seg.grad.tobytes(),
                        branch))
    assert results[0] == results[1]
