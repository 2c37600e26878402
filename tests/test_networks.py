import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advseg.networks import (
    LayerSpec,
    NetSpec,
    build_adversary,
    build_segmenter,
    conv,
    detach_params,
    forward,
    init_params,
    load_params,
    param_shapes,
    receptive_field,
    save_params,
)
from advseg.tensor import ShapeError, Tensor, grad_check, mul, reduce_sum
from advseg.training import TrainConfig, network_specs

from oracles import affected_outputs


def _constant_positive_params(spec, seed=0):
    """Positive, per-channel-varying weights so no relu goes dead and no
    softmax shift cancellation hides a change."""
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed)
    for name, t in params.items():
        if name.endswith(".kernel"):
            fan_in = t.shape[1] * t.shape[2] * t.shape[3]
            t.data[...] = rng.uniform(0.5, 1.5, size=t.shape) / fan_in
        else:
            t.data[...] = 0.1
    return params


def test_segmenter_output_shape_and_distribution():
    spec = build_segmenter(4)
    params = init_params(spec, 1)
    x = Tensor(np.random.default_rng(0).uniform(size=(1, 3, 16, 16)))
    out = forward(spec, params, x)
    assert out.shape == (1, 4, 8, 8)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_segmenter_receptive_field():
    assert receptive_field(build_segmenter(4)) == (66, 66, 2)
    rf0 = receptive_field(build_segmenter(4, n_context_layers=0))[0]
    rf4 = receptive_field(build_segmenter(4, n_context_layers=4))[0]
    # four context convs at dilations 1,2,4,8 add 2*(1+2+4+8)=30 output units
    assert (rf4 - rf0) // 2 == 30


def test_adversary_fov_values():
    assert receptive_field(build_adversary(4, "large"))[:2] == (34, 34)
    assert receptive_field(build_adversary(4, "small"))[:2] == (18, 18)


def test_large_fov_exceeds_small():
    for cap in ("full", "light"):
        large = receptive_field(build_adversary(4, "large", cap))[0]
        small = receptive_field(build_adversary(4, "small", cap))[0]
        assert large > small


def test_light_has_fewer_params():
    def param_count(spec):
        return sum(int(np.prod(shape)) for shape in param_shapes(spec).values())

    for fov in ("large", "small"):
        assert (param_count(build_adversary(4, fov, "light"))
                < param_count(build_adversary(4, fov, "full")))


def test_two_branch_balanced_channels():
    spec = build_adversary(4, "large", two_branch=True)
    concat = [lay for lay in spec.layers if lay.kind == "concat_branches"][0]
    label_out = spec.layers[0].out_ch
    branch_out = [bl for bl in concat.branch if bl.kind == "conv"][-1].out_ch
    assert label_out == branch_out == 12
    assert spec.image_channels == 3


def test_adversary_grid_16x_smaller_than_segmenter_output():
    seg = build_segmenter(4)
    adv = build_adversary(4, "large")
    seg_params = init_params(seg, 0)
    adv_params = init_params(adv, 1)
    x = Tensor(np.random.default_rng(2).uniform(size=(1, 3, 32, 32)))
    probs = forward(seg, seg_params, x)
    grid = forward(adv, adv_params, probs)
    assert probs.shape == (1, 4, 16, 16)
    assert grid.shape == (1, 1, 4, 4)
    assert probs.shape[2] * probs.shape[3] == 16 * grid.shape[2] * grid.shape[3]
    assert np.all(grid.data > 0) and np.all(grid.data < 1)


def test_channel_walk_rejects_a_merge_without_image_channels():
    merge = LayerSpec("concat_branches", branch=(conv(2, 3),))
    spec = NetSpec("adversary", (conv(2, 3), merge, conv(1, 3)), 2)
    with pytest.raises(ShapeError, match="concat_branches in a single-input spec"):
        param_shapes(spec)
    with pytest.raises(ShapeError, match="concat_branches in a single-input spec"):
        forward(spec, {}, Tensor(np.zeros((1, 2, 4, 4))), start=2)


def test_receptive_field_examples():
    two_convs = NetSpec("segmenter", (conv(1, 3), conv(1, 3)), 1)
    assert receptive_field(two_convs)[:2] == (5, 5)
    dilated = NetSpec("segmenter", (conv(1, 3, dilation=2),), 1)
    assert receptive_field(dilated)[:2] == (5, 5)
    pointwise = NetSpec("segmenter", (conv(1, 1),), 1)
    assert receptive_field(pointwise) == (1, 1, 1)


def test_conv_spec_rejects_an_even_kernel():
    for k in (0, 2, 4):
        with pytest.raises(ValueError, match="must be odd"):
            conv(1, k)
    assert conv(1, 5, dilation=3) == LayerSpec("conv", 1, 5, 3)


def test_receptive_field_rejects_unknown_kind():
    spec = build_segmenter(2)
    bad = NetSpec("segmenter", spec.layers[:-1] + (LayerSpec("mystery"),), 3)
    with pytest.raises(ValueError):
        receptive_field(bad)


def _perturbation_box(spec, params, x_base, pixel, inputs_fn):
    base = forward(spec, params, inputs_fn(x_base)).data
    x_pert = x_base.copy()
    x_pert[0, :, pixel[0], pixel[1]] += 0.5
    pert = forward(spec, params, inputs_fn(x_pert)).data
    changed = np.argwhere(np.abs(pert - base) > 0)
    assert changed.size, "perturbation produced no change"
    return (changed[:, 2].min(), changed[:, 2].max(),
            changed[:, 3].min(), changed[:, 3].max()), base.shape


@pytest.mark.parametrize("builder,in_hw", [
    (lambda: build_segmenter(3, channels_base=6, n_context_layers=2), 16),
    (lambda: build_adversary(3, "large", "light"), 16),
    (lambda: build_adversary(3, "small", "light"), 16),
])
def test_perturbation_matches_analytic_rf(builder, in_hw):
    spec = builder()
    params = _constant_positive_params(spec)
    rng = np.random.default_rng(4)
    cin = spec.in_channels
    x = np.ones((1, cin, in_hw, in_hw))
    for pixel in [(in_hw // 2, in_hw // 2), (1, 2), (in_hw - 2, 3)]:
        box, out_shape = _perturbation_box(spec, params, x, pixel, lambda t: Tensor(t))
        ai, bi = affected_outputs(spec, pixel[0], out_shape[2])
        aj, bj = affected_outputs(spec, pixel[1], out_shape[3])
        assert box == (ai, bi, aj, bj)


def test_two_branch_perturbation_label_path():
    spec = build_adversary(3, "large", "light", two_branch=True)
    params = _constant_positive_params(spec)
    x = np.ones((1, 3, 16, 16))
    img = Tensor(np.ones((1, 3, 16, 16)))
    pixel = (8, 8)
    box, out_shape = _perturbation_box(spec, params, x, pixel,
                                       lambda t: (Tensor(t), img))
    ai, bi = affected_outputs(spec, pixel[0], out_shape[2])
    aj, bj = affected_outputs(spec, pixel[1], out_shape[3])
    assert box == (ai, bi, aj, bj)


def test_zero_input_zero_bias_gives_half_grid():
    spec = build_adversary(2, "large")
    params = init_params(spec, 5)
    x = Tensor(np.zeros((1, 2, 8, 8)))
    out = forward(spec, params, x)
    np.testing.assert_allclose(out.data, 0.5, atol=1e-15)


def test_forward_deterministic():
    spec = build_segmenter(3, channels_base=4, n_context_layers=1)
    params = init_params(spec, 6)
    x = Tensor(np.random.default_rng(7).uniform(size=(1, 3, 8, 8)))
    a = forward(spec, params, x).data
    b = forward(spec, params, x).data
    assert a.tobytes() == b.tobytes()


def test_init_params_seeded_and_bounded():
    spec = build_adversary(4, "small", two_branch=True)
    p1 = init_params(spec, 11)
    p2 = init_params(spec, 11)
    assert p1.keys() == p2.keys()
    for name in p1:
        assert p1[name].data.tobytes() == p2[name].data.tobytes()
        if name.endswith(".bias"):
            assert np.all(p1[name].data == 0.0)
        else:
            t = p1[name]
            fan_in = t.shape[1] * t.shape[2] * t.shape[3]
            fan_out = t.shape[0] * t.shape[2] * t.shape[3]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(t.data) <= bound)
    p3 = init_params(spec, 12)
    assert p1["L0.kernel"].data.tobytes() != p3["L0.kernel"].data.tobytes()


def test_end_to_end_grad_check_small_instance():
    from advseg.gradcheck import find_composition_instance

    seg, adv, seg_params, adv_params, x, _ = find_composition_instance()

    def f(_):
        probs = forward(seg, seg_params, x)
        grid = forward(adv, adv_params, probs)
        return reduce_sum(mul(grid, grid))

    for name in ("L0.kernel", "L0.bias", "L5.kernel"):
        assert grad_check(f, seg_params[name]) < 1e-4, name


_SPECS = st.one_of(
    st.builds(build_segmenter, st.integers(2, 5), channels_base=st.integers(1, 6),
              n_context_layers=st.integers(0, 3)),
    st.builds(build_adversary, st.integers(1, 6), st.sampled_from(["large", "small"]),
              st.sampled_from(["full", "light"]), st.booleans()),
)


@settings(max_examples=60, deadline=None)
@given(spec=_SPECS, seed=st.integers(0, 2**32 - 1))
def test_params_roundtrip(tmp_path_factory, spec, seed):
    params = init_params(spec, seed)
    path = tmp_path_factory.mktemp("ckpt") / "ckpt"
    save_params(params, path)
    back = load_params(path, spec)
    assert list(back.keys()) == list(params.keys())
    for name in params:
        assert back[name].shape == params[name].shape
        assert back[name].data.tobytes() == params[name].data.tobytes()
        assert back[name].requires_grad


def test_checkpoint_layout(tmp_path):
    spec = build_segmenter(2, channels_base=2, n_context_layers=1)
    params = init_params(spec, 0)
    path = tmp_path / "ckpt"
    save_params(params, path)
    index = b"".join(f"{name} {','.join(map(str, shape))}\n".encode()
                     for name, shape in param_shapes(spec).items())
    payload = b"".join(t.data.astype("<f8").tobytes() for t in params.values())
    assert path.read_bytes() == b"ADVSEG-PARAMS 2\n8\n" + index + payload


# param_shapes of every shipped network, names and shapes in order: the
# layout of its checkpoints, which the way conv input widths are derived
# must not move
SEGMENTER_LAYOUTS = {
    "default":
        "L0.kernel 16,3,3,3  L0.bias 16  L2.kernel 16,16,3,3  L2.bias 16  "
        "L5.kernel 16,16,3,3  L5.bias 16  L7.kernel 16,16,3,3  L7.bias 16  "
        "L9.kernel 16,16,3,3  L9.bias 16  L11.kernel 16,16,3,3  L11.bias 16  "
        "L13.kernel 4,16,1,1  L13.bias 4",
    (2, 3, 1):
        "L0.kernel 3,3,3,3  L0.bias 3  L2.kernel 3,3,3,3  L2.bias 3  "
        "L5.kernel 3,3,3,3  L5.bias 3  L7.kernel 2,3,1,1  L7.bias 2",
}
ADVERSARY_LAYOUTS = {
    (4, "large", "full", False):
        "L0.kernel 12,4,3,3  L0.bias 12  L2.kernel 16,12,3,3  L2.bias 16  "
        "L4.kernel 16,16,3,3  L4.bias 16  L7.kernel 32,16,3,3  L7.bias 32  "
        "L9.kernel 32,32,3,3  L9.bias 32  L12.kernel 64,32,3,3  L12.bias 64  "
        "L14.kernel 1,64,3,3  L14.bias 1",
    (4, "large", "full", True):
        "L0.kernel 12,4,3,3  L0.bias 12  B0.kernel 12,3,3,3  B0.bias 12  "
        "L3.kernel 16,24,3,3  L3.bias 16  L5.kernel 16,16,3,3  L5.bias 16  "
        "L8.kernel 32,16,3,3  L8.bias 32  L10.kernel 32,32,3,3  L10.bias 32  "
        "L13.kernel 64,32,3,3  L13.bias 64  L15.kernel 1,64,3,3  L15.bias 1",
    (4, "large", "light", False):
        "L0.kernel 6,4,3,3  L0.bias 6  L2.kernel 8,6,3,3  L2.bias 8  "
        "L4.kernel 8,8,3,3  L4.bias 8  L7.kernel 16,8,3,3  L7.bias 16  "
        "L9.kernel 16,16,3,3  L9.bias 16  L12.kernel 32,16,3,3  L12.bias 32  "
        "L14.kernel 1,32,3,3  L14.bias 1",
    (4, "large", "light", True):
        "L0.kernel 6,4,3,3  L0.bias 6  B0.kernel 6,3,3,3  B0.bias 6  "
        "L3.kernel 8,12,3,3  L3.bias 8  L5.kernel 8,8,3,3  L5.bias 8  "
        "L8.kernel 16,8,3,3  L8.bias 16  L10.kernel 16,16,3,3  L10.bias 16  "
        "L13.kernel 32,16,3,3  L13.bias 32  L15.kernel 1,32,3,3  L15.bias 1",
    (4, "small", "full", False):
        "L0.kernel 12,4,3,3  L0.bias 12  L2.kernel 16,12,1,1  L2.bias 16  "
        "L5.kernel 32,16,3,3  L5.bias 32  L7.kernel 32,32,1,1  L7.bias 32  "
        "L10.kernel 64,32,3,3  L10.bias 64  L12.kernel 1,64,1,1  L12.bias 1",
    (4, "small", "full", True):
        "L0.kernel 12,4,3,3  L0.bias 12  B0.kernel 12,3,3,3  B0.bias 12  "
        "L3.kernel 16,24,1,1  L3.bias 16  L6.kernel 32,16,3,3  L6.bias 32  "
        "L8.kernel 32,32,1,1  L8.bias 32  L11.kernel 64,32,3,3  L11.bias 64  "
        "L13.kernel 1,64,1,1  L13.bias 1",
    (4, "small", "light", False):
        "L0.kernel 6,4,3,3  L0.bias 6  L2.kernel 8,6,1,1  L2.bias 8  "
        "L5.kernel 16,8,3,3  L5.bias 16  L7.kernel 16,16,1,1  L7.bias 16  "
        "L10.kernel 32,16,3,3  L10.bias 32  L12.kernel 1,32,1,1  L12.bias 1",
    (4, "small", "light", True):
        "L0.kernel 6,4,3,3  L0.bias 6  B0.kernel 6,3,3,3  B0.bias 6  "
        "L3.kernel 8,12,1,1  L3.bias 8  L6.kernel 16,8,3,3  L6.bias 16  "
        "L8.kernel 16,16,1,1  L8.bias 16  L11.kernel 32,16,3,3  L11.bias 32  "
        "L13.kernel 1,32,1,1  L13.bias 1",
    (12, "large", "full", False):
        "L0.kernel 12,12,3,3  L0.bias 12  L2.kernel 16,12,3,3  L2.bias 16  "
        "L4.kernel 16,16,3,3  L4.bias 16  L7.kernel 32,16,3,3  L7.bias 32  "
        "L9.kernel 32,32,3,3  L9.bias 32  L12.kernel 64,32,3,3  L12.bias 64  "
        "L14.kernel 1,64,3,3  L14.bias 1",
    (12, "large", "full", True):
        "L0.kernel 12,12,3,3  L0.bias 12  B0.kernel 12,3,3,3  B0.bias 12  "
        "L3.kernel 16,24,3,3  L3.bias 16  L5.kernel 16,16,3,3  L5.bias 16  "
        "L8.kernel 32,16,3,3  L8.bias 32  L10.kernel 32,32,3,3  L10.bias 32  "
        "L13.kernel 64,32,3,3  L13.bias 64  L15.kernel 1,64,3,3  L15.bias 1",
    (12, "large", "light", False):
        "L0.kernel 6,12,3,3  L0.bias 6  L2.kernel 8,6,3,3  L2.bias 8  "
        "L4.kernel 8,8,3,3  L4.bias 8  L7.kernel 16,8,3,3  L7.bias 16  "
        "L9.kernel 16,16,3,3  L9.bias 16  L12.kernel 32,16,3,3  L12.bias 32  "
        "L14.kernel 1,32,3,3  L14.bias 1",
    (12, "large", "light", True):
        "L0.kernel 6,12,3,3  L0.bias 6  B0.kernel 6,3,3,3  B0.bias 6  "
        "L3.kernel 8,12,3,3  L3.bias 8  L5.kernel 8,8,3,3  L5.bias 8  "
        "L8.kernel 16,8,3,3  L8.bias 16  L10.kernel 16,16,3,3  L10.bias 16  "
        "L13.kernel 32,16,3,3  L13.bias 32  L15.kernel 1,32,3,3  L15.bias 1",
    (12, "small", "full", False):
        "L0.kernel 12,12,3,3  L0.bias 12  L2.kernel 16,12,1,1  L2.bias 16  "
        "L5.kernel 32,16,3,3  L5.bias 32  L7.kernel 32,32,1,1  L7.bias 32  "
        "L10.kernel 64,32,3,3  L10.bias 64  L12.kernel 1,64,1,1  L12.bias 1",
    (12, "small", "full", True):
        "L0.kernel 12,12,3,3  L0.bias 12  B0.kernel 12,3,3,3  B0.bias 12  "
        "L3.kernel 16,24,1,1  L3.bias 16  L6.kernel 32,16,3,3  L6.bias 32  "
        "L8.kernel 32,32,1,1  L8.bias 32  L11.kernel 64,32,3,3  L11.bias 64  "
        "L13.kernel 1,64,1,1  L13.bias 1",
    (12, "small", "light", False):
        "L0.kernel 6,12,3,3  L0.bias 6  L2.kernel 8,6,1,1  L2.bias 8  "
        "L5.kernel 16,8,3,3  L5.bias 16  L7.kernel 16,16,1,1  L7.bias 16  "
        "L10.kernel 32,16,3,3  L10.bias 32  L12.kernel 1,32,1,1  L12.bias 1",
    (12, "small", "light", True):
        "L0.kernel 6,12,3,3  L0.bias 6  B0.kernel 6,3,3,3  B0.bias 6  "
        "L3.kernel 8,12,1,1  L3.bias 8  L6.kernel 16,8,3,3  L6.bias 16  "
        "L8.kernel 16,16,1,1  L8.bias 16  L11.kernel 32,16,3,3  L11.bias 32  "
        "L13.kernel 1,32,1,1  L13.bias 1",
}


def _layout(spec):
    return "  ".join(f"{name} {','.join(map(str, shape))}"
                     for name, shape in param_shapes(spec).items())


def test_parameter_layouts_are_pinned():
    cases = [(key, network_specs(TrainConfig())[0] if key == "default"
              else build_segmenter(*key), want)
             for key, want in SEGMENTER_LAYOUTS.items()]
    cases += [(key, build_adversary(*key), want) for key, want in ADVERSARY_LAYOUTS.items()]
    moved = [key for key, spec, want in cases if _layout(spec) != want]
    assert not moved, f"parameter layouts moved: {moved}"


def test_load_params_rejects_every_truncation(tmp_path):
    spec = build_segmenter(2, channels_base=2, n_context_layers=1)
    path = tmp_path / "ckpt"
    save_params(init_params(spec, 0), path)
    raw = path.read_bytes()
    assert load_params(path, spec).keys() == param_shapes(spec).keys()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            load_params(path, spec)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.replace(b"ADVSEG-PARAMS 2", b"ADVSEG-PARAMS 1", 1), "header"),
    (lambda raw: raw.replace(b"\n8\n", b"\nx\n", 1), "index"),
    (lambda raw: raw.replace(b"\n8\n", b"\n9\n", 1), "index line 9"),
    (lambda raw: raw.replace(b"L0.bias 2", b"L0.bias 2,x", 1), "index line"),
    (lambda raw: raw.replace(b"L7.bias ", b"L0.bias ", 1), "twice"),
    (lambda raw: raw + b"\0", "payload"),
])
def test_load_params_rejects_corrupt_files(tmp_path, edit, message):
    spec = build_segmenter(2, channels_base=2, n_context_layers=1)
    path = tmp_path / "ckpt"
    save_params(init_params(spec, 0), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_params(path, spec)


def test_load_params_checks_shapes_against_spec(tmp_path):
    spec = build_segmenter(2, channels_base=2, n_context_layers=1)
    path = tmp_path / "ckpt"
    save_params(init_params(build_segmenter(3, channels_base=2, n_context_layers=1), 0),
                path)
    with pytest.raises(ValueError, match=r"L7.kernel: shape \(3, 2, 1, 1\)"):
        load_params(path, spec)
    params = init_params(spec, 0)
    del params["L7.bias"]
    save_params(params, path)
    with pytest.raises(ValueError, match="L7.bias: shape missing"):
        load_params(path, spec)


def test_load_params_rejects_a_reshaped_tensor_of_the_same_size(tmp_path):
    # the payload length alone cannot tell (2, 2, 1, 1) from (4, 1, 1, 1):
    # the index's shapes do
    spec = build_segmenter(2, channels_base=2, n_context_layers=1)
    params = init_params(spec, 0)
    params["L7.kernel"] = Tensor(params["L7.kernel"].data.reshape(4, 1, 1, 1))
    path = tmp_path / "ckpt"
    save_params(params, path)
    with pytest.raises(ValueError, match=r"L7.kernel: shape \(4, 1, 1, 1\) in the "
                                         r"checkpoint, \(2, 2, 1, 1\) in the segmenter"):
        load_params(path, spec)


def test_forward_shape_errors():
    spec = build_segmenter(2)
    params = init_params(spec, 0)
    with pytest.raises(ShapeError):
        forward(spec, params, Tensor(np.zeros((1, 4, 8, 8))))
    two = build_adversary(2, "small", two_branch=True)
    with pytest.raises(ShapeError):
        forward(two, init_params(two, 0), Tensor(np.zeros((1, 2, 8, 8))))


@pytest.mark.parametrize("spec", [
    build_segmenter(3, channels_base=4, n_context_layers=2),
    build_adversary(2, "small", "light", two_branch=True),
])
def test_forward_from_a_layer_equals_the_whole_pass(spec):
    params = init_params(spec, 3)
    rng = np.random.default_rng(4)
    image = Tensor(rng.uniform(size=(2, 3, 8, 8)))
    inputs = (Tensor(rng.uniform(size=(2, 2, 8, 8))), image) \
        if spec.image_channels else image
    trace = []
    whole = forward(spec, params, inputs, trace=trace)
    # the trace holds the input of every layer but the merge, and the image
    # branch's layer inputs just before it
    branch = [bl for lay in spec.layers for bl in lay.branch]
    starts = [k for k, lay in enumerate(spec.layers) if lay.kind != "concat_branches"]
    label_inputs = [t for lay, t in trace if not any(lay is bl for bl in branch)]
    assert len(label_inputs) == len(starts)
    for k, x in zip(starts, label_inputs):
        x = (x.detach(), image) if spec.image_channels else x.detach()
        out = forward(spec, params, x, start=k)
        assert out.data.tobytes() == whole.data.tobytes(), k


def test_forward_from_a_layer_checks_its_input():
    spec = build_segmenter(2, channels_base=4, n_context_layers=1)
    params = init_params(spec, 0)
    with pytest.raises(ShapeError, match="at layer 5"):
        forward(spec, params, Tensor(np.zeros((1, 3, 8, 8))), start=5)
    forward(spec, params, Tensor(np.zeros((1, 4, 8, 8))), start=5)


def test_detach_params_share_data_and_build_no_graph():
    spec = build_segmenter(3, channels_base=4, n_context_layers=1)
    params = init_params(spec, 0)
    detached = detach_params(params)
    assert detached.keys() == params.keys()
    for name, t in detached.items():
        assert t.data is params[name].data  # a view, no copy
        assert not t.requires_grad and t.node is None
    x = Tensor(np.random.default_rng(1).standard_normal((1, 3, 16, 16)))
    out = forward(spec, detached, x)
    assert out.node is None and not out.requires_grad
    np.testing.assert_array_equal(out.data, forward(spec, params, x).data)
    assert all(t.requires_grad and t.grad is None for t in params.values())
