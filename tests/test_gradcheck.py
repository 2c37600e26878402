import numpy as np
import pytest

import advseg.gradcheck as G
import advseg.networks as N
import advseg.tensor as T
from advseg.encodings import EncodingKind, build_adv_pair
from advseg.losses import adversary_objective, segmenter_objective
from advseg.networks import forward
from advseg.tensor import backward, grad_check


def _whole_composition_losses(instance):
    """Per player, the loss of the end-to-end case of one parameter, running
    the whole composition from the inputs on every call, as the end-to-end
    cases did before they started at the parameter's layer. As in the
    cases, every other parameter is detached, so each op's rule is asked
    for the gradients of the same operands."""
    seg, adv, seg_params, adv_params, x, labels = instance
    target = np.stack([labels == 0, labels == 1], axis=1).astype(np.float64)
    basic = EncodingKind("basic")
    seg_fixed, adv_fixed = N.detach_params(seg_params), N.detach_params(adv_params)

    def seg_loss(name):
        params = {**seg_fixed, name: seg_params[name]}

        def f(_):
            probs = forward(seg, params, x)
            _, pred = build_adv_pair(None, labels, probs, basic)
            grid = forward(adv, adv_fixed, pred)
            return segmenter_objective(probs, target, grid, 1.0, True)
        return f

    probs_const = forward(seg, seg_params, x).detach()

    def adv_loss(name):
        params = {**adv_fixed, name: adv_params[name]}

        def f(_):
            gt, pred = build_adv_pair(None, labels, probs_const, basic)
            return adversary_objective(forward(adv, params, gt),
                                       forward(adv, params, pred))
        return f

    return {"seg": seg_loss, "adv": adv_loss}


def _grad(f, p):
    p.grad = None
    backward(f(p))
    return p.grad.copy()


def test_composition_closures_equal_the_whole_composition(monkeypatch):
    # the suite's closures start at the perturbed parameter's layer; their
    # values at and around the unperturbed point, and the parameter's
    # gradient, must be those of the whole composition bit for bit
    instance = G.find_composition_instance()
    monkeypatch.setattr(G, "find_composition_instance", lambda: instance)
    whole = _whole_composition_losses(instance)
    cases = list(G._composition_cases())
    assert len(cases) == len(instance[2]) + len(instance[3])
    h = 1e-5
    for name, p, f in cases:
        player, param = name[len("end_to_end_"):-1].split("[")
        ref = whole[player](param)
        assert f(p).item() == ref(p).item(), name
        flat = p.data.reshape(-1)
        for i in sorted({0, flat.size // 2, flat.size - 1}):
            orig = flat[i]
            for step in (h, -h):
                flat[i] = orig + step
                assert f(p).item() == ref(p).item(), (name, i, step)
            flat[i] = orig
        np.testing.assert_array_equal(_grad(f, p), _grad(ref, p), err_msg=name)


def test_grad_check_builds_graph_nodes_in_its_analytic_pass_only(monkeypatch):
    (_, x, f), = [case for case in G._composition_cases()
                  if case[0] == "end_to_end_adv[L12.kernel]"]
    assert x.size > 1
    built = []

    class CountedNode(T.GraphNode):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(T, "GraphNode", CountedNode)
    f(x)
    one_forward = len(built)
    assert one_forward > 0
    built.clear()
    err = grad_check(f, x)
    # one forward's worth of nodes, not 2 * x.size + 1 times that
    assert len(built) == one_forward
    assert err < G.TOLERANCE
    assert x.requires_grad

    seen = []

    def fails_on_the_fourth_call(t):
        seen.append(t.requires_grad)
        if len(seen) == 4:
            raise RuntimeError("stop")
        return f(t)

    before = x.data.copy()
    with pytest.raises(RuntimeError, match="stop"):
        grad_check(fails_on_the_fourth_call, x)
    assert seen == [True, False, False, False]
    assert x.requires_grad
    # the fourth call saw x's second element perturbed; it is put back
    assert x.data.tobytes() == before.tobytes()


def test_kink_margin_search_covers_the_ground_truth_pass(monkeypatch):
    # the instance's margin is 1.19e-3 on the ground-truth pass and 3.30e-3
    # on the predicted one; a search that traced the predicted pass only
    # would accept it at 1.5e-3
    assert G.find_composition_instance(max_tries=6) is not None
    monkeypatch.setattr(G, "KINK_MARGIN", 1.5e-3)
    with pytest.raises(RuntimeError, match="no kink-free"):
        G.find_composition_instance(max_tries=6)


def _adversary_cases():
    return [case for case in G._composition_cases()
            if case[0].startswith("end_to_end_adv")]


def test_each_adversary_function_value_runs_the_adversary_once(monkeypatch):
    cases = _adversary_cases()
    real = N.forward
    adv_calls = []

    def counted(spec, *args, **kwargs):
        if spec.role == "adversary":
            adv_calls.append(kwargs.get("start", 0))
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(N, "forward", counted)
    for name, p, f in cases:
        adv_calls.clear()
        f(p)
        assert len(adv_calls) == 1, name
        assert adv_calls[0] == G._layer_of(name[len("end_to_end_adv["):-1]), name

    (_, p, f), = [case for case in cases if case[0] == "end_to_end_adv[L5.bias]"]
    values = []
    adv_calls.clear()
    assert grad_check(lambda t: values.append(t) or f(t), p) < G.TOLERANCE
    assert len(values) == 2 * p.size + 1 == len(adv_calls)


def test_slice_batch_case_and_negative_control():
    (x, f), = [(x, f) for name, x, f in G._structure_cases() if name == "slice_batch"]
    assert grad_check(f, x) < G.TOLERANCE
    cases = _adversary_cases()
    with T.overridden_backward("slice_batch"):
        assert grad_check(f, x) > G.TOLERANCE
        for name, p, loss in cases:
            assert grad_check(loss, p) > G.TOLERANCE, name


def _cases_recording(op_kind, monkeypatch):
    """Names of the suite's cases whose analytic pass builds an ``op_kind``
    node, seen as the nodes are built."""
    built = []

    class RecordedNode(T.GraphNode):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    names = []
    with monkeypatch.context() as m:
        m.setattr(T, "GraphNode", RecordedNode)
        for name, x, f in G.iter_cases():
            built.clear()
            was = x.requires_grad
            x.requires_grad = True
            f(x)
            x.requires_grad = was
            if op_kind in built:
                names.append(name)
    return names


def _failed(results):
    return [name for name, err in results if not err < G.TOLERANCE]


def test_corrupt_mul_fails_every_case_that_records_a_mul(monkeypatch):
    # every case squares its output or goes through a loss, and the losses
    # negate by multiplying with -1, so every case records a mul
    recording = _cases_recording("mul", monkeypatch)
    assert recording == [name for name, _, _ in G.iter_cases()]
    assert len(recording) == 52
    assert sum(name.startswith("end_to_end_seg[") for name in recording) == 8
    assert sum(name.startswith("end_to_end_adv[") for name in recording) == 12
    assert _failed(G.run_suite(corrupt_op="mul")) == recording


def test_corrupt_relu_fails_every_case_that_records_a_relu(monkeypatch):
    recording = _cases_recording("relu", monkeypatch)
    assert len(recording) == 19
    assert sum(name.startswith("end_to_end_seg[") for name in recording) == 8
    assert sum(name.startswith("end_to_end_adv[") for name in recording) == 10
    assert _failed(G.run_suite(corrupt_op="relu")) == recording


def test_corrupt_conv2d_fails_every_conv_case_and_every_end_to_end_case(monkeypatch):
    recording = _cases_recording("conv2d", monkeypatch)
    names = [name for name, _, _ in G.iter_cases()]
    assert len(names) == 52
    assert recording == [name for name in names
                         if name.startswith(("conv2d", "end_to_end_"))]
    assert len(recording) == 26
    assert _failed(G.run_suite(corrupt_op="conv2d")) == recording


def test_override_map_is_restored_when_the_block_exits():
    assert T._GRAD_OVERRIDES == {}
    x = T.Tensor([2.0, 3.0])

    def grad_of_square():
        x.grad = None
        backward(T.reduce_sum(T.mul(x, x)))
        return x.grad.tolist()

    x.requires_grad = True
    with T.overridden_backward("mul"):
        assert grad_of_square() == [6.0, 9.0]
        with T.overridden_backward("mul", lambda grads: grads):
            assert grad_of_square() == [4.0, 6.0]
        assert grad_of_square() == [6.0, 9.0]
    assert T._GRAD_OVERRIDES == {}
    with pytest.raises(RuntimeError, match="inside"):
        with T.overridden_backward("sum"):
            raise RuntimeError("inside")
    assert T._GRAD_OVERRIDES == {}
    assert grad_of_square() == [4.0, 6.0]

