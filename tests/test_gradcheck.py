import numpy as np
import pytest

import advseg.gradcheck as G
import advseg.tensor as T
from advseg.encodings import EncodingKind, build_adv_pair
from advseg.losses import ObjectiveConfig, adversary_objective, segmenter_objective
from advseg.networks import forward
from advseg.tensor import backward, grad_check


def _whole_composition_losses(instance):
    """Per player, a loss that runs the whole composition from the inputs on
    every call, as the end-to-end cases did before they started at the
    parameter's layer."""
    seg, adv, seg_params, adv_params, x, labels = instance
    cfg = ObjectiveConfig(lam=1.0, modified_update=True)
    target = np.stack([labels == 0, labels == 1], axis=1).astype(np.float64)
    mask = np.ones((1, 4, 4))
    basic = EncodingKind("basic")

    def seg_loss(_):
        probs = forward(seg, seg_params, x)
        _, pred = build_adv_pair(None, labels, probs, basic)
        grid = forward(adv, adv_params, pred.channels)
        return segmenter_objective(probs, target, mask, grid, cfg)

    probs_const = forward(seg, seg_params, x).detach()

    def adv_loss(_):
        gt, pred = build_adv_pair(None, labels, probs_const, basic)
        return adversary_objective(forward(adv, adv_params, gt.channels),
                                   forward(adv, adv_params, pred.channels))

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
        ref = whole[name[len("end_to_end_"):][:3]]
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
