import itertools

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from advseg.gradcheck import TOLERANCE
from advseg.layers import relu, sigmoid
from advseg.losses import PROB_EPS
from advseg.tensor import (
    GraphError,
    ShapeError,
    Tensor,
    add,
    backward,
    clamp,
    concat_channels,
    grad_check,
    graph_order,
    log,
    mul,
    overridden_backward,
    reduce_mean,
    reduce_sum,
    slice_batch,
    slice_channels,
)


def test_scalar_scaling():
    out = mul(Tensor([1.0, 2.0, 3.0]), 2.0)
    np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])


def test_additive_inverse():
    x = Tensor([[1.0, -2.0], [0.5, 7.0]])
    out = add(x, mul(x, -1.0))
    np.testing.assert_array_equal(out.data, np.zeros((2, 2)))


def test_log_gradient_matches_finite_difference():
    err = grad_check(lambda t: reduce_sum(log(t)), Tensor([0.5]), h=1e-6)
    assert err < 1e-6
    x = Tensor([0.5], requires_grad=True)
    backward(reduce_sum(log(x)))
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, [2.0], rtol=1e-12)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_log_domain_error():
    with pytest.raises(ValueError):
        log(Tensor([1.0, 0.0]))


def test_reduce_examples():
    assert reduce_sum(Tensor(np.ones((2, 2)))).item() == 4.0
    assert reduce_mean(Tensor([1.0, 3.0])).item() == 2.0
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    backward(reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_reduce_axis_out_of_range():
    with pytest.raises(ShapeError):
        reduce_sum(Tensor(np.ones((2, 2))), axes=(2,))


def test_concat_channels():
    a = Tensor(np.full((3, 4, 4), 1.0), requires_grad=True)
    b = Tensor(np.full((3, 4, 4), 2.0), requires_grad=True)
    out = concat_channels([a, b])
    assert out.shape == (6, 4, 4)
    backward(reduce_sum(out))
    np.testing.assert_array_equal(a.grad, np.ones((3, 4, 4)))
    np.testing.assert_array_equal(b.grad, np.ones((3, 4, 4)))


def test_concat_spatial_mismatch():
    with pytest.raises(ShapeError):
        concat_channels([Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 4, 5)))])


def test_slice_channels_roundtrip():
    x = Tensor(np.arange(24.0).reshape(2, 3, 2, 2), requires_grad=True)
    mid = slice_channels(x, 1, 2)
    np.testing.assert_array_equal(mid.data, x.data[:, 1:2])
    backward(reduce_sum(mid))
    expect = np.zeros((2, 3, 2, 2))
    expect[:, 1:2] = 1.0
    np.testing.assert_array_equal(x.grad, expect)


def test_slice_batch_halves_and_zero_filled_gradient():
    x = Tensor(np.arange(24.0).reshape(2, 3, 2, 2), requires_grad=True)
    first, second = slice_batch(x, 0, 1), slice_batch(x, 1, 2)
    assert first.node.op_kind == "slice_batch"
    np.testing.assert_array_equal(first.data, x.data[:1])
    np.testing.assert_array_equal(second.data, x.data[1:])
    backward(reduce_sum(mul(second, 2.0)))
    expect = np.zeros((2, 3, 2, 2))
    expect[1] = 2.0
    np.testing.assert_array_equal(x.grad, expect)
    for bad in ((1, 1), (0, 3), (-1, 1)):
        with pytest.raises(ShapeError):
            slice_batch(x, *bad)


def test_backward_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(reduce_sum(mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_constant_wrt_leaf():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    backward(reduce_sum(mul(x, x)))
    assert y.grad is None


def test_backward_nonscalar_root_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        backward(add(x, 1.0))


def test_backward_accumulates_and_resets():
    x = Tensor([1.0, 2.0], requires_grad=True)

    def run():
        backward(reduce_sum(mul(x, x)))

    run()
    first = x.grad.copy()
    run()
    np.testing.assert_array_equal(x.grad, 2 * first)
    x.zero_grad()
    run()
    np.testing.assert_array_equal(x.grad, first)


def test_mul_rule_returns_no_gradient_for_a_constant():
    x, c = Tensor([1.0, -2.0], requires_grad=True), Tensor([3.0, 4.0])
    g = np.array([0.5, 2.0])
    gx, gc = mul(x, c).node.backward_fn(g)
    np.testing.assert_array_equal(gx, [1.5, 8.0])
    assert gc is None
    gc, gx = mul(c, x).node.backward_fn(g)
    np.testing.assert_array_equal(gx, [1.5, 8.0])
    assert gc is None


def test_backward_twice_on_one_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    root = reduce_sum(mul(x, x))
    backward(root)
    with pytest.raises(GraphError, match="consumed") as err:
        backward(root)
    assert "\n" not in str(err.value)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_on_a_new_graph_that_reaches_a_consumed_node_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    square = mul(x, x)
    backward(reduce_sum(square))
    with pytest.raises(GraphError, match="mul node .* consumed"):
        backward(reduce_sum(add(mul(x, 3.0), square)))
    # nothing of the new graph reached the leaf before the check
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_drops_every_rule_and_input_link():
    x = Tensor([1.0, 2.0], requires_grad=True)
    shared = mul(x, x)
    root = reduce_sum(add(log(add(shared, 1.0)), mul(shared, Tensor([2.0, 3.0]))))
    nodes = [t.node for t in graph_order(root) if t.node is not None]
    assert len(nodes) == 6
    # the root add passes no gradient to its second operand, so the rule of
    # that mul node never runs: it is dropped all the same
    with overridden_backward("add", lambda grads: grads[:1] + (None,) * (len(grads) - 1)):
        backward(root)
    assert all(n.backward_fn is None and not n.inputs for n in nodes)
    np.testing.assert_array_equal(x.grad, 1.0 / (x.data * x.data + 1.0) * (2.0 * x.data))


def test_composed_graph_matches_finite_differences():
    rng = np.random.default_rng(7)

    def f(t):
        a = mul(t, t)
        b = sigmoid(mul(clamp(t, -1.5, 1.5), -1.0))
        c = mul(a, log(add(b, 1.0)))
        return reduce_sum(mul(c, c))

    for _ in range(5):
        x = Tensor(rng.uniform(-1.2, 1.2, size=(3, 2)))
        assert grad_check(f, x) < 1e-4


def test_grad_check_linear_exact():
    x = Tensor(np.random.default_rng(1).normal(size=(4,)))
    assert grad_check(reduce_sum, x) < 1e-9


def test_grad_check_sigmoid_like():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(5,)))

    def f(t):
        return reduce_sum(log(sigmoid(t)))

    assert grad_check(f, x) < 1e-4


def test_grad_check_clamp_away_from_boundary():
    rng = np.random.default_rng(4)
    vals = rng.uniform(-2.0, 2.0, size=(6,))
    vals = vals[np.abs(np.abs(vals) - 1.0) > 1e-3][:4]

    def f(t):
        return reduce_sum(mul(clamp(t, -1.0, 1.0), t))

    assert grad_check(f, Tensor(vals)) < 1e-4


def test_grad_check_rejects_nonscalar():
    with pytest.raises(GraphError):
        grad_check(lambda t: add(t, 1.0), Tensor([1.0, 2.0]))


def test_direct_elementwise_and_reduce_ops():
    x = Tensor([1.0, 2.0])
    np.testing.assert_array_equal(add(x, 1.0).data, [2.0, 3.0])
    np.testing.assert_array_equal(mul(x, -1.0).data, [-1.0, -2.0])
    np.testing.assert_array_equal(clamp(x, 0.0, 1.5).data, [1.0, 1.5])
    assert reduce_mean(x).item() == 1.5


# signed zeros, infinities, NaN, the clamp bounds used in the package and
# the sigmoid clip at +-30, each exactly
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, PROB_EPS, 1.0 - PROB_EPS, 2.5,
         -30.0, 30.0, np.nextafter(30.0, 31.0), np.nextafter(-30.0, -31.0)]


def test_rewritten_primitives_match_numpy_bit_for_bit():
    # clamp and sigmoid clip through np.minimum/np.maximum, and the reductions
    # call np.add.reduce: each must give the bits of the numpy formulation
    # written here, on ties with the bounds and at lengths that leave
    # vector loops different tails; relu and clamp, on an operand that
    # needs no gradient, give a result without a graph
    rng = np.random.default_rng(17)
    for n in (0, 1, 3, 8, 17, 1000):
        x = rng.permutation(np.concatenate([EDGES, rng.normal(scale=20.0, size=n)]))
        for lo, hi in ((0.0, 2.5), (-0.0, 0.0), (0.0, -0.0), (2.5, 2.5),
                       (PROB_EPS, 1.0 - PROB_EPS), (-30.0, 30.0)):
            out = clamp(Tensor(x), lo, hi)
            assert out.node is None
            assert out.data.tobytes() == np.clip(x, lo, hi).tobytes(), (n, lo, hi)
        out = relu(Tensor(x))
        assert out.node is None
        assert out.data.tobytes() == np.maximum(x, 0.0).tobytes(), n
        z = np.clip(x, -30.0, 30.0)
        assert sigmoid(Tensor(x)).data.tobytes() == \
            (1.0 / (1.0 + np.exp(-z))).tobytes(), n
    a = rng.normal(size=(2, 3, 4, 5))
    a.reshape(-1)[:len(EDGES)] = EDGES
    with np.errstate(invalid="ignore"):  # inf - inf
        for arr in (a, a[:, :, :1, :1], np.array(-0.0), np.array(2.5)):
            for r in range(arr.ndim + 1):
                for axes in itertools.combinations(range(arr.ndim), r):
                    t = Tensor(arr)
                    assert reduce_sum(t, axes).data.tobytes() == \
                        arr.sum(axis=axes).tobytes(), (arr.shape, axes)
                    assert reduce_mean(t, axes).data.tobytes() == \
                        arr.mean(axis=axes).tobytes(), (arr.shape, axes)
            assert reduce_sum(Tensor(arr)).data.tobytes() == arr.sum().tobytes()
            assert reduce_mean(Tensor(arr)).data.tobytes() == arr.mean().tobytes()


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    y = mul(x.detach(), 3.0)
    assert not y.requires_grad
    z = add(mul(x, 1.0), y)
    backward(reduce_sum(z))
    np.testing.assert_array_equal(x.grad, [1.0])


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = reduce_sum(mul(log(add(sigmoid(mul(x, 0.5)), 1.0)), x))
        backward(y)
        return y.data.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1.tobytes() == v2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------------------
# engine property: random expression graphs against finite differences

# leaf, constant and scalar values: the nonzero multiples of 1/8 in [-2, 2]
_GRID = [k / 8 for k in range(-16, 17) if k]
_BINARY = {"add": add, "mul": mul}
_BOUND = 16.0  # no value of a drawn graph exceeds this in magnitude
_MAX_STEPS = 8
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)  # one per step


def _apply(step, vals):
    """The value of one program step over the values before it."""
    kind, args = step[0], step[1:]
    if kind == "const":
        return Tensor(args[0].copy())  # never an alias of a checked leaf
    if kind in _BINARY:
        i, j = args
        return _BINARY[kind](vals[i], j if isinstance(j, float) else vals[j])
    if kind == "concat":
        return concat_channels([vals[i] for i in args[0]])
    i = args[0]
    if kind == "log":
        return log(vals[i])
    if kind == "clamp":
        return clamp(vals[i], *args[1:])
    if kind == "slice":
        return slice_channels(vals[i], *args[1:])
    return (reduce_sum if kind == "sum" else reduce_mean)(vals[i], args[1])


def _evaluate(leaves, steps):
    """A weighted sum of every step's output, each reduced to a scalar, so
    that every op output feeds at least one more op. The weights are square
    roots of distinct primes, which no rational combination cancels, so no
    leaf's gradient cancels to zero through the sum while rounding leaves
    the central differences a little noise."""
    vals = list(leaves)
    for step in steps:
        vals.append(_apply(step, vals))
    outs = vals[len(leaves):]
    terms = [mul(reduce_sum(v), float(np.sqrt(p))) for v, p in zip(outs, _PRIMES)]
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return total


def _cuts(v):
    """Clamp bounds at least 1/32 from every value of ``v``: below, between
    and above them."""
    u = np.unique(v)
    mids = [(a + b) / 2 for a, b in zip(u[:-1], u[1:]) if b - a > 1 / 16]
    return [float(u[0]) - 1.0] + mids + [float(u[-1]) + 1.0]


@st.composite
def _programs(draw):
    """(leaves, steps) with steps over the leaves, constants and earlier
    outputs. Operands are drawn independently, so one op may take the same
    tensor twice and a leaf or an output may feed several ops; ``log`` only
    takes values >= 1/4, ``clamp`` bounds keep clear of the values, and no
    value exceeds ``_BOUND``."""
    def grid_array(shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(st.sampled_from(_GRID), min_size=n, max_size=n)),
                        dtype=np.float64).reshape(shape)

    leaves = [grid_array((draw(st.integers(1, 3)), 2, 2))
              for _ in range(draw(st.integers(1, 3)))]
    vals = [Tensor(a) for a in leaves]
    steps = []
    for _ in range(draw(st.integers(1, _MAX_STEPS))):
        kind = draw(st.sampled_from(
            ["const", "add", "mul", "log", "clamp", "sum", "mean", "concat", "slice"]))
        idx = range(len(vals))
        chans = [i for i in idx if vals[i].ndim == 3]
        step = None
        if kind == "const":
            step = ("const", grid_array((draw(st.integers(1, 3)), 2, 2)))
        elif kind in _BINARY:
            i = draw(st.sampled_from(idx))
            if draw(st.booleans()):
                step = (kind, i, draw(st.sampled_from(_GRID)))
            else:
                step = (kind, i, draw(st.sampled_from(
                    [j for j in idx if vals[j].shape == vals[i].shape])))
        elif kind == "log":
            ok = [i for i in idx if vals[i].data.min() >= 0.25]
            if ok:
                step = ("log", draw(st.sampled_from(ok)))
        elif kind == "clamp":
            i = draw(st.sampled_from(idx))
            cuts = _cuts(vals[i].data)
            lo = draw(st.integers(0, len(cuts) - 1))
            step = ("clamp", i, cuts[lo], cuts[draw(st.integers(lo, len(cuts) - 1))])
        elif kind in ("sum", "mean"):
            i = draw(st.sampled_from(idx))
            axes = (draw(st.one_of(st.none(), st.sets(st.integers(0, vals[i].ndim - 1))))
                    if vals[i].ndim else None)
            step = (kind, i, None if axes is None else tuple(axes))
        elif kind == "concat" and chans:
            parts = draw(st.lists(st.sampled_from(chans), min_size=1, max_size=3))
            if sum(vals[i].shape[0] for i in parts) <= 6:
                step = ("concat", tuple(parts))
        elif kind == "slice" and chans:
            i = draw(st.sampled_from(chans))
            start = draw(st.integers(0, vals[i].shape[0] - 1))
            step = ("slice", i, start, draw(st.integers(start + 1, vals[i].shape[0])))
        if step is None:
            continue
        out = _apply(step, vals)
        if np.abs(out.data).max(initial=0.0) <= _BOUND:
            vals.append(out)
            steps.append(step)
    if not steps:
        steps.append(("mul", 0, -1.0))
    return leaves, steps


def _max_leaf_error(program) -> float:
    """The largest ``grad_check`` error over the program's leaves, each
    checked while the other leaves also require grad."""
    leaves, steps = program
    errors = []
    for k in range(len(leaves)):
        ts = [Tensor(a.copy(), requires_grad=True) for a in leaves]

        def f(t, ts=ts, k=k):
            return _evaluate(ts[:k] + [t] + ts[k + 1:], steps)

        errors.append(grad_check(f, ts[k]))
    return max(errors)


_SHARED = np.array([[[0.5, 1.0], [1.5, 2.0]]])
# an intermediate that feeds several ops, one op that takes the same tensor
# twice, a leaf that feeds several ops, and constants mixed in
_EXAMPLES = [
    ([_SHARED], [("mul", 0, 0), ("log", 1), ("mul", 1, 2), ("mul", 1, -1.0),
                 ("add", 3, 4)]),
    ([_SHARED, -_SHARED], [("add", 0, 1), ("mul", 0, 2), ("const", _SHARED),
                           ("mul", 3, 4), ("concat", (0, 2, 0)), ("slice", 6, 1, 3),
                           ("clamp", 7, -0.75, 1.25), ("mean", 8, (1,))]),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_programs())
@example(_EXAMPLES[0])
@example(_EXAMPLES[1])
def test_random_graphs_match_finite_differences(program):
    assert _max_leaf_error(program) < TOLERANCE


def test_random_graphs_catch_a_zeroed_add_operand_gradient():
    def zero_second(grads):
        return grads[:1] + (None,) * (len(grads) - 1)

    with overridden_backward("add", zero_second):
        for ex in _EXAMPLES:
            assert _max_leaf_error(ex) > TOLERANCE
        # raises NoSuchExample unless some drawn graph fails
        find(_programs(), lambda p: _max_leaf_error(p) > TOLERANCE,
             settings=settings(max_examples=50, derandomize=True, database=None,
                               phases=[Phase.generate]))
