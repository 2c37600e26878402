"""In-memory span tracer that times advseg modules from the outside.

``Tracer.install()`` replaces module attributes of the advseg package with
timing wrappers and ``uninstall()`` puts the originals back, so untraced
work runs the unmodified code. A wrapper records one span per call: name,
start, end and parent (the span open when the call began). Differentiable
ops also get their graph node's ``backward_fn`` wrapped, so backward time is
attributed to the op and, for convolutions, to the network layer that built
it. Spans stay in memory until ``aggregate()`` turns them into per-name call
counts, inclusive time and self time (span minus its children).

Several advseg modules bind names at import time, so a wrapper is installed
wherever the name is looked up at call time: ``advseg.training.backward``
as well as ``advseg.tensor.backward``, ``advseg.metrics.bf_score`` (looked up
as a module global by ``evaluate_predictions``), and so on.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

_ROLE = {"segmenter": "seg", "adversary": "adv"}

# elementwise cases of the gradcheck suite; every other case name is grouped
# by the prefixes in _CASE_PREFIXES
_ELEMENTWISE_CASES = ("add", "add_scalar", "sub", "mul", "mul_scalar", "div",
                      "div_num", "neg", "log", "exp", "max_with_scalar", "clamp")
_CASE_PREFIXES = (
    ("end_to_end_seg", "end_to_end_seg"),
    ("end_to_end_adv", "end_to_end_adv"),
    ("conv2d", "conv2d"),
    ("maxpool2", "pool_act"), ("relu", "pool_act"), ("sigmoid", "pool_act"),
    ("channel_softmax", "pool_act"),
    ("reduce_", "reduce"),
    ("concat_channels", "structure"), ("slice_channels", "structure"),
    ("mce_loss", "losses"), ("bce_loss", "losses"),
    ("segmenter_objective", "losses"), ("adversary_objective", "losses"),
    ("encode_", "encodings"),
)
CASE_GROUPS = ("elementwise", "reduce", "structure", "conv2d", "pool_act",
               "losses", "encodings", "end_to_end_seg", "end_to_end_adv",
               "other")


def case_group(name: str) -> str:
    """The gradcheck case group a suite case name belongs to."""
    for prefix, group in _CASE_PREFIXES:
        if name.startswith(prefix):
            return group
    if name in _ELEMENTWISE_CASES:
        return "elementwise"
    return "other"


def count_graph_nodes(root) -> int:
    """Op nodes reachable from ``root`` through inputs that require grad,
    i.e. the nodes whose ``backward_fn`` a backward pass calls."""
    seen: set[int] = set()
    stack = [root]
    nodes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.node is not None:
            nodes += 1
            stack.extend(i for i in t.node.inputs if i.requires_grad)
    return nodes


class Tracer:
    def __init__(self, advseg_modules: dict):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open = [-1]
        self._nets: list[tuple[str, dict]] = []  # (role, kernel id -> layer)
        self._patches = self._build_patches(advseg_modules)

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter()
            self._open.pop()

    def clear(self) -> None:
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.counts.clear()

    def aggregate(self) -> dict:
        """name -> {"calls", "ms", "self_ms"} over every recorded span."""
        n = len(self.names)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(n)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out: dict[str, dict] = {}
        for name, d, c in zip(self.names, dur, child):
            s = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            s["calls"] += 1
            s["ms"] += d * 1e3
            s["self_ms"] += (d - c) * 1e3
        return out

    # -- wrappers ----------------------------------------------------------

    def _traced_backward(self, name: str, node, on_call=None) -> None:
        bw = node.backward_fn

        def traced(g):
            if on_call is not None:
                on_call()
            return self.call(name, bw, g)
        node.backward_fn = traced

    def _op(self, name: str, fn):
        def wrapped(*args, **kwargs):
            out = self.call(name + ".fwd", fn, *args, **kwargs)
            if out.node is not None:
                self._traced_backward(name + ".bwd", out.node)
            return out
        return wrapped

    def _conv(self, fn):
        def wrapped(x, p):
            layer = "other"
            if self._nets:
                role, layers = self._nets[-1]
                layer = f"{role}.{layers.get(id(p.kernel), 'other')}"
            name = f"layers.conv2d.{layer}"
            out = self.call(name + ".fwd", fn, x, p)
            n, cin = x.shape[:2]
            _, _, kh, kw = p.kernel.shape
            _, cout, hout, wout = out.shape
            cols = cin * kh * kw * n * hout * wout
            macs = cols * cout
            self.counts["layers.conv2d.macs"] += macs
            self.counts["layers.conv2d.cols_mb"] += cols * 8 / 1e6

            def count_grads():
                # backward computes the input and the kernel gradient, each
                # as many MACs as the forward, whether or not it is needed
                self.counts["conv2d.grad_macs"] += 2 * macs
                self.counts["conv2d.grad_macs_needed"] += macs * (
                    x.requires_grad + p.kernel.requires_grad)
            if out.node is not None:
                self._traced_backward(name + ".bwd", out.node, count_grads)
            return out
        return wrapped

    def _forward(self, fn):
        def wrapped(spec, params, inputs, *args, **kwargs):
            role = _ROLE.get(spec.role, spec.role)
            layers = {id(t): key.rsplit(".", 1)[0]
                      for key, t in params.items() if key.endswith(".kernel")}
            self._nets.append((role, layers))
            try:
                return self.call(f"networks.forward.{role}", fn, spec, params,
                                 inputs, *args, **kwargs)
            finally:
                self._nets.pop()
        return wrapped

    def _backward(self, fn):
        def wrapped(root):
            self.counts["tensor.backward.nodes"] += count_graph_nodes(root)
            return self.call("tensor.backward", fn, root)
        return wrapped

    def _plain(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def _iter_cases(self, fn):
        def wrapped(*args, **kwargs):
            for case, x, f in fn(*args, **kwargs):
                yield case, x, self._counted_case(case, f)
        return wrapped

    def _counted_case(self, case: str, f):
        def counted(t):
            self.counts["tensor.grad_check.forward_calls"] += 1
            return f(t)
        counted.case_group = case_group(case)
        return counted

    def _grad_check(self, fn):
        def wrapped(f, x, *args, **kwargs):
            group = getattr(f, "case_group", "other")
            return self.call(f"gradcheck.{group}", fn, f, x, *args, **kwargs)
        return wrapped

    def _build_patches(self, m: dict) -> list:
        """(module, attribute, original, wrapper) for every traced call site."""
        L, T, N, TR, M, G = (m["layers"], m["tensor"], m["networks"],
                             m["training"], m["metrics"], m["gradcheck"])
        E, TS = m["encodings"], m["toyscenes"]
        patches = [(L, "conv2d", self._conv(L.conv2d))]
        for op in ("maxpool2", "relu", "sigmoid", "channel_softmax"):
            patches.append((L, op, self._op(f"layers.{op}", getattr(L, op))))
        patches.append((N, "forward", self._forward(N.forward)))
        backward = self._backward(T.backward)
        patches += [(T, "backward", backward), (TR, "backward", backward)]
        concat = self._plain("tensor.concat_channels", T.concat_channels)
        patches += [(mod, "concat_channels", concat) for mod in (T, N, E)]
        plain = [
            ("layers.local_contrast_normalize", TR, "local_contrast_normalize"),
            ("losses.segmenter_objective", TR, "segmenter_objective"),
            ("losses.segmenter_objective", G, "segmenter_objective"),
            ("losses.adversary_objective", TR, "adversary_objective"),
            ("losses.adversary_objective", G, "adversary_objective"),
            ("encodings.build_adv_pair", TR, "build_adv_pair"),
            ("encodings.build_adv_pair", G, "build_adv_pair"),
            ("training.make_batch", TR, "make_batch"),
            ("training.sgd_step", TR, "sgd_step"),
            ("metrics.evaluate_predictions", M, "evaluate_predictions"),
            ("metrics.bf_score", M, "bf_score"),
            ("metrics.predict_labels", M, "predict_labels"),
            ("toyscenes.make_dataset", TS, "make_dataset"),
        ]
        patches += [(mod, attr, self._plain(name, getattr(mod, attr)))
                    for name, mod, attr in plain]
        patches += [(G, "iter_cases", self._iter_cases(G.iter_cases)),
                    (T, "grad_check", self._grad_check(T.grad_check))]
        return [(mod, attr, getattr(mod, attr), w) for mod, attr, w in patches]

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
