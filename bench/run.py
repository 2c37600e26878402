#!/usr/bin/env python3
"""advseg benchmark: training turns, evaluation and the gradcheck suite.

Run from the root of a checkout:

    python3 bench/run.py --workload train_readme --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                  # every workload, each in a fresh process

Each workload is one process with a closed loop: one caller, and the next
call into advseg starts only after the previous one returned. The program
is imported from ``src/`` of the checkout this file sits in, and receives
only the scenes and batch indices generated here from ``--seed``. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see ``spans.py``). The lines before it record the machine and
print every named metric with its unit. Exit code 0 means every correctness
check passed, 1 that one failed, 2 that the program could not be loaded.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy is imported, here and in child processes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import CASE_GROUPS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"

MODULES = ("tensor", "layers", "losses", "encodings", "networks", "training",
           "metrics", "toyscenes", "gradcheck")
WORKLOADS = ("train_readme", "train_context", "eval_bf", "gradcheck_suite")
SETUP_REPEATS = 5
REFERENCE_SEED = 0
MODEL_SEED = 0
N_TRAIN_SCENES = 32
N_EVAL_SCENES = 16

END_TO_END = (("setup_s", "s"), ("op_ms.p50", "ms"), ("op_ms.p90", "ms"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))


def load_advseg() -> dict:
    """Import advseg from this checkout's ``src/``, never from elsewhere;
    exit with code 2 if that is not possible."""
    if not (SRC / "advseg" / "__init__.py").is_file():
        print(f"bench: no advseg sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"advseg.{name}") for name in MODULES}
    if Path(mods["tensor"].__file__).resolve().parent != SRC / "advseg":
        print("bench: advseg was imported from outside this checkout", file=sys.stderr)
        raise SystemExit(2)
    return mods


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# workloads


class TrainWorkload:
    """Closed-loop training: ``make_batch`` + ``train_iteration`` per turn,
    with the player taken from the config's alternation schedule."""

    primary = "segmenter"  # op_ms is the segmenter-turn time
    trace_period = 2  # traced and untraced ops alternate in pairs

    def __init__(self, m: dict, cfg):
        self.m, self.cfg = m, cfg

    def build(self, seed: int) -> None:
        TS, TR, N = self.m["toyscenes"], self.m["training"], self.m["networks"]
        self.dataset = TS.make_dataset(TS.SceneSpec(seed=seed), N_TRAIN_SCENES, 0)
        self.state = TR.init_state(replace(self.cfg, seed=seed))
        self.stride = N.receptive_field(self.state.seg_spec)[2]
        self.rng = np.random.default_rng(seed)

    def turn(self, player=None) -> tuple[str, float]:
        TR = self.m["training"]
        idx = self.rng.choice(N_TRAIN_SCENES, size=self.cfg.batch_size, replace=False)
        batch = TR.make_batch(self.dataset.train, idx, self.cfg, self.stride)
        TR.train_iteration(self.state, batch, player)
        _, player, loss = self.state.loss_history[-1]
        return player, loss

    def setup(self, seed: int) -> None:
        self.build(seed)
        for player in self.players():  # warm-up: one turn per player
            self.turn(player)

    def players(self) -> tuple:
        TR = self.m["training"]
        return TR.SEGMENTER, TR.ADVERSARY

    def op(self) -> tuple[str, int, list]:
        player, loss = self.turn()
        return player, 1, [math.isfinite(loss)]

    def memory_probe(self) -> list:
        return self.op()[2]

    def reference(self) -> dict:
        """Losses of eight turns, alternating players, from a fresh start at
        the reference seed."""
        self.build(REFERENCE_SEED)
        return {"losses": [self.turn(p)[1] for p in self.players() * 4]}

    @staticmethod
    def matches(value: dict, ref: dict) -> bool:
        got, want = value["losses"], ref["losses"]
        return len(got) == len(want) and all(
            math.isfinite(g) and abs(g - w) <= ref["rtol"] * abs(w)
            for g, w in zip(got, want))


class EvalWorkload:
    """``metrics.evaluate_split`` over fully labelled scenes with a seeded,
    untrained segmenter; one op evaluates the whole split. The scenes come
    from the workload seed and the weights from ``MODEL_SEED``: boundary-F1
    cost grows with the number of predicted boundary points, which differs
    five-fold between untrained initializations but little between scene
    sets under one initialization."""

    primary = "pass"
    trace_period = 1

    def __init__(self, m: dict):
        self.m = m

    def setup(self, seed: int) -> None:
        TS, N, M = self.m["toyscenes"], self.m["networks"], self.m["metrics"]
        spec = TS.SceneSpec(seed=seed, void_border_px=0, void_ribbon_px=0)
        self.num_classes = spec.num_classes
        self.samples = TS.make_dataset(spec, 0, N_EVAL_SCENES).val
        self.seg = N.build_segmenter(spec.num_classes)
        self.params = N.init_params(self.seg, MODEL_SEED)
        self.stride = N.receptive_field(self.seg)[2]
        self.bf_cfg = M.BFConfig(M.image_diagonal((spec.height, spec.width)))
        self.first = None
        self.evaluate(self.samples)  # warm-up

    def evaluate(self, samples):
        return self.m["metrics"].evaluate_split(
            self.seg, self.params, samples, self.num_classes, self.bf_cfg,
            self.stride)

    def op(self) -> tuple[str, int, list]:
        r = self.evaluate(self.samples)
        key = (r.mean_iou, r.mean_bf, r.n_bf_images)
        if self.first is None:
            self.first = key
        ok = (r.n_bf_images == len(self.samples) and r.mean_bf is not None
              and math.isfinite(r.mean_iou) and key == self.first)
        return "pass", len(self.samples), [ok]

    def memory_probe(self) -> list:
        return self.op()[2]

    def reference(self) -> dict:
        self.setup(REFERENCE_SEED)
        r = self.evaluate(self.samples)
        return {"mean_iou": r.mean_iou, "mean_bf": r.mean_bf,
                "n_bf_images": r.n_bf_images}

    @staticmethod
    def matches(value: dict, ref: dict) -> bool:
        return (value["n_bf_images"] == ref["n_bf_images"]
                and value["mean_bf"] is not None
                and abs(value["mean_iou"] - ref["mean_iou"]) <= ref["atol"]
                and abs(value["mean_bf"] - ref["mean_bf"]) <= ref["atol"])


class GradcheckWorkload:
    """``gradcheck.run_suite()`` followed by ``suite_passed``. The suite's
    instances are fixed by the program, so the seed changes nothing here."""

    primary = "suite"
    trace_period = 1

    def __init__(self, m: dict):
        self.m = m

    def setup(self, seed: int) -> None:
        self.m["gradcheck"].find_composition_instance()
        self.small_cases()  # warm-up

    def small_cases(self) -> list:
        """Check every case except the two-network compositions."""
        G, T = self.m["gradcheck"], self.m["tensor"]
        return [T.grad_check(f, x) < G.TOLERANCE for name, x, f in G.iter_cases()
                if not name.startswith("end_to_end")]

    def op(self) -> tuple[str, int, list]:
        G = self.m["gradcheck"]
        results = G.run_suite()
        oks = [math.isfinite(err) and err < G.TOLERANCE for _, err in results]
        return "suite", len(results), oks + [G.suite_passed(results)]

    def memory_probe(self) -> list:
        # a whole suite under tracemalloc takes minutes, so the peak covers
        # the small cases only
        return self.small_cases()

    reference = None


def make_workload(name: str, m: dict):
    TR, E = m["training"], m["encodings"]
    readme = TR.TrainConfig(slr=0.0003, alr=0.1, lam=1.0, scheme="slow",
                            block_len=50, batch_size=4,
                            encoding=E.EncodingKind("basic"),
                            adversary_fov="large", adversary_capacity="full",
                            lcn_window=0)
    if name == "train_readme":
        return TrainWorkload(m, readme)
    if name == "train_context":
        return TrainWorkload(m, replace(
            readme, scheme="fast",
            encoding=E.EncodingKind("product", include_image=True),
            adversary_fov="small", lcn_window=9))
    if name == "eval_bf":
        return EvalWorkload(m)
    if name == "gradcheck_suite":
        return GradcheckWorkload(m)
    raise SystemExit(f"bench: unknown workload {name!r}")


# ---------------------------------------------------------------------------
# per-layer metric names


def conv_layer_names(m: dict) -> list[str]:
    """'<net>.<layer>' for every convolution of the networks the workloads
    build: the shipped segmenter, both training adversaries, and the small
    pair the gradcheck suite composes."""
    N = m["networks"]
    nets = [("seg", N.build_segmenter(4)),
            ("seg", N.build_segmenter(2, channels_base=3, n_context_layers=1)),
            ("adv", N.build_adversary(4, "large", "full")),
            ("adv", N.build_adversary(12, "small", "full", two_branch=True)),
            ("adv", N.build_adversary(2, "small", "light"))]
    names = set()
    for role, spec in nets:
        for i, lay in enumerate(spec.layers):
            if lay.kind == "conv":
                names.add(f"{role}.L{i}")
            for j, bl in enumerate(lay.branch):
                if bl.kind == "conv":
                    names.add(f"{role}.B{j}")
    return sorted(names, key=lambda s: (s[:3], s[4], int(s[5:])))


def per_layer_spec(m: dict) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order. Times and
    counts are per op of the workload (a training turn, an evaluation pass,
    a gradcheck suite)."""
    spec = [("layers.conv2d.fwd_ms", "ms/op"), ("layers.conv2d.bwd_ms", "ms/op"),
            ("layers.conv2d.macs", "count/op"), ("layers.conv2d.cols_mb", "MB/op"),
            ("layers.conv2d.bwd_needed_frac", "ratio")]
    for layer in conv_layer_names(m) + ["other"]:
        spec += [(f"layers.conv2d.{layer}.fwd_ms", "ms/op"),
                 (f"layers.conv2d.{layer}.bwd_ms", "ms/op")]
    for op in ("maxpool2", "relu", "sigmoid", "channel_softmax"):
        spec += [(f"layers.{op}.fwd_ms", "ms/op"), (f"layers.{op}.bwd_ms", "ms/op")]
    spec += [("layers.local_contrast_normalize.ms", "ms/op"),
             ("tensor.backward.self_ms", "ms/op"),
             ("tensor.backward.nodes", "count/op"),
             ("tensor.concat_channels.ms", "ms/op")]
    for net in ("seg", "adv"):
        spec += [(f"networks.forward.{net}.ms", "ms/op"),
                 (f"networks.forward.{net}.calls", "count/op")]
    spec += [(f"{name}.ms", "ms/op") for name in (
        "losses.segmenter_objective", "losses.adversary_objective",
        "encodings.build_adv_pair", "training.make_batch", "training.sgd_step",
        "metrics.evaluate_predictions", "metrics.bf_score",
        "metrics.predict_labels")]
    spec += [(f"gradcheck.{group}.ms", "ms/op") for group in CASE_GROUPS]
    spec += [("tensor.grad_check.forward_calls", "count/op"),
             ("toyscenes.make_dataset.ms", "ms/call"),
             ("mem.peak_alloc_mb", "MB"),
             ("trace.overhead_pct", "%")]
    return spec


def layer_values(agg: dict, counts: dict, n_ops: int, setup_agg: dict) -> dict:
    """Per-layer metric values (before the memory and overhead entries) from
    aggregated spans of the traced ops."""
    def total(pred, key="ms"):
        return sum(s[key] for name, s in agg.items() if pred(name)) / n_ops

    def conv(kind):
        return lambda n: n.startswith("layers.conv2d.") and n.endswith(kind)

    out = {"layers.conv2d.fwd_ms": total(conv(".fwd")),
           "layers.conv2d.bwd_ms": total(conv(".bwd")),
           "layers.conv2d.macs": counts.get("layers.conv2d.macs", 0.0) / n_ops,
           "layers.conv2d.cols_mb": counts.get("layers.conv2d.cols_mb", 0.0) / n_ops}
    for name, s in agg.items():
        if name.startswith("layers.") and name.endswith((".fwd", ".bwd")):
            out[f"{name}_ms"] = s["ms"] / n_ops
        elif name.startswith("networks.forward."):
            out[f"{name}.ms"] = s["ms"] / n_ops
            out[f"{name}.calls"] = s["calls"] / n_ops
        elif name == "tensor.backward":
            out["tensor.backward.self_ms"] = s["self_ms"] / n_ops
        else:
            out[f"{name}.ms"] = s["ms"] / n_ops
    for name in ("tensor.backward.nodes", "tensor.grad_check.forward_calls"):
        out[name] = counts.get(name, 0.0) / n_ops
    if counts.get("conv2d.grad_macs"):
        out["layers.conv2d.bwd_needed_frac"] = (counts["conv2d.grad_macs_needed"]
                                                / counts["conv2d.grad_macs"])
    make_dataset = setup_agg.get("toyscenes.make_dataset")
    if make_dataset:
        out["toyscenes.make_dataset.ms"] = make_dataset["ms"] / make_dataset["calls"]
    return out


# ---------------------------------------------------------------------------
# one workload in this process


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def compare_reference(name: str, wl) -> tuple[bool, str]:
    refs = json.loads(REFERENCE_FILE.read_text())
    value = wl.reference()
    ok = wl.matches(value, refs[name])
    return ok, f"reference seed {REFERENCE_SEED}: got {value}, recorded {refs[name]}"


def workload_metrics(wl, times: dict, items: int) -> dict:
    """name -> (value, unit, samples) of the metrics named for this kind of
    workload, from the untraced op times."""
    untraced = [t for v in times.values() for t in v]
    out = {}
    if isinstance(wl, TrainWorkload):
        for player, tag in zip(wl.players(), ("seg_turn_ms", "adv_turn_ms")):
            vals = [t * 1e3 for t in times.get(player, [])]
            out[f"{tag}.p50"] = (percentile(vals, 50), "ms", len(vals))
            out[f"{tag}.p90"] = (percentile(vals, 90), "ms", len(vals))
        out["train_iters_per_s"] = (len(untraced) / sum(untraced), "1/s",
                                    len(untraced))
    elif isinstance(wl, EvalWorkload):
        vals = [t * 1e3 for t in untraced]
        out["eval_pass_ms.p50"] = (percentile(vals, 50), "ms", len(vals))
        out["eval_pass_ms.p90"] = (percentile(vals, 90), "ms", len(vals))
        out["eval_images_per_s"] = (items / sum(untraced), "1/s", len(untraced))
    else:
        out["gradcheck_suite_s"] = (statistics.median(untraced), "s", len(untraced))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    m = load_advseg()
    print("machine " + json.dumps(machine_record()), flush=True)
    wl = make_workload(name, m)
    tracer = Tracer(m) if trace else None
    attempted = failed = 0

    setup_times = []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.setup(seed)
        finally:
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
    setup_agg = {}
    if tracer:
        setup_agg = tracer.aggregate()
        tracer.clear()

    times: dict[str, list] = {}  # op kind -> untraced op seconds
    traced_times: list = []
    items = 0
    peak_alloc = 0.0
    crashed = False
    k = 0
    start = time.perf_counter()
    while True:
        traced = trace and (k // wl.trace_period) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            kind, n_items, oks = wl.op()
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            crashed = True
            break
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        attempted += len(oks)
        failed += oks.count(False)
        if traced:
            traced_times.append(dt)
        else:
            times.setdefault(kind, []).append(dt)
            items += n_items
        k += 1
        elapsed = time.perf_counter() - start
        untraced_n = sum(len(v) for v in times.values())
        need_both = trace and not (traced_times and untraced_n)
        if not need_both and elapsed + dt > seconds:
            break

    if trace and failed == 0:
        # tracemalloc slows allocation-heavy code by about half, so peak
        # memory comes from one more op outside the timed and traced ones
        tracemalloc.start()
        try:
            oks = wl.memory_probe()
            peak_alloc = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        attempted += len(oks)
        failed += oks.count(False)

    if failed == 0 and wl.reference is not None:
        ok, detail = compare_reference(name, wl)
        attempted += 1
        if not ok:
            failed += 1
            print(f"check FAILED {detail}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [t for v in times.values() for t in v]
    primary_ms = [t * 1e3 for t in times.get(wl.primary, [])]
    print(f"workload {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"ops={k} failed={failed}/{attempted}")
    named = {"setup_s": (statistics.median(setup_times), "s", len(setup_times)),
             "peak_rss_mb": (peak_rss_mb, "MB", 1),
             "failed_ops_frac": (failed / attempted, "ratio", attempted)}
    if not crashed:
        named.update(workload_metrics(wl, times, items))
    for key, (value, unit, n) in named.items():
        print(f"metric {key} = {value:.6g} {unit} (n={n})")

    if crashed:  # an op raised: too few samples to report
        metrics = {}
    elif trace:
        metrics = traced_metrics(m, tracer, traced_times, untraced, setup_agg,
                                 peak_alloc)
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "op_ms.p50": percentile(primary_ms, 50),
                  "op_ms.p90": percentile(primary_ms, 90),
                  "items_per_s": items / sum(untraced),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def traced_metrics(m, tracer, traced_times, untraced, setup_agg, peak_alloc):
    n_ops = len(traced_times)
    traced_ms = statistics.fmean(traced_times) * 1e3
    values = layer_values(tracer.aggregate(), tracer.counts, n_ops, setup_agg)
    values["mem.peak_alloc_mb"] = peak_alloc / 1e6
    values["trace.overhead_pct"] = 100.0 * (
        statistics.fmean(traced_times) / statistics.fmean(untraced) - 1.0)
    spec = per_layer_spec(m)
    known = {name for name, _ in spec}
    for extra in sorted(set(values) - known):
        print(f"layer {extra} = {values[extra]:.6g} (not a listed metric)")
    conv_f, conv_b = values["layers.conv2d.fwd_ms"], values["layers.conv2d.bwd_ms"]
    pool = (values.get("layers.maxpool2.fwd_ms", 0.0)
            + values.get("layers.maxpool2.bwd_ms", 0.0))
    print(f"breakdown of a traced op ({traced_ms:.4g} ms mean over {n_ops}, "
          f"overhead {values['trace.overhead_pct']:.3g} %): "
          f"conv2d fwd {100 * conv_f / traced_ms:.1f} %, "
          f"conv2d bwd {100 * conv_b / traced_ms:.1f} %, "
          f"maxpool2 {100 * pool / traced_ms:.1f} %, "
          f"rest {100 * (1 - (conv_f + conv_b + pool) / traced_ms):.1f} %")
    for name, unit in spec:
        print(f"layer {name} = {values.get(name, 0.0):.6g} {unit}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in spec}


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def run_all(seed: int, seconds: float, trace: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"bench: {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def record_reference() -> int:
    """Rewrite reference.json from the current program at the reference seed."""
    m = load_advseg()
    refs = {"seed": REFERENCE_SEED}
    tolerances = {"train_readme": {"rtol": 1e-6}, "train_context": {"rtol": 1e-6},
                  "eval_bf": {"atol": 1e-4}}
    for name, tol in tolerances.items():
        refs[name] = {**make_workload(name, m).reference(), **tol}
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json and exit")
    args = ap.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
