#!/usr/bin/env python3
"""Self-check of the advseg benchmark.

    python3 bench/selfcheck.py

1. Runs every workload at minimum length, untraced and traced, each in a
   fresh process, and confirms that the result line holds exactly the
   metrics ``BENCHMARK.json`` lists, each with its unit, and that every
   correctness check passed.
2. Injects broken outputs (a NaN loss, scenes with a VOID border so that
   boundary F1 is skipped, a gradcheck case over tolerance, a loss off its
   reference) and confirms that each counts as a failed op and makes the
   benchmark exit non-zero.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import replace

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
FAILURES: list[str] = []


def check(what: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}{' -- ' + detail if detail and not ok else ''}",
          flush=True)
    if not ok:
        FAILURES.append(what)


def expected_metrics(m: dict) -> tuple[dict, dict]:
    """(end-to-end, per-layer) name -> unit, from BENCHMARK.json; also
    confirms they agree with what run.py emits."""
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {x["name"]: x["unit"] for x in bench["end_to_end"]}
    layers = {x["name"]: x["unit"] for x in bench["per_layer"]}
    check("BENCHMARK.json end_to_end matches run.py", e2e == dict(run.END_TO_END))
    check("BENCHMARK.json per_layer matches run.py",
          layers == dict(run.per_layer_spec(m)))
    check("BENCHMARK.json workloads match run.py",
          [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS))
    return e2e, layers


def run_fresh(workload: str, trace: int, want: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=False)
    what = f"{workload} --trace {trace}"
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        check(f"{what}: result line", False, proc.stderr[-2000:])
        return
    check(f"{what}: exit 0", proc.returncode == 0, proc.stderr[-2000:])
    check(f"{what}: result keys", set(result) == RESULT_KEYS, str(sorted(result)))
    check(f"{what}: correct, attempted >= 1, failed 0",
          result["correct"] is True and result["attempted"] >= 1
          and result["failed"] == 0, str({k: result[k] for k in RESULT_KEYS - {"metrics"}}))
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    check(f"{what}: every metric with its unit", got == want,
          f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    values = [metric["value"] for metric in result["metrics"].values()]
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    positive = trace or all(v > 0 for v in values)
    check(f"{what}: values finite{'' if trace else ' and non-zero'}", finite and positive)
    if not trace:
        for line in proc.stdout.splitlines():
            if line.startswith("metric "):
                print("     " + line)


def run_injected(workload: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1"])
    return code, json.loads(out.getvalue().splitlines()[-1])


@contextlib.contextmanager
def patched(module, attr: str, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def injected_failures(m: dict) -> None:
    def nan_loss(train_iteration):
        def broken(state, batch, player=None):
            train_iteration(state, batch, player)
            it, who, _ = state.loss_history[-1]
            state.loss_history[-1] = (it, who, float("nan"))
            return state
        return broken

    def void_border(make_dataset):
        return lambda spec, *args: make_dataset(replace(spec, void_border_px=1), *args)

    def over_tolerance(run_suite):
        return lambda *args, **kwargs: [("injected", 10 * m["gradcheck"].TOLERANCE)]

    cases = [("NaN loss", "train_readme", m["training"], "train_iteration", nan_loss),
             ("VOID border skips BF", "eval_bf", m["toyscenes"], "make_dataset",
              void_border),
             ("gradcheck case over tolerance", "gradcheck_suite", m["gradcheck"],
              "run_suite", over_tolerance)]
    for what, workload, module, attr, make in cases:
        with patched(module, attr, make):
            code, result = run_injected(workload)
        check(f"injected {what} on {workload}: counted as failed, exit non-zero",
              code != 0 and result["failed"] >= 1 and result["correct"] is False,
              f"exit {code}, result {result}")

    ref = json.loads(run.REFERENCE_FILE.read_text())["train_readme"]
    off = [ref["losses"][0] * (1 + 10 * ref["rtol"])] + ref["losses"][1:]
    check("a loss off its reference fails the trajectory check",
          run.TrainWorkload.matches({"losses": ref["losses"]}, ref)
          and not run.TrainWorkload.matches({"losses": off}, ref))


def main() -> int:
    m = run.load_advseg()
    e2e, layers = expected_metrics(m)
    for workload in run.WORKLOADS:
        run_fresh(workload, 0, e2e)
        run_fresh(workload, 1, layers)
    injected_failures(m)
    print(f"selfcheck: {len(FAILURES)} failed" if FAILURES else "selfcheck: all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
