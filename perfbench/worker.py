"""Run one workload in this fresh process and write its figures as JSON.

Started by run.py with the checkout's `src` on PYTHONPATH. Every op goes
through `benfordkit.cli.main` in this process with stdout and stderr
captured, and is checked against its reference after each execution.

Untraced (--trace 0): whole passes over the workload's timed ops are
repeated until --seconds have passed (at least MIN_PASSES), with the
workload's calibration kernel run between ops (see calibrate.py). Each
op's figure is the median of its executions, in seconds and in units of
the kernel runs around it. Known-defect ops then run once.

Traced (--trace 1): one untraced pass, one pass with layer spans
installed and another untraced pass give the tracing overhead; then the
per-layer probe runs over the inputs of all four workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import check
import probe
import workloads

MIN_PASSES = 3  # so that each op's median can reject one outlier
CAL_EVERY_S = 0.25


def run_op(cli, op: dict) -> tuple[float, str | None]:
    """Time one op and return (seconds, first difference from reference)."""
    if op["clear_law"]:
        probe.clear_law_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # What the interpreter would do with an uncaught exception.
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - start
    problem = check.check(op["expect"], code, out.getvalue())
    if problem and err.getvalue():
        problem += f"; stderr: {err.getvalue().strip().splitlines()[-1]}"
    return elapsed, problem


def run_pass(cli, ops: list[dict], record: dict, cal, tracer=None) -> float:
    """One pass over the ops; records (seconds, problem, calibration index)."""
    start = time.perf_counter()
    for op in ops:
        index = cal.before_op()
        if tracer is None:
            elapsed, problem = run_op(cli, op)
        else:
            with tracer.span(f"cli.main {op['name']}"):
                elapsed, problem = run_op(cli, op)
        cal.after_op(elapsed)
        record[op["name"]].append((elapsed, problem, index))
    return time.perf_counter() - start


def ok_items_per_cal(ops: list[dict], record: dict, cal) -> float:
    """Items of the ops whose every execution matched the reference, over
    the sum of all ops' median times, failed ones included. Each time is
    divided by the kernel time around it."""
    ok = medians = 0.0
    for op in ops:
        runs = record[op["name"]]
        medians += statistics.median(t / cal.scale(i) for t, _, i in runs)
        ok += op["items"] if not any(p for _, p, _ in runs) else 0
    return ok / medians


def summarize(workload: str, ops: list[dict], record: dict) -> dict:
    """Per-op medians in seconds and the named metrics.

    A rate counts the work of ops whose every execution matched its
    reference, over the median time of all its ops, failed ones included.
    """
    per_op = []
    for op in ops:
        runs = record[op["name"]]
        bad = [p for _, p, _ in runs if p]
        per_op.append({"name": op["name"], "median_s": statistics.median(t for t, _, _ in runs),
                       "runs": len(runs), "failed": len(bad),
                       "error": bad[0] if bad else None})
    ok = {o["name"]: o["failed"] == 0 for o in per_op}
    median = {o["name"]: o["median_s"] for o in per_op}
    named = {}
    for name, (unit, kind) in workloads.NAMED_METRICS[workload].items():
        mine = [op for op in ops if op["metric"] == name]
        seconds = sum(median[op["name"]] for op in mine)
        value = seconds if kind == "time" else (
            sum(op["work"] for op in mine if ok[op["name"]]) / seconds)
        named[name] = {"value": value, "unit": unit}
    return {
        "ops": per_op,
        "attempted": sum(o["runs"] for o in per_op),
        "failed": sum(o["failed"] for o in per_op),
        "named": named,
    }


def run_defects(cli, defects: list[dict]) -> list[dict]:
    """State of each known-defect op: still failing, fixed, or wrong.

    "wrong" is a success exit status with output that differs from the
    reference, which the run reports as incorrect.
    """
    states = []
    for op in defects:
        elapsed, problem = run_op(cli, op)
        if problem is None:
            state = "fixed"
        elif problem.startswith("exit status 1,"):
            state = "fails"
        else:
            state = "wrong"
        states.append({"name": op["name"], "defect": op["defect"], "state": state,
                       "seconds": elapsed, "detail": problem})
    return states


def traced_run(cli, args, timed: list[dict], record: dict, cal) -> dict:
    tracer = probe.Tracer()
    passes = [run_pass(cli, timed, record, cal)]
    with tracer.install(), tracer.span(f"workload.{args.workload}"):
        passes.append(run_pass(cli, timed, record, cal, tracer))
    passes.append(run_pass(cli, timed, record, cal))
    cal.close()
    untraced = [passes[0], passes[2]]

    layer = probe.Tracer()
    metrics = {}
    metrics.update(probe.probe_screen(layer, args.screen_dir))
    metrics.update(probe.probe_series(layer))
    metrics.update(probe.probe_simulate(layer, args.seed))
    metrics.update(probe.probe_law(layer))
    metrics["trace.overhead_s"] = passes[1] - statistics.mean(untraced)
    metrics["trace.spans"] = len(tracer.spans)
    return {**summarize(args.workload, timed, record), "layer_metrics": metrics,
            "untraced_pass_s": untraced, "traced_pass_s": passes[1],
            "spans": tracer.as_json() + layer.as_json(len(tracer.spans))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--plan", type=Path, required=True)
    ap.add_argument("--screen-dir", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    plan = json.loads(args.plan.read_text())
    timed = [op for op in plan if not op["defect"]]
    from benfordkit import cli

    record = {op["name"]: [] for op in timed}
    cal = calibrate.Calibration(calibrate.KERNELS[workloads.KERNEL[args.workload]],
                                CAL_EVERY_S)
    if args.trace:
        result = traced_run(cli, args, timed, record, cal)
    else:
        deadline = time.perf_counter() + args.seconds
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            run_pass(cli, timed, record, cal)
            passes += 1
        cal.close()
        result = summarize(args.workload, timed, record)
        result["passes"] = passes
        result["ok_items_per_cal"] = ok_items_per_cal(timed, record, cal)
        result["defects"] = run_defects(cli, [op for op in plan if op["defect"]])
    result["module"] = cli.__file__
    result["calibration_s"] = cal.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
