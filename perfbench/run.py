"""Benchmark of the `benford` command line, run from the repository root:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 15 --trace 0

Workloads: screen, series, simulate, law (see workloads.py and README.md).
The program is imported from `src/` of the current directory. Inputs are
generated from --seed under `.bench_work/`; each run measures its workload
in one fresh worker process and prints per-op lines, the run metadata and,
as the last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with --trace 0, per-layer with 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170
SETUP_REPEATS = 15
# setup_s is given in seconds on a machine where a bare interpreter start
# takes this long (see measure_setup).
BARE_START_REF_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import benfordkit.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(code: str, env: dict) -> tuple[float, str]:
    """Wall time and stdout of a fresh interpreter that runs `code`."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return time.perf_counter() - start, done.stdout


def measure_setup(env: dict) -> tuple[float, float]:
    """Set-up time of a fresh interpreter that imports benfordkit.cli, and
    the median time of the import statement inside it.

    Each import probe is followed by a bare interpreter start (`pass`), and
    the set-up time is the median ratio of the two wall times, times
    BARE_START_REF_S. The speed of a shared machine moves both starts
    alike, so the ratio spreads several times less than either wall time
    alone. A first, untimed import leaves the bytecode cache warm,
    as an installed tool has it."""
    spawn("import benfordkit.cli", env)
    ratios, imports = [], []
    for _ in range(SETUP_REPEATS):
        wall, out = spawn(IMPORT_PROBE, env)
        bare, _ = spawn("pass", env)
        ratios.append(wall / bare)
        imports.append(float(out))
    return statistics.median(ratios) * BARE_START_REF_S, statistics.median(imports)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() or None


def metadata(args, env: dict) -> dict:
    import mpmath
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "prng": inputs.PRNG_NAME,
        "thread_caps": {var: env[var] for var in THREAD_VARS},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "ratio" if "ratio" in name else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not (SRC / "benfordkit" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'benfordkit'} is missing",
              file=sys.stderr)
        return 2

    env = child_env()
    rundir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    screen_dir = rundir / "screen"
    screen_dir.mkdir()
    plan = workloads.build(args.workload, args.seed, screen_dir)
    if args.trace and args.workload != "screen":
        workloads.build("screen", args.seed, screen_dir)  # the probe reads its inputs
    (rundir / "plan.json").write_text(json.dumps(plan))
    setup_s, import_s = measure_setup(env)

    out = rundir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--plan", str(rundir / "plan.json"), "--screen-dir", str(screen_dir),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        worker = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {budget:.0f} s", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"error: worker exited {worker.returncode}\n{worker.stderr}", file=sys.stderr)
        return 1
    result = json.loads(out.read_text())
    if not Path(result.pop("module")).resolve().is_relative_to(SRC.resolve()):
        print("error: benfordkit was not imported from ./src", file=sys.stderr)
        return 1
    shutil.rmtree(screen_dir)

    meta = metadata(args, env)
    print(json.dumps({"meta": meta}))
    for op in result["ops"]:
        state = "ok" if op["failed"] == 0 else f"FAILED: {op['error']}"
        print(f"op {op['name']}: median {op['median_s']:.4f} s over {op['runs']} runs, {state}")
    for d in result.get("defects", []):
        print(f"known defect {d['name']}: {d['state']} ({d['defect']}); {d['detail']}")
    wrong = [d["name"] for d in result.get("defects", []) if d["state"] == "wrong"]
    named = dict(result["named"])
    named["setup_s"] = {"value": setup_s, "unit": "s"}
    named["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    named["ops_failed_ratio"] = {"value": result["failed"] / result["attempted"],
                                 "unit": "failed/attempted"}
    for name, m in named.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    if args.trace:
        metrics = dict(result["layer_metrics"], **{"cli.import_s": import_s})
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
        (rundir / "spans.json").write_text(json.dumps(result["spans"]))
        print(f"trace overhead {metrics['trace.overhead_s']['value']:+.4f} s "
              f"(traced pass {result['traced_pass_s']:.3f} s, untraced "
              f"{', '.join(f'{u:.3f}' for u in result['untraced_pass_s'])} s); "
              f"spans in {rundir / 'spans.json'}")
    else:
        metrics = {
            "ok_items_per_cal": {"value": result["ok_items_per_cal"], "unit": "items/cal"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record = {"meta": meta, "named_metrics": named, "ops": result["ops"],
              "defects": result.get("defects", []), "metrics": metrics}
    (rundir / "summary.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": result["failed"] == 0 and not wrong,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
