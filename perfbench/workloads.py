"""The four workloads: their ops, inputs and reference outputs.

An op is one `benford` command line run through `benfordkit.cli.main`.
Each op carries the number of input items it processes (tokens or table
cells, series terms, walker-steps, table rows), the named metric its work
counts towards, and the expectation `check.check` compares it against.

Ops marked with a `defect` fail at the commit that introduced the
benchmark. They run once per run, outside the timed loop, and their state
(still failing, fixed, or wrong output) is printed with every result.
"""

from __future__ import annotations

from pathlib import Path

import inputs
import reference

WORKLOADS = ("screen", "series", "simulate", "law")

TEXT_BYTES = 1_000_000
TABLE_ROWS = 50_000
SIM_STEPS = 50
DRIFT_WALKERS = 200_000

FIBONACCI_SUITE = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 7), (4, 9))
SUITE_TERMS = 1474
# (kind, params) per base. Base 10 keeps the sizes at which fibonacci and
# factorial cross CPython's 4300-digit str(int) limit; base 16 sizes are
# smaller because the exact integer log is slower there.
SERIES = {
    10: (("fibonacci", {"terms": 30000}), ("primes", {"below": 10_000_000}),
         ("power-alpha", {"alpha": "1.007", "n": 30000}), ("factorial", {"n": 2000}),
         ("power-n", {"k": 50, "n": 30000}), ("pascal", {"rows": 1000})),
    16: (("fibonacci", {"terms": 10000}), ("primes", {"below": 1_000_000}),
         ("power-alpha", {"alpha": "1.007", "n": 10000}), ("factorial", {"n": 2000}),
         ("power-n", {"k": 50, "n": 10000}), ("pascal", {"rows": 300})),
}
DRIFT = (("mult", "lognormal:0,1"), ("add", "uniform:0.5,2"))
# Every walker-step of these sits on a digit boundary, inside the
# simulator's guard band.
BOUNDARY = (("lognormal:2.302585092994046,0", 50), ("constant:10", 30_000))
LAW_K = range(1, 9)
LAW_MAX_J = 5

# Workload-specific metrics, printed before the result line: name ->
# (unit, kind). A "rate" divides the work of correct ops by the time of
# all its ops; a "time" adds up op times.
NAMED_METRICS = {
    "screen": {"analyze_text_mb_per_s": ("MB/s", "rate"),
               "analyze_table_rows_per_s": ("rows/s", "rate"),
               "analyze_extremes_s": ("s", "time")},
    "series": {"generate_terms_per_s": ("terms/s", "rate")},
    "simulate": {"simulate_walker_steps_per_s": ("walker-steps/s", "rate"),
                 "boundary_walker_steps_per_s": ("walker-steps/s", "rate")},
    "law": {"expected_tables_s": ("s", "time")},
}

# The calibration kernel (calibrate.KERNELS) of each workload. The law
# ops spend their time in numpy passes over arrays beyond the caches and
# in `math.fsum` over their `tolist()`: in seven runs on seven seeds their
# rate spread by 0.091 in `python` kernel units and 0.035 in `array` units.
KERNEL = {"screen": "python", "series": "python", "simulate": "python", "law": "array"}


# Known defects: op name -> what goes wrong.
DEFECTS = {
    "tiny": "tokens below 1e-308 raise OverflowError out of analyze",
    "powers": "exact powers such as 1e-25 extract a leading digit 0 and exit 1",
    "fibonacci-1-1-30000.b10": "str(int) hits the 4300-digit limit, exit 1",
    "factorial-2000.b10": "str(int) hits the 4300-digit limit, exit 1",
}


def _op(name, argv, items, expect, metric=None, work=0.0, clear_law=False):
    return {"name": name, "argv": [str(a) for a in argv], "items": items,
            "expect": expect, "metric": metric, "work": work,
            "clear_law": clear_law, "defect": DEFECTS.get(name)}


def _screen(seed: int, workdir: Path) -> list[dict]:
    plain = {"thousands_separators": False, "skip_patterns": [], "columns": None}
    cases = (
        ("text", inputs.text_corpus(seed, TEXT_BYTES), ".txt",
         ["--separators", "--skip-shape", r"\d{4}"],
         {**plain, "thousands_separators": True, "skip_patterns": [r"\d{4}"]}),
        ("table", inputs.table_csv(seed, TABLE_ROWS), ".csv",
         ["--column", "amount", "--column", "rate", "--column", "note"],
         {**plain, "columns": ["amount", "rate", "note"]}),
        ("extremes", inputs.extremes_text(seed), ".txt", [], plain),
        ("tiny", inputs.tiny_text(seed), ".txt", [], plain),
        ("powers", inputs.powers_text(seed), ".txt", [], plain),
    )
    ops = []
    for name, (data, truth), suffix, flags, policy in cases:
        path = workdir / f"{name}{suffix}"
        path.write_bytes(data)
        expect = reference.analyze_doc(
            truth.counts, truth.exclusions, {"input": str(path), "policy": policy}
        )
        metric, work = {
            "text": ("analyze_text_mb_per_s", len(data) / 1e6),
            "table": ("analyze_table_rows_per_s", TABLE_ROWS),
            "extremes": ("analyze_extremes_s", 0.0),
        }.get(name, (None, 0.0))
        ops.append(_op(name, ["analyze", path, "--format", "json", *flags],
                       truth.items, expect, metric, work, clear_law=True))
    return ops


def series_specs():
    """(group, base, kind, params) of every series op, in run order. The
    per-layer probe reports each group: the Fibonacci suite is one."""
    for base, specs in SERIES.items():
        for a1, a2 in FIBONACCI_SUITE:
            yield "fibonacci_suite", base, "fibonacci", {"a1": a1, "a2": a2,
                                                         "terms": SUITE_TERMS}
        for kind, params in specs:
            if kind == "fibonacci":
                params = {"a1": 1, "a2": 1, **params}
            yield kind.replace("-", "_"), base, kind, params


def _series() -> list[dict]:
    ops = []
    for _, base, kind, params in series_specs():
        counts = reference.series_census(kind, params, base)
        rows = [[d, c] for d, c in enumerate(counts, start=1)]
        flags = [x for key, value in params.items() for x in (f"--{key}", value)]
        name = "-".join([kind] + [str(v) for v in params.values()]) + f".b{base}"
        terms = sum(counts)
        ops.append(_op(name, ["generate", kind, *flags, "--base", base, "--census"],
                       terms, reference.rows_expect("digit,count", rows),
                       "generate_terms_per_s", terms))
    return ops


def _simulate(seed: int) -> list[dict]:
    ops = []
    # Drift ops are numpy draws and updates; boundary ops spend their time
    # resolving walkers one by one in mpmath.
    cases = [(kind, noise, DRIFT_WALKERS, "simulate_walker_steps_per_s",
              reference.drift_curve(kind, noise, DRIFT_WALKERS, SIM_STEPS, seed))
             for kind, noise in DRIFT]
    cases += [("mult", noise, walkers, "boundary_walker_steps_per_s",
               reference.boundary_curve(noise, walkers, SIM_STEPS))
              for noise, walkers in BOUNDARY]
    for kind, noise, walkers, metric, rows in cases:
        meta = {"walkers": str(walkers), "steps": str(SIM_STEPS), "base": "10",
                "seed": str(seed),
                "kind": "multiplicative" if kind == "mult" else "additive"}
        argv = ["simulate", "--kind", kind, "--noise", noise, "--steps", SIM_STEPS,
                "--walkers", walkers, "--seed", seed]
        steps = walkers * SIM_STEPS
        ops.append(_op(f"{kind}-{noise}-{walkers}", argv, steps,
                       reference.rows_expect("step,d1", rows, meta=meta), metric, steps))
    return ops


def _law() -> list[dict]:
    k_range = f"{LAW_K[0]}..{LAW_K[-1]}"
    moments = [[k, *reference.moments(k)] for k in LAW_K]
    tvd = [[k, reference.tvd(k)] for k in LAW_K]
    corr = [[i, j, rho] for (i, j), rho in reference.correlations(LAW_MAX_J).items()]
    cases = (
        ("moments", ["--table", "moments", "--k", k_range], "k,mean,variance", moments),
        ("tvd", ["--table", "tvd", "--k", k_range], "k,tvd_from_uniform", tvd),
        ("corr", ["--table", "corr", "--max-j", LAW_MAX_J], "i,j,correlation", corr),
    )
    return [_op(name, ["expected", *flags], len(rows),
                reference.rows_expect(header, rows), "expected_tables_s",
                clear_law=True)
            for name, flags, header, rows in cases]


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's inputs under `workdir` and return its ops."""
    if workload == "screen":
        return _screen(seed, workdir)
    if workload == "series":
        return _series()
    if workload == "simulate":
        return _simulate(seed)
    return _law()
