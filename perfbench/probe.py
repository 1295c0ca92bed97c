"""Tracing: spans kept in memory, and the per-layer probe.

`Tracer.install` wraps the public functions that `benfordkit.cli` and the
layers call into each other through, so a traced CLI pass records a span
per layer call. The probe then calls each layer's public functions
directly, from this file, over the same inputs the workloads use, and
turns the spans into per-layer metrics. "Self" times are derived by
subtraction, as each metric's comment says.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads
from reference import decimal_exponent, digits_and_gaps


class Tracer:
    """Spans (name, parent, start, end) recorded in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter_ns(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        if hasattr(fn, "cache_clear"):  # keep law's caches clearable
            traced.cache_clear = fn.cache_clear
        return traced

    @contextmanager
    def patched(self, targets: list[tuple[object, str, str]]):
        """Wrap each (owner, attribute, span name) for the block's duration.

        Callers look these functions up on their module at call time, so a
        call made inside the program records a span too.
        """
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    @contextmanager
    def install(self):
        """Wrap the layer-boundary functions for the duration of the block."""
        from benfordkit import cli, gof, ingest, law, report, simulate

        targets = [
            (cli, "census_from_text", "ingest.census_from_text"),
            (cli, "census_from_table", "ingest.census_from_table"),
            (ingest, "census_from_tokens", "ingest.census_from_tokens"),
            (report, "build_report", "report.build_report"),
            (report, "render", "report.render"),
            (report, "full_report", "gof.full_report"),
            (cli, "convergence_curve", "simulate.convergence_curve"),
            (simulate, "run_ensemble", "simulate.run_ensemble"),
            (cli, "curve_as_csv", "simulate.curve_as_csv"),
            (law, "marginal_distribution", "law.marginal_distribution"),
            (law, "digit_correlation", "law.digit_correlation"),
            (law, "moments", "law.moments"),
            (law, "tvd_from_uniform", "law.tvd_from_uniform"),
        ]
        from_digits = gof.DigitCensus.__dict__["from_digits"]
        try:
            gof.DigitCensus.from_digits = classmethod(
                self.wrap("gof.from_digits", from_digits.__func__))
            with self.patched(targets):
                yield
        finally:
            gof.DigitCensus.from_digits = from_digits

    def seconds(self, name: str) -> float:
        """Total duration of the spans with this name."""
        return sum(end - start for n, _, start, end in self.spans if n == name) / 1e9

    def as_json(self, offset: int = 0) -> list[dict]:
        """Spans as records; ids and parents are shifted by `offset`."""
        return [{"id": offset + i, "name": n,
                 "parent": None if p is None else offset + p,
                 "start_ns": s, "end_ns": e}
                for i, (n, p, s, e) in enumerate(self.spans)]


def clear_law_caches() -> None:
    from benfordkit import law

    law.marginal_distribution.cache_clear()
    law.digit_correlation.cache_clear()


def probe_screen(tr: Tracer, workdir: Path) -> dict:
    from benfordkit import gof, ingest, report
    from benfordkit.errors import MalformedToken, ZeroValue
    from benfordkit.significand import extract_digits, parse_token

    text = (workdir / "text.txt").read_bytes()
    table = (workdir / "table.csv").read_bytes()
    extremes = (workdir / "extremes.txt").read_bytes()
    text_policy = ingest.ScanPolicy(thousands_separators=True, skip_patterns=(r"\d{4}",))
    columns = ("amount", "rate", "note")
    table_policy = ingest.ScanPolicy(columns=columns)
    rows = list(csv.reader(io.StringIO(table.decode())))
    picks = [rows[0].index(c) for c in columns]
    cells = [row[i].strip() for row in rows[1:] for i in picks]
    clear_law_caches()

    with tr.span("ingest.scan_text"):
        tokens = list(ingest.scan_text(text, text_policy))
    with tr.span("ingest.read_table"):
        table_tokens = list(ingest.read_table(table, "csv", table_policy))
    with tr.span("significand.parse_token.text"):
        for token in tokens:
            parse_token(token.raw, separators=True)
    with tr.span("significand.parse_token.table"):
        for cell in cells:
            try:
                parse_token(cell)
            except MalformedToken:
                pass
    values = [t.value for t in tokens + table_tokens]
    with tr.span("significand.extract_digits"):
        for value in values:
            try:
                extract_digits(value, 1, 10)
            except ZeroValue:
                pass
    extreme_values = [t.value for t in ingest.scan_text(extremes)]
    with tr.span("significand.extract_digits.extremes"):
        for value in extreme_values:
            extract_digits(value, 1, 10)
    with tr.span("ingest.census_from_tokens"):
        text_census = ingest.census_from_tokens(tokens, text_policy)
        table_census = ingest.census_from_tokens(table_tokens, table_policy)
    with tr.span("gof.full_report"):
        for census in (text_census, table_census):
            gof.full_report(census)
    with tr.span("report.render"):
        for census in (text_census, table_census):
            report.render(report.build_report(census), "json")

    s = tr.seconds
    seen = len(tokens) + len(cells)
    counted = text_census.sample_size + table_census.sample_size
    return {
        "ingest.scan_text_s": s("ingest.scan_text"),
        "ingest.read_table_s": s("ingest.read_table"),
        "significand.parse_token_s":
            s("significand.parse_token.text") + s("significand.parse_token.table"),
        # tokenize self: scan_text minus the parsing it does
        "ingest.tokenize_self_s": s("ingest.scan_text") - s("significand.parse_token.text"),
        # csv self: read_table minus the parsing it does
        "ingest.csv_self_s": s("ingest.read_table") - s("significand.parse_token.table"),
        "significand.extract_digits_s": s("significand.extract_digits"),
        "significand.extract_digits_s.extremes": s("significand.extract_digits.extremes"),
        "ingest.census_from_tokens_s": s("ingest.census_from_tokens"),
        # count self: the census minus the extraction it does
        "ingest.count_self_s":
            s("ingest.census_from_tokens") - s("significand.extract_digits"),
        "gof.full_report_s": s("gof.full_report"),
        "report.render_s": s("report.render"),
        "ingest.tokens": seen,
        "ingest.excluded": seen - counted,
        "ingest.counted_ratio": counted / seen,
    }


def probe_series(tr: Tracer) -> dict:
    from benfordkit.gof import DigitCensus
    from benfordkit.sequences import SequenceSpec, alpha_power_digits
    from benfordkit.significand import first_digit

    out: dict = {}
    terms = failed = max_digits = 0
    groups = itertools.groupby(workloads.series_specs(), key=lambda spec: spec[:2])
    for (op, base), specs in groups:
        specs = [(kind, params) for _, _, kind, params in specs]
        if op == "power_alpha":
            # alpha**n values are exact rationals whose size grows with n;
            # the workload's digits come from the certified interval path.
            (_, params), = specs
            name = f"sequences.alpha_power_digits.b{base}"
            with tr.span(name):
                digits = list(alpha_power_digits(Fraction(params["alpha"]),
                                                 params["n"], base))
            out[f"sequences.alpha_power_digits_s.b{base}"] = tr.seconds(name)
            terms += len(digits)
        else:
            values_name = f"sequences.values.{op}.b{base}"
            digit_name = f"significand.first_digit.{op}.b{base}"
            digits = []
            for kind, params in specs:
                spec = SequenceSpec(kind=kind.replace("-", "_"), params=params, base=base)
                with tr.span(values_name):
                    values = list(spec.value_stream())
                with tr.span(digit_name):
                    for v in values:
                        try:
                            digits.append(first_digit(v, base))
                        except ValueError:
                            failed += 1
                terms += len(values)
                # From the bit length, never from str.
                max_digits = max(max_digits, decimal_exponent(max(values)) + 1)
            out[f"sequences.values_s.{op}.b{base}"] = tr.seconds(values_name)
            out[f"significand.first_digit_s.{op}.b{base}"] = tr.seconds(digit_name)
        with tr.span("gof.from_digits"):
            DigitCensus.from_digits(digits, 1, base)
    out["gof.from_digits_s"] = tr.seconds("gof.from_digits")
    out["sequences.terms"] = terms
    out["sequences.max_decimal_digits"] = max_digits
    out["significand.first_digit_failed"] = failed
    return out


def _guard_band(spec, guard: float) -> int:
    """Walker-steps whose digit sits within `guard` of a boundary, judged
    from the states iterate_states yields, as the simulator judges them."""
    from benfordkit.simulate import iterate_states

    hits = 0
    for _, state in iterate_states(spec):
        if spec.kind == "multiplicative":
            x = state / math.log(10)
        else:
            x = np.log(state[state > 0]) / math.log(10)
        hits += int((digits_and_gaps(x)[1] < guard).sum())
    return hits


def probe_simulate(tr: Tracer, seed: int) -> dict:
    from benfordkit import simulate as sim

    out: dict = {}
    groups = {"drift": [(k, n, workloads.DRIFT_WALKERS) for k, n in workloads.DRIFT],
              "boundary": [("mult", n, w) for n, w in workloads.BOUNDARY]}
    for group, cases in groups.items():
        guard = steps = 0
        for kind, noise, walkers in cases:
            spec = sim.ProcessSpec(
                kind="multiplicative" if kind == "mult" else "additive",
                noise=sim.NoiseSpec.parse(noise), steps=workloads.SIM_STEPS,
                walkers=walkers, seed=seed)
            with tr.span(f"simulate.iterate_states.{group}"):
                for _ in sim.iterate_states(spec):
                    pass
            # run_ensemble is wrapped so that its span nests in this call.
            with tr.patched([(sim, "run_ensemble", f"simulate.run_ensemble.{group}")]), \
                    tr.span("simulate.convergence_curve"):
                curve = sim.convergence_curve(spec)
            with tr.span("simulate.curve_as_csv"):
                sim.curve_as_csv(spec, curve)
            guard += _guard_band(spec, sim.BOUNDARY_GUARD)
            steps += walkers * workloads.SIM_STEPS
        iterate = tr.seconds(f"simulate.iterate_states.{group}")
        out[f"simulate.iterate_states_s.{group}"] = iterate
        # classify + boundary resolution: run_ensemble minus iterate_states
        out[f"simulate.census_s.{group}"] = (
            tr.seconds(f"simulate.run_ensemble.{group}") - iterate)
        out[f"simulate.guard_band_walkers.{group}"] = guard
        out[f"simulate.guard_band_ratio.{group}"] = guard / steps
    # d1 against the law: convergence_curve minus the run_ensemble inside it
    out["gof.d1_s"] = tr.seconds("simulate.convergence_curve") - sum(
        tr.seconds(f"simulate.run_ensemble.{g}") for g in groups)
    out["simulate.render_s"] = tr.seconds("simulate.curve_as_csv")
    return out


def probe_law(tr: Tracer) -> dict:
    from benfordkit import law

    clear_law_caches()
    out = {}
    for k in workloads.LAW_K[1:]:
        with tr.span(f"law.marginal_distribution.k{k}"):
            law.marginal_distribution(k)
        out[f"law.marginal_distribution_s.k{k}"] = tr.seconds(
            f"law.marginal_distribution.k{k}")
    with tr.span("law.digit_correlation"):
        for i in range(1, workloads.LAW_MAX_J):
            for j in range(i + 1, workloads.LAW_MAX_J + 1):
                law.digit_correlation(i, j)
    with tr.span("law.derived"):
        for k in workloads.LAW_K:
            law.moments(k)
            law.tvd_from_uniform(k)
    out["law.digit_correlation_s"] = tr.seconds("law.digit_correlation")
    out["law.derived_s"] = tr.seconds("law.derived")
    return out
