"""Report documents: census + statistics + metadata, serialized to
JSON, CSV, or plain text with identical numeric content.

The CSV row is `to_json_dict` flattened; `gof.testable` decides which
documents carry verdicts, `law.marginal_distribution` the expected law.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from . import __version__, law
from .errors import DomainError
from .gof import (
    CHI2_CRITICAL_1PCT,
    CHI2_CRITICAL_5PCT,
    DEGREES_OF_FREEDOM,
    DigitCensus,
    GofReport,
    full_report,
    testable,
)


def round12(x: float) -> float:
    """Serialization precision: 12 significant digits, applied uniformly so
    JSON and CSV carry identical numbers."""
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class HistogramRow:
    digit: int
    observed_freq: float
    expected_freq: Optional[float]


@dataclass(frozen=True)
class ReportDocument:
    """A complete analysis result; every statistic is recomputable from the
    embedded census."""

    meta: dict
    census: DigitCensus
    gof: Optional[GofReport]
    histogram: tuple[HistogramRow, ...]


def build_report(
    census: DigitCensus,
    input_descriptor: str = "",
    policy_description: Optional[dict] = None,
) -> ReportDocument:
    """Assemble the document for a census.

    Censuses the tests apply to (`gof.testable`) get the full test battery;
    others are report-only (census and histogram, no verdicts), with the
    expected law where `law.marginal_distribution` has one.
    """
    gof = full_report(census) if testable(census) and census.sample_size > 0 else None
    try:
        expected = law.marginal_distribution(census.position, census.base).probabilities
    except DomainError:
        expected = None
    size = census.sample_size
    rows = []
    for i, digit in enumerate(census.support):
        observed = census.counts[i] / size if size else 0.0
        rows.append(
            HistogramRow(
                digit=digit,
                observed_freq=observed,
                expected_freq=expected[i] if expected is not None else None,
            )
        )

    meta = {
        "input": input_descriptor,
        "policy": policy_description or {},
        "timestamp": _timestamp(),
        "version": __version__,
        "seed": None,  # kept in the schema; a report draws nothing at random
        "position": census.position,
        "base": census.base,
        "digits": list(census.support),
    }
    return ReportDocument(meta=meta, census=census, gof=gof, histogram=tuple(rows))


def _timestamp() -> str:
    """Now, in UTC; or, when SOURCE_DATE_EPOCH is set, the time it gives in
    whole seconds since 1970, so that two runs print the same bytes."""
    import os

    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.now(timezone.utc).isoformat()
    if epoch.isascii() and epoch.isdigit():
        try:
            return datetime.fromtimestamp(int(epoch), timezone.utc).isoformat()
        except (ValueError, OverflowError, OSError):
            pass
    raise DomainError(
        f"SOURCE_DATE_EPOCH must be whole seconds since 1970 within year 9999, got {epoch!r}")


def verify_report(doc: ReportDocument) -> bool:
    """Recompute the statistics from the document's own census and check
    they match what the document states."""
    if doc.gof is None:
        return True
    fresh = full_report(doc.census)
    return fresh == doc.gof


def to_json_dict(doc: ReportDocument) -> dict:
    """The documented JSON schema; report-only documents carry nulls in the
    test fields."""
    gof = doc.gof
    return {
        "meta": doc.meta,
        "counts": list(doc.census.counts),
        "exclusions": doc.census.exclusions,
        "observed": [round12(r.observed_freq) for r in doc.histogram],
        "expected": [
            round12(r.expected_freq) if r.expected_freq is not None else None
            for r in doc.histogram
        ],
        "chi_square": round12(gof.chi_square) if gof else None,
        "df": DEGREES_OF_FREEDOM,
        "critical": {"p05": CHI2_CRITICAL_5PCT, "p01": CHI2_CRITICAL_1PCT},
        "d1": round12(gof.d1) if gof else None,
        "d_max": round12(gof.d_max) if gof else None,
        "d_max_digit": gof.d_max_digit if gof else None,
        "verdict": {
            "p05": gof.verdict_5pct if gof else None,
            "p01": gof.verdict_1pct if gof else None,
        },
    }


def to_json(doc: ReportDocument) -> str:
    return json.dumps(to_json_dict(doc), indent=2)


def to_csv(doc: ReportDocument) -> str:
    """One summary row: the JSON document flattened.

    Of the metadata the row keeps the input, position and base, and adds
    the sample size. Nested keys are joined by "_" (critical_p05), each
    per-digit list becomes one column per digit after the other fields
    (count_1, observed_1, expected_1, ...), and None is an empty cell.
    """
    fields = to_json_dict(doc)
    meta = fields.pop("meta")
    row = {key: meta[key] for key in ("input", "position", "base")}
    row["sample_size"] = doc.census.sample_size
    per_digit = {}
    for key, value in fields.items():
        if isinstance(value, dict):
            row.update((f"{key}_{inner}", v) for inner, v in value.items())
        elif isinstance(value, list):
            name = key.removesuffix("s")  # counts -> count_1, count_2, ...
            per_digit.update((f"{name}_{d}", v) for d, v in zip(meta["digits"], value))
        else:
            row[key] = value
    out = io.StringIO()
    csv.writer(out).writerows([[*row, *per_digit], [*row.values(), *per_digit.values()]])
    return out.getvalue()


def to_text(doc: ReportDocument) -> str:
    """Human-readable rendering with the histogram and verdicts."""
    lines = []
    meta = doc.meta
    lines.append(f"input: {meta.get('input', '')}")
    lines.append(
        f"position: {doc.census.position}   base: {doc.census.base}   "
        f"sample size: {doc.census.sample_size}   exclusions: {doc.census.exclusions}"
    )
    lines.append("")
    lines.append(f"{'digit':>5}  {'count':>8}  {'observed':>10}  {'expected':>10}  {'diff':>10}")
    for i, r in enumerate(doc.histogram):
        expected = f"{r.expected_freq:.4f}" if r.expected_freq is not None else "-"
        diff = (
            f"{r.observed_freq - r.expected_freq:+.4f}"
            if r.expected_freq is not None
            else "-"
        )
        lines.append(
            f"{r.digit:>5}  {doc.census.counts[i]:>8}  {r.observed_freq:>10.4f}  "
            f"{expected:>10}  {diff:>10}"
        )
    lines.append("")
    gof = doc.gof
    if gof is not None:
        lines.append(
            f"chi-square ({DEGREES_OF_FREEDOM} d.o.f.): {round12(gof.chi_square)}   "
            f"critical 5%: {CHI2_CRITICAL_5PCT}   1%: {CHI2_CRITICAL_1PCT}"
        )
        lines.append(f"total variation distance d1: {round12(gof.d1)}")
        lines.append(
            f"max deviation d_max: {round12(gof.d_max)} at digit {gof.d_max_digit}"
        )
        lines.append(
            f"verdict: {gof.verdict_5pct} at 5%, {gof.verdict_1pct} at 1%"
        )
    else:
        lines.append("report-only census (tests run on first-digit, base-10 data)")
    return "\n".join(lines) + "\n"


def render(doc: ReportDocument, fmt: str) -> str:
    if fmt == "json":
        return to_json(doc)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "text":
        return to_text(doc)
    raise DomainError(f"unknown report format {fmt!r}")
