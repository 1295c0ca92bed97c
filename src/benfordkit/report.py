"""Report documents: census + statistics + metadata, serialized to
JSON, CSV, or plain text with identical numeric content."""

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


def _expected_frequencies(census: DigitCensus) -> Optional[list[float]]:
    if census.base == 10:
        return list(law.marginal_distribution(census.position).probabilities)
    if census.position == 1:
        return list(law.first_digit_distribution(census.base).probabilities)
    return None


def build_report(
    census: DigitCensus,
    input_descriptor: str = "",
    policy_description: Optional[dict] = None,
) -> ReportDocument:
    """Assemble the document for a census.

    First-digit base-10 censuses get the full test battery; other
    positions/bases are report-only (census and histogram, no verdicts).
    """
    testable = census.position == 1 and census.base == 10
    gof = full_report(census) if testable and census.sample_size > 0 else None

    expected = _expected_frequencies(census)
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
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "seed": None,  # kept in the schema; a report draws nothing at random
        "position": census.position,
        "base": census.base,
        "digits": list(census.support),
    }
    return ReportDocument(meta=meta, census=census, gof=gof, histogram=tuple(rows))


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
    """One summary row; per-digit columns are suffixed with the digit."""
    gof = doc.gof
    header = [
        "input", "position", "base", "sample_size", "exclusions",
        "chi_square", "df", "critical_p05", "critical_p01",
        "d1", "d_max", "d_max_digit", "verdict_p05", "verdict_p01",
    ]
    row = [
        doc.meta.get("input", ""), doc.census.position, doc.census.base,
        doc.census.sample_size, doc.census.exclusions,
        round12(gof.chi_square) if gof else "",
        DEGREES_OF_FREEDOM, CHI2_CRITICAL_5PCT, CHI2_CRITICAL_1PCT,
        round12(gof.d1) if gof else "",
        round12(gof.d_max) if gof else "",
        gof.d_max_digit if gof else "",
        gof.verdict_5pct if gof else "",
        gof.verdict_1pct if gof else "",
    ]
    for r in doc.histogram:
        header.append(f"count_{r.digit}")
        row.append(doc.census.count_of(r.digit))
    for r in doc.histogram:
        header.append(f"observed_{r.digit}")
        row.append(round12(r.observed_freq))
    for r in doc.histogram:
        header.append(f"expected_{r.digit}")
        row.append(round12(r.expected_freq) if r.expected_freq is not None else "")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerow(row)
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
