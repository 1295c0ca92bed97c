"""Report documents: census + statistics + metadata, serialized to
JSON, CSV, or plain text.

A document keeps only the census, its statistics and the metadata; each
digit's observed and expected frequencies come from the census through
`gof.compare_to_law`. JSON rounds them to 12 significant digits, the CSV
row is the JSON document flattened, and text prints the same frequencies
unrounded to 4 places. `gof.testable` decides which documents carry
verdicts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .errors import DomainError
from .gof import (
    CHI2_CRITICAL_1PCT,
    CHI2_CRITICAL_5PCT,
    DEGREES_OF_FREEDOM,
    DigitCensus,
    GofReport,
    compare_to_law,
    full_report,
    testable,
)


def round12(x: float) -> float:
    """Serialization precision: 12 significant digits, applied uniformly so
    JSON and CSV carry identical numbers."""
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class ReportDocument:
    """A complete analysis result; every statistic is recomputable from the
    embedded census."""

    meta: dict
    census: DigitCensus
    gof: Optional[GofReport]


def build_report(
    census: DigitCensus,
    input_descriptor: str = "",
    policy_description: Optional[dict] = None,
) -> ReportDocument:
    """Assemble the document for a census.

    Censuses the tests apply to (`gof.testable`) get the full test battery;
    others are report-only (census and frequencies, no verdicts).
    """
    gof = full_report(census) if testable(census) and census.sample_size > 0 else None
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
    return ReportDocument(meta=meta, census=census, gof=gof)


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


def to_json_dict(doc: ReportDocument) -> dict:
    """The documented JSON schema; report-only documents carry nulls in the
    test fields."""
    gof = doc.gof
    frequencies = list(compare_to_law(doc.census))
    return {
        "meta": doc.meta,
        "counts": list(doc.census.counts),
        "exclusions": doc.census.exclusions,
        "observed": [round12(observed) for observed, _ in frequencies],
        "expected": [None if p is None else round12(p) for _, p in frequencies],
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
    """Human-readable rendering with the per-digit table and verdicts; the
    frequencies print unrounded, to 4 places."""
    census = doc.census
    lines = [
        f"input: {doc.meta.get('input', '')}",
        f"position: {census.position}   base: {census.base}   "
        f"sample size: {census.sample_size}   exclusions: {census.exclusions}",
        "",
        f"{'digit':>5}  {'count':>8}  {'observed':>10}  {'expected':>10}  {'diff':>10}",
    ]
    for digit, count, (observed, p) in zip(census.support, census.counts,
                                           compare_to_law(census)):
        expected = "-" if p is None else f"{p:.4f}"
        diff = "-" if p is None else f"{observed - p:+.4f}"
        lines.append(
            f"{digit:>5}  {count:>8}  {observed:>10.4f}  {expected:>10}  {diff:>10}")
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
        return json.dumps(to_json_dict(doc), indent=2)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "text":
        return to_text(doc)
    raise DomainError(f"unknown report format {fmt!r}")
