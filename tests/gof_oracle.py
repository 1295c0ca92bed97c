"""The conformance statistics, expected-law lookup, CSV row and text report
as they were when the statistics ran on numpy arrays and each report
document carried a per-digit histogram, for differential tests.

`chi_square`, `tvd_benford`, `max_deviation` and `full_report` took the
observed frequencies from `DigitCensus.frequencies()` and the expected ones
from numpy arrays; `_expected_frequencies` picked the law per position and
base; `_histogram` built the document's per-digit rows; `to_csv` wrote its
field list by hand and `to_text` printed the rows. `benfordkit.gof` now
runs on tuples with `math.fsum`, and `benfordkit.report` derives each
digit's frequencies from the census and `law.marginal_distribution`,
flattens the JSON document into the CSV row and prints the unrounded
frequencies as text; each must give the same numbers and the same text.

These are verbatim copies, except that `_frequencies(census)` stands where
they called `census.frequencies()`; it is a verbatim copy of that method's
body. `full_report` no longer passes the sample size and the two frequency
tuples, which `GofReport` copied from the census and the law and has
dropped. `_histogram` is the row loop that built the document, with
`_expected_frequencies` as its law, and the renderers read its rows where
they read `doc.histogram`. The census, report and document types are the
package's.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from benfordkit import law
from benfordkit.errors import DomainError, EmptyCensus
from benfordkit.gof import (
    CHI2_CRITICAL_1PCT,
    CHI2_CRITICAL_5PCT,
    DEGREES_OF_FREEDOM,
    DigitCensus,
    GofReport,
)
from benfordkit.report import ReportDocument, round12


def _frequencies(self: DigitCensus) -> np.ndarray:
    if self.sample_size == 0:
        raise EmptyCensus("census has no counted values")
    return np.asarray(self.counts, dtype=np.float64) / self.sample_size


def _check_testable(census: DigitCensus) -> np.ndarray:
    if census.position != 1 or census.base != 10:
        raise DomainError(
            "conformance tests run on first-digit, base-10 censuses only; "
            f"got position {census.position}, base {census.base}"
        )
    return _frequencies(census)


def benford_frequencies() -> np.ndarray:
    """Expected first-digit frequencies log10(1 + 1/n), n = 1..9."""
    return law.first_digit_distribution(10).as_array()


def chi_square(census: DigitCensus) -> float:
    """Chi-square statistic of the census against the first-digit law."""
    observed = _check_testable(census)
    expected = benford_frequencies()
    terms = (expected - observed) ** 2 / expected
    return math.fsum(terms.tolist()) * census.sample_size


def tvd_benford(census: DigitCensus) -> float:
    """Total variation distance d1 between a first-digit census, in any
    base, and the first-digit law log_b(1 + 1/n) of that base."""
    if census.position != 1:
        raise DomainError(
            f"d1 needs a first-digit census, got position {census.position}"
        )
    expected = law.first_digit_distribution(census.base).as_array()
    deviations = np.abs(_frequencies(census) - expected)
    return 0.5 * math.fsum(deviations.tolist())


def max_deviation(census: DigitCensus) -> tuple[float, int]:
    """Largest per-digit |observed - expected| frequency and its digit.

    Ties go to the smaller digit.
    """
    observed = _check_testable(census)
    deviations = np.abs(observed - benford_frequencies())
    best_digit, best = 1, -1.0
    for digit, dev in zip(census.support, deviations):
        if dev > best:
            best, best_digit = float(dev), digit
    return best, best_digit


def full_report(census: DigitCensus) -> GofReport:
    """Run all three tests and form verdicts at the 5% and 1% levels."""
    _check_testable(census)
    chi2 = chi_square(census)
    d_max, d_max_digit = max_deviation(census)
    return GofReport(
        chi_square=chi2,
        d1=tvd_benford(census),
        d_max=d_max,
        d_max_digit=d_max_digit,
        verdict_5pct="reject" if chi2 > CHI2_CRITICAL_5PCT else "accept",
        verdict_1pct="reject" if chi2 > CHI2_CRITICAL_1PCT else "accept",
    )


def _expected_frequencies(census: DigitCensus) -> Optional[list[float]]:
    if census.base == 10:
        return list(law.marginal_distribution(census.position).probabilities)
    if census.position == 1:
        return list(law.first_digit_distribution(census.base).probabilities)
    return None


@dataclass(frozen=True)
class HistogramRow:
    digit: int
    observed_freq: float
    expected_freq: Optional[float]


def _histogram(census: DigitCensus) -> tuple[HistogramRow, ...]:
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
    return tuple(rows)


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
    histogram = _histogram(doc.census)
    for r in histogram:
        header.append(f"count_{r.digit}")
        row.append(doc.census.count_of(r.digit))
    for r in histogram:
        header.append(f"observed_{r.digit}")
        row.append(round12(r.observed_freq))
    for r in histogram:
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
    for i, r in enumerate(_histogram(doc.census)):
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
