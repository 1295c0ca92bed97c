"""First-digit conformance tests: chi-square, total variation, max deviation.

The chi-square statistic is written exactly as the screening formula uses
it, over frequencies and scaled by the sample size:

    chi2 = S * sum_n (log10(1 + 1/n) - count_n/S)**2 / log10(1 + 1/n)

which is the Pearson statistic with the first-digit law as the expected
distribution. Verdicts compare against the fixed 8-degree-of-freedom
critical values; no chi-square CDF is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from . import law
from .errors import DomainError, EmptyCensus, ZeroValue
from .significand import MAX_EXTRACT_DIGITS, ExactDecimal, digit_at, parse_token

CHI2_CRITICAL_5PCT = 15.51
CHI2_CRITICAL_1PCT = 20.09
DEGREES_OF_FREEDOM = 8


def digit_support(position: int, base: int) -> tuple[int, ...]:
    """Possible digit values at a significant-digit position."""
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if position < 1:
        raise DomainError(f"position must be >= 1, got {position}")
    if position > MAX_EXTRACT_DIGITS:
        raise DomainError(f"position must be <= {MAX_EXTRACT_DIGITS}, got {position}")
    return tuple(range(1, base)) if position == 1 else tuple(range(base))


@dataclass(frozen=True)
class DigitCensus:
    """Counts of one significant-digit position's values over a sample.

    A value type: merging two censuses adds counts elementwise, and merge
    order never matters, so partial censuses built concurrently pool into
    the same result as a single pass.
    """

    position: int
    base: int
    counts: tuple[int, ...]
    exclusions: int = 0

    def __post_init__(self) -> None:
        support = digit_support(self.position, self.base)
        if len(self.counts) != len(support):
            raise ValueError(
                f"counts must have {len(support)} entries for position "
                f"{self.position} base {self.base}, got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if self.exclusions < 0:
            raise ValueError("exclusions must be non-negative")

    @classmethod
    def empty(cls, position: int = 1, base: int = 10) -> "DigitCensus":
        return cls(position, base, (0,) * len(digit_support(position, base)))

    @classmethod
    def from_digits(
        cls, digits: Iterable[int], position: int = 1, base: int = 10
    ) -> "DigitCensus":
        """Count an iterable of already-extracted digit values."""
        support = digit_support(position, base)
        offset = support[0]
        counts = [0] * len(support)
        for d in digits:
            if d < offset or d >= base:
                raise DomainError(
                    f"digit {d} outside support {support[0]}..{base - 1}"
                )
            counts[d - offset] += 1
        return cls(position, base, tuple(counts))

    @property
    def support(self) -> tuple[int, ...]:
        return digit_support(self.position, self.base)

    @property
    def sample_size(self) -> int:
        return sum(self.counts)

    def count_of(self, digit: int) -> int:
        return self.counts[self.support.index(digit)]

    def frequencies(self) -> np.ndarray:
        if self.sample_size == 0:
            raise EmptyCensus("census has no counted values")
        return np.asarray(self.counts, dtype=np.float64) / self.sample_size

    def merge(self, other: "DigitCensus") -> "DigitCensus":
        if (other.position, other.base) != (self.position, self.base):
            raise DomainError("cannot merge censuses of different position/base")
        counts = tuple(a + b for a, b in zip(self.counts, other.counts))
        return DigitCensus(
            self.position, self.base, counts, self.exclusions + other.exclusions
        )

    __add__ = merge


Value = Union[ExactDecimal, int, float, str]


def _coerce(value: Value, separators: bool) -> ExactDecimal:
    if isinstance(value, ExactDecimal):
        return value
    if isinstance(value, str):
        return parse_token(value, separators=separators)
    if isinstance(value, int):
        return ExactDecimal.from_int(value)
    return ExactDecimal.from_float(value)


def count_digits(
    values: Iterable[ExactDecimal | None], position: int = 1, base: int = 10
) -> DigitCensus:
    """Census of the ``position``-th significant digit of exact values.

    The counting loop every value census goes through, and the one place
    an exclusion is counted: a zero value has no significant digit, and a
    ``None`` item stands for an input item with no value (a skipped token,
    a cell that is not a numeric token); both land in the exclusions tally.
    """
    support = digit_support(position, base)
    offset = support[0]
    counts = [0] * len(support)
    exclusions = 0
    for value in values:
        if value is None:
            exclusions += 1
            continue
        try:
            digit = digit_at(value, position, base)
        except ZeroValue:
            exclusions += 1
            continue
        counts[digit - offset] += 1
    return DigitCensus(position, base, tuple(counts), exclusions)


def build_census(
    values: Iterable[Value],
    position: int = 1,
    base: int = 10,
    *,
    separators: bool = False,
) -> DigitCensus:
    """Census of the ``position``-th significant digit across raw values.

    Accepts exact decimals, ints, floats, or token strings. Zero values
    have no significant digit and land in the exclusions tally. An empty
    stream yields an empty census (statistics on it raise EmptyCensus).
    """
    return count_digits((_coerce(v, separators) for v in values), position, base)


def _check_testable(census: DigitCensus) -> np.ndarray:
    if census.position != 1 or census.base != 10:
        raise DomainError(
            "conformance tests run on first-digit, base-10 censuses only; "
            f"got position {census.position}, base {census.base}"
        )
    return census.frequencies()


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
    deviations = np.abs(census.frequencies() - expected)
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


@dataclass(frozen=True)
class GofReport:
    """All three conformance statistics plus accept/reject verdicts."""

    chi_square: float
    d1: float
    d_max: float
    d_max_digit: int
    sample_size: int
    observed_freq: tuple[float, ...]
    expected_freq: tuple[float, ...]
    verdict_5pct: str
    verdict_1pct: str

    def accepted(self, level: int = 5) -> bool:
        verdict = self.verdict_5pct if level == 5 else self.verdict_1pct
        return verdict == "accept"


def full_report(census: DigitCensus) -> GofReport:
    """Run all three tests and form verdicts at the 5% and 1% levels."""
    observed = _check_testable(census)
    chi2 = chi_square(census)
    d_max, d_max_digit = max_deviation(census)
    return GofReport(
        chi_square=chi2,
        d1=tvd_benford(census),
        d_max=d_max,
        d_max_digit=d_max_digit,
        sample_size=census.sample_size,
        observed_freq=tuple(float(x) for x in observed),
        expected_freq=tuple(float(x) for x in benford_frequencies()),
        verdict_5pct="reject" if chi2 > CHI2_CRITICAL_5PCT else "accept",
        verdict_1pct="reject" if chi2 > CHI2_CRITICAL_1PCT else "accept",
    )
