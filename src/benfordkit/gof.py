"""First-digit conformance tests: chi-square, total variation, max deviation.

The chi-square statistic is written exactly as the screening formula uses
it, over frequencies and scaled by the sample size:

    chi2 = S * sum_n (log10(1 + 1/n) - count_n/S)**2 / log10(1 + 1/n)

which is the Pearson statistic with the first-digit law as the expected
distribution. Verdicts compare against the fixed 8-degree-of-freedom
critical values; no chi-square CDF is involved.

`testable` is the one rule for which censuses the tests apply to, and
`compare_to_law` the one comparison of a census with the law. `full_report`
runs all three tests on its pairs with `math.fsum`; `tvd_benford` is the
one d1. Which positions, bases and digits a census may have is
`significand`'s rule; `digit_support` is re-exported from there.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Union

from . import law
from .errors import DomainError, EmptyCensus, ZeroValue
from .significand import (ExactDecimal, _lowest_digit, check_base, check_position,
                          digit_at, digit_slot, digit_support, parse_token)

CHI2_CRITICAL_5PCT = 15.51
CHI2_CRITICAL_1PCT = 20.09
DEGREES_OF_FREEDOM = 8
# Digits DigitCensus.from_digits takes at a time.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class DigitCensus:
    """Counts of one significant-digit position's values over a sample.

    A value type: merging two censuses adds counts and exclusions
    elementwise, and merge order never matters, so the censuses of a
    sample's parts pool into the census of the whole sample.
    """

    position: int
    base: int
    counts: tuple[int, ...]
    exclusions: int = 0

    def __post_init__(self) -> None:
        check_base(self.base)
        check_position(self.position)
        size = self.base - _lowest_digit(self.position)
        if len(self.counts) != size:
            raise ValueError(
                f"counts must have {size} entries for position "
                f"{self.position} base {self.base}, got {len(self.counts)}"
            )
        if min(self.counts) < 0:
            raise ValueError("counts must be non-negative")
        if self.exclusions < 0:
            raise ValueError("exclusions must be non-negative")

    @classmethod
    def empty(cls, position: int = 1, base: int = 10) -> "DigitCensus":
        check_base(base)  # before the tuple it sizes; __post_init__ checks the position
        return cls(position, base, (0,) * (base - _lowest_digit(position)))

    @classmethod
    def from_digits(
        cls, digits: Iterable[int], position: int = 1, base: int = 10
    ) -> "DigitCensus":
        """Count already-extracted digits, checking each distinct one once.

        Items are counted a slice at a time through ``operator.index``, so a
        non-integer equal to a digit (1.0) never merges with that digit's
        count: the slice it is in is read by the digit rule, which raises.
        """
        counts = list(cls.empty(position, base).counts)
        tally: Counter = Counter()
        items = iter(digits)
        while chunk := list(islice(items, _CHUNK)):
            try:
                tally.update(map(operator.index, chunk))
            except TypeError:
                for digit in chunk:
                    digit_slot(digit, position, base)
                raise
        for digit, count in tally.items():
            counts[digit_slot(digit, position, base)] += count
        return cls(position, base, tuple(counts))

    @property
    def support(self) -> tuple[int, ...]:
        return digit_support(self.position, self.base)

    @property
    def sample_size(self) -> int:
        return sum(self.counts)

    def count_of(self, digit: int) -> int:
        return self.counts[digit_slot(digit, self.position, self.base)]

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
    try:
        integer = operator.index(value)
    except TypeError:
        return ExactDecimal.from_float(value)
    return ExactDecimal.from_int(integer)


def count_digits(
    values: Iterable, position: int = 1, base: int = 10, read: Callable[..., int] = digit_at
) -> DigitCensus:
    """Census of the ``position``-th significant digit of values, each read
    by ``read(value, position, base)``: ``digit_at`` for exact values.

    The counting loop every value census goes through, and the one place
    an exclusion is counted: a zero value (``read`` raises ZeroValue) and a
    ``None`` item, an input item with no value (a skipped token, a cell
    that is not a numeric token), land in the exclusions tally.
    """
    counts = list(DigitCensus.empty(position, base).counts)
    offset = _lowest_digit(position)
    exclusions = 0
    for value in values:
        if value is None:
            exclusions += 1
            continue
        try:
            digit = read(value, position, base)
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

    Accepts exact decimals, integers and floats (numpy scalars too, so a
    numpy array's items), or token strings. Zero values have no
    significant digit and land in the exclusions tally. An empty stream
    yields an empty census (statistics on it raise EmptyCensus).
    """
    return count_digits((_coerce(v, separators) for v in values), position, base)


def testable(census: DigitCensus) -> bool:
    """Whether the conformance tests apply: to first-digit, base-10 censuses."""
    return census.position == 1 and census.base == 10


def compare_to_law(census: DigitCensus) -> Iterator[tuple[float, Optional[float]]]:
    """Each digit's observed frequency (0.0 in an empty census) and its
    probability under `law.marginal_distribution`, or None where that has
    no law, in support order; one lazy pass over the counts."""
    size = census.sample_size or 1  # in an empty census every count is 0
    try:
        expected = law.marginal_distribution(census.position, census.base).probabilities
    except DomainError:
        expected = (None,) * len(census.counts)
    return zip((count / size for count in census.counts), expected)


def tvd_benford(census: DigitCensus) -> float:
    """Total variation distance d1 between a first-digit census, in any
    base, and the first-digit law log_b(1 + 1/n) of that base."""
    if census.position != 1:
        raise DomainError(f"d1 needs a first-digit census, got position {census.position}")
    if not any(census.counts):
        raise EmptyCensus("census has no counted values")
    return 0.5 * math.fsum(abs(o - e) for o, e in compare_to_law(census))


@dataclass(frozen=True)
class GofReport:
    """All three conformance statistics plus accept/reject verdicts."""

    chi_square: float
    d1: float
    d_max: float
    d_max_digit: int
    verdict_5pct: str
    verdict_1pct: str

    def accepted(self, level: int = 5) -> bool:
        """Whether the chi-square test accepts at the 5% or the 1% level."""
        if level not in (5, 1):
            raise DomainError(f"level must be 5 or 1, got {level}")
        verdict = self.verdict_5pct if level == 5 else self.verdict_1pct
        return verdict == "accept"


def full_report(census: DigitCensus) -> GofReport:
    """Run all three tests and form verdicts at the 5% and 1% levels."""
    if not testable(census):
        raise DomainError(
            "conformance tests run on first-digit, base-10 censuses only; "
            f"got position {census.position}, base {census.base}"
        )
    d1 = tvd_benford(census)  # EmptyCensus on an empty census
    pairs = list(compare_to_law(census))
    chi2 = math.fsum((e - o) * (e - o) / e for o, e in pairs) * census.sample_size
    deviations = [abs(o - e) for o, e in pairs]
    d_max = max(deviations)
    return GofReport(
        chi_square=chi2,
        d1=d1,
        d_max=d_max,
        d_max_digit=deviations.index(d_max) + 1,  # the first of tied digits 1..9
        verdict_5pct="reject" if chi2 > CHI2_CRITICAL_5PCT else "accept",
        verdict_1pct="reject" if chi2 > CHI2_CRITICAL_1PCT else "accept",
    )
