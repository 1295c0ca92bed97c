"""Differential tests of the exact integer log and rational digit extraction
against a pure-integer oracle, over bases 2-64 and exponents -400..400."""

import math
from fractions import Fraction

import pytest

from benfordkit.significand import (
    MAX_EXTRACT_DIGITS,
    _integer_log,
    extract_digits_rational,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def _oracle_log(num: int, den: int, base: int) -> int:
    """Largest e with base**e <= num/den, by integer division and
    multiplication only."""
    e = 0
    if num >= den:
        q = num // den
        while q >= base:
            q //= base
            e += 1
    else:
        while num < den:
            num *= base
            e -= 1
    return e


def _oracle_digits(num: int, den: int, k: int, base: int) -> tuple[int, ...]:
    """First k digits of num/den by long division of its significand."""
    r = Fraction(num, den) / Fraction(base) ** _oracle_log(num, den, base)
    digits = []
    for _ in range(k):
        d = math.floor(r)
        digits.append(d)
        r = (r - d) * base
    return tuple(digits)


@st.composite
def _rationals(draw):
    """num/den = (a/b) * base**power + delta / den, clustered on and next to
    powers of the base."""
    base = draw(st.integers(2, 64))
    power = draw(st.integers(-400, 400))
    a = draw(st.integers(1, 10**6))
    b = draw(st.integers(1, 10**6))
    num, den = (a * base**power, b) if power >= 0 else (a, b * base**-power)
    num += draw(st.sampled_from((-1, 0, 1)))
    return max(num, 1), den, base


class TestIntegerLogDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_rationals())
    def test_integer_log_matches_oracle(self, case):
        num, den, base = case
        assert _integer_log(num, den, base) == _oracle_log(num, den, base)

    @settings(max_examples=200, deadline=None)
    @given(_rationals(), st.integers(1, MAX_EXTRACT_DIGITS))
    def test_extract_digits_rational_matches_oracle(self, case, k):
        num, den, base = case
        sig = extract_digits_rational(num, den, k, base)
        assert sig.exponent == _oracle_log(num, den, base)
        assert sig.digits == _oracle_digits(num, den, k, base)
