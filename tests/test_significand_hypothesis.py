"""Differential tests of the exact integer log and rational digit extraction
against a pure-integer oracle, over bases 2-64 and exponents -400..400, and
of the base-10 digit read against the exact Fraction path."""

import math
from fractions import Fraction

import pytest

from benfordkit.errors import ZeroValue
from benfordkit.significand import (
    MAX_EXTRACT_DIGITS,
    ExactDecimal,
    _integer_log,
    digit_at,
    extract_digits,
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


@st.composite
def _decimals(draw):
    """Exact decimal records, some denormalized (leading zeros) and some
    with trailing zeros, over exponents -10**4..10**4."""
    body = draw(st.text("0123456789", min_size=1, max_size=25))
    digits = "0" * draw(st.integers(0, 3)) + body + "0" * draw(st.integers(0, 3))
    return ExactDecimal(
        draw(st.sampled_from((1, -1))), digits, draw(st.integers(-(10**4), 10**4))
    )


class TestDecimalReadDifferential:
    @settings(max_examples=400, deadline=None)
    @given(_decimals(), st.integers(1, MAX_EXTRACT_DIGITS))
    def test_matches_fraction_path(self, value, k):
        frac = value.as_fraction()
        if frac == 0:
            with pytest.raises(ZeroValue):
                digit_at(value, k, 10)
            with pytest.raises(ZeroValue):
                extract_digits(value, k, 10)
            return
        exact = extract_digits_rational(abs(frac.numerator), frac.denominator, k, 10)
        assert extract_digits(value, k, 10) == exact
        assert digit_at(value, k, 10) == exact.digits[k - 1]
