"""Differential tests of the power-of-the-base search against a plain
multiply loop, of the rational reader's exponent and digits
against a pure-integer oracle, over bases 2-MAX_BASE and exponents
-400..400, of the base-10 digit read against the exact Fraction path, of
the integer first digit and the integer stream reader against the rational
path, and of the one-shift read in bases 2**s against
``extract_digits_rational``."""

import _pydecimal
import decimal
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from benfordkit import significand
from benfordkit.errors import DomainError, ZeroValue
from benfordkit.significand import (
    MAX_BASE,
    MAX_EXTRACT_DIGITS,
    ExactDecimal,
    _first_digits,
    _power_at_most,
    digit_at,
    extract_digits,
    extract_digits_rational,
    first_digit,
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


def _oracle_power_at_most(v: int, base: int, seed: int) -> tuple[int, int]:
    """The largest seed * base**j at most v, and j, one multiplication at a time."""
    p, j = (seed if 0 < seed <= v else 1), 0
    while p * base <= v:
        p *= base
        j += 1
    return p, j


@st.composite
def _searches(draw):
    """v at or next to root * base**j, and a seed of 0, 1, root, one above v
    or any below root (far below v when j is large)."""
    base = draw(st.integers(2, MAX_BASE))
    root = draw(st.integers(1, 10**6))
    v = max(1, root * base ** draw(st.integers(0, 300)) + draw(st.sampled_from((-1, 0, 1))))
    seed = draw(st.one_of(st.sampled_from((0, 1, root, v + 1)), st.integers(1, root)))
    return v, base, seed


class TestPowerSearchDifferential:
    @settings(max_examples=400, deadline=None)
    @given(_searches())
    @hypothesis.example((MAX_BASE**40, MAX_BASE, MAX_BASE**39))
    @hypothesis.example((MAX_BASE**40 - 1, MAX_BASE, MAX_BASE**40))
    @hypothesis.example((2**64, 2, 0))
    def test_matches_multiply_loop(self, case):
        v, base, seed = case
        assert _power_at_most(v, base, seed) == _oracle_power_at_most(v, base, seed)


@st.composite
def _rationals(draw):
    """num/den = (a/b) * base**power + delta / den, clustered on and next to
    powers of the base; with a = b, below 1 the value is base**power or next
    to it."""
    base = draw(st.integers(2, MAX_BASE))
    power = draw(st.integers(-400, 400))
    a = draw(st.integers(1, 10**6))
    b = draw(st.one_of(st.just(a), st.integers(1, 10**6)))
    num, den = (a * base**power, b) if power >= 0 else (a, b * base**-power)
    num += draw(st.sampled_from((-1, 0, 1)))
    return max(num, 1), den, base


class TestIntegerLogDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_rationals())
    @hypothesis.example((1, 10**5, 10))
    @hypothesis.example((2, 2 * 7**300, 7))
    @hypothesis.example((1, MAX_BASE**40 - 1, MAX_BASE))
    @hypothesis.example((1, MAX_BASE**40 + 1, MAX_BASE))
    def test_integer_log_matches_oracle(self, case):
        num, den, base = case
        assert extract_digits_rational(num, den, 1, base).exponent == _oracle_log(num, den, base)

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


def _decimal_tuple(value: ExactDecimal) -> tuple[int, tuple[int, ...], int]:
    return int(value.sign < 0), tuple(map(int, value.digits)), value.exponent - len(value.digits)


@st.composite
def _records_at_any_exponent(draw):
    """Records with Unicode digits among some, exponents up to far past
    the C Decimal's range and some just inside and outside it."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    if draw(st.booleans()):
        digits = draw(st.text("0٣３", min_size=1, max_size=3)) + digits
    exponent = draw(st.one_of(st.integers(-30, 30), st.integers(-(10**25), 10**25),
                              st.sampled_from((10**18, 10**18 + 1, -(2 * 10**18), 2**62))))
    return ExactDecimal(draw(st.sampled_from((1, -1))), digits, exponent)


class TestStrDifferential:
    @settings(max_examples=400, deadline=None)
    @given(_decimals())
    @hypothesis.example(ExactDecimal(-1, "000", 7))
    @hypothesis.example(ExactDecimal(1, "0123", -4))
    def test_matches_c_decimal(self, value):
        assert str(value) == str(decimal.Decimal(_decimal_tuple(value)))

    @settings(max_examples=400, deadline=None)
    @given(_records_at_any_exponent())
    def test_matches_pure_python_decimal_at_any_exponent(self, value):
        # C Decimal refuses an exponent past about 10**18; the pure-Python
        # module has no such range and prints the same strings.
        assert str(value) == str(_pydecimal.Decimal(_decimal_tuple(value)))


@st.composite
def _terms(draw, base, max_digits, e=None):
    """A nonzero integer of up to ``max_digits`` decimal digits; half of them
    are d * base**e or one either side of it (e drawn when not given)."""
    top = int(max_digits / math.log10(base)) - 1
    e = draw(st.integers(0, top)) if e is None else e
    if draw(st.booleans()):
        value = draw(st.integers(base**e, base ** (e + 1) - 1))
    else:
        d = draw(st.integers(1, base - 1))
        value = max(1, d * base**e + draw(st.sampled_from((-1, 0, 1))))
    return draw(st.sampled_from((1, -1))) * value


@st.composite
def _integers(draw, max_digits):
    """A nonzero integer of up to ``max_digits`` decimal digits and a base in
    2-64."""
    base = draw(st.integers(2, 64))
    return draw(_terms(base, max_digits)), base


@st.composite
def _streams(draw, max_digits=3000):
    """A base in 2-64 and a stream of nonzero integers of up to
    ``max_digits`` decimal digits whose exponents walk by -2..2 or jump
    anywhere, read as walked, sorted up, sorted down or shuffled."""
    base = draw(st.integers(2, 64))
    top = int(max_digits / math.log10(base)) - 1
    moves = draw(st.lists(st.one_of(st.integers(-2, 2), st.integers(-top, top)),
                          min_size=1, max_size=40))
    e, values = draw(st.integers(0, top)), []
    for move in moves:
        e = min(max(e + move, 0), top)
        values.append(draw(_terms(base, max_digits, e)))
    order = draw(st.sampled_from(("walked", "up", "down", "shuffled")))
    if order == "shuffled":
        values = draw(st.permutations(values))
    elif order != "walked":
        values.sort(key=abs, reverse=order == "down")
    return values, base


def _rational_firsts(values, base):
    return [extract_digits_rational(abs(int(v)), 1, 1, base).first for v in values]


class TestFirstDigitDifferential:
    @settings(max_examples=400, deadline=None)
    @given(_integers(3000))
    def test_matches_rational_path(self, case):
        value, base = case
        assert first_digit(value, base) == extract_digits_rational(
            abs(value), 1, 1, base).first

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from((np.int16, np.int32, np.int64)))
    def test_numpy_integers(self, data, dtype):
        digits = len(str(np.iinfo(dtype).max)) - 1
        value, base = data.draw(_integers(digits))
        assert first_digit(dtype(value), base) == extract_digits_rational(
            abs(value), 1, 1, base).first
        lowest = int(np.iinfo(dtype).min)
        assert first_digit(dtype(lowest), base) == extract_digits_rational(
            -lowest, 1, 1, base).first

    def test_one_path_without_str_or_rational_fallback(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("first_digit left its one exact path")

        value = 7 * 10**1000 + 3
        leading_hex = int(hex(value)[2], 16)
        monkeypatch.setattr(significand, "extract_digits_rational", refuse)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert first_digit(value, 10) == 7
            assert first_digit(value, 16) == leading_hex
            assert first_digit(-value, 10) == 7
        finally:
            sys.set_int_max_str_digits(limit)


class TestStreamReaderDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_streams())
    def test_matches_rational_path(self, case):
        values, base = case
        assert list(_first_digits(values, base)) == _rational_firsts(values, base)

    def test_far_jumps_both_ways(self):
        for base in range(2, 65):
            values = [1, 7 * 10**3000, 2, -7 * 10**3000 + 1, base, base**2 - 1, base**900]
            assert list(_first_digits(values, base)) == _rational_firsts(values, base)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from((np.int8, np.int16, np.int32, np.int64)))
    def test_numpy_integers(self, data, dtype):
        info = np.iinfo(dtype)
        values, base = data.draw(_streams(len(str(info.max)) - 1))
        values = [dtype(v) for v in values]
        values.insert(data.draw(st.integers(0, len(values))), dtype(info.min))
        assert list(_first_digits(values, base)) == _rational_firsts(values, base)

    def test_far_jumps_take_one_power_each(self, monkeypatch):
        # 200000 decimal digits apart: a reader that moves one digit at a
        # time would take 200000 steps a jump.
        def refuse(*args):
            raise AssertionError("the stream reader left its one exact path")

        value = 7 * 10**200000
        leading_hex = value >> (value.bit_length() - 1) // 4 * 4
        monkeypatch.setattr(significand, "extract_digits_rational", refuse)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert list(_first_digits([1, value] * 5, 10)) == [1, 7] * 5
            assert list(_first_digits([value, -1] * 5, 16)) == [leading_hex, 1] * 5
        finally:
            sys.set_int_max_str_digits(limit)


@st.composite
def _power_of_two_streams(draw):
    """A base 2**s in 2..64 and nonzero integers b**k and b**k +- 1, or of a
    bit length that is a multiple of s (a top bit that is the last of a
    base digit); some negative, some numpy integers."""
    s = draw(st.integers(1, 6))
    base, values = 2**s, []
    for _ in range(draw(st.integers(1, 30))):
        if draw(st.booleans()):
            value = base ** draw(st.integers(0, 600)) + draw(st.sampled_from((-1, 0, 1)))
        else:
            bits = s * draw(st.integers(1, 600))
            value = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        value = max(value, 1) * draw(st.sampled_from((1, -1)))
        if -(2**63) <= value < 2**63 and draw(st.booleans()):
            value = np.int64(value)
        values.append(value)
    return values, base


class TestShiftReaderDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_power_of_two_streams())
    def test_matches_bigint_extraction(self, case):
        values, base = case
        assert list(_first_digits(values, base)) == [
            extract_digits_rational(abs(int(v)), 1, 1, base).first for v in values]

    @pytest.mark.parametrize("base", [2**s for s in range(1, 17)])
    def test_every_power_of_two_base_in_range_is_read_by_shift(self, base, monkeypatch):
        def refuse(*args):
            raise AssertionError("a power-of-two base left the shift read")

        monkeypatch.setattr(significand, "_carried_power_digits", refuse)
        values = [1, base - 1, base, (base - 1) * base**40 + 1]
        assert list(_first_digits(values, base)) == [1, base - 1, 1, base - 1]

    def test_zero_and_bases_out_of_range(self):
        with pytest.raises(ZeroValue):
            list(_first_digits([4, 0], 16))
        assert first_digit(5, 2) == 1
        # 2**17, the least power of two above MAX_BASE, takes the base rule.
        for base in (0, 1, 1 << MAX_BASE.bit_length()):
            with pytest.raises(DomainError, match="base"):
                first_digit(5, base)
