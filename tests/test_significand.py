import math
import random
import re
from collections import deque
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from benfordkit.errors import DomainError, MalformedToken, ZeroValue
from benfordkit.gof import DigitCensus, build_census
from benfordkit.ingest import census_from_text
from benfordkit.law import marginal_distribution, moments
from benfordkit.sequences import (
    SequenceSpec,
    alpha_power_digits,
    factorial_values,
    fibonacci_values,
)
from benfordkit.simulate import NoiseSpec, ProcessSpec
from benfordkit.significand import (
    MAX_BASE,
    MAX_EXTRACT_DIGITS,
    ExactDecimal,
    SignificantDigits,
    digit_at,
    extract_digits,
    extract_digits_rational,
    first_digit,
    parse_token,
)


class TestParseToken:
    def test_leading_zero_fraction(self):
        x = parse_token("0.150")
        assert x.digits == "150"
        assert x.exponent == 0
        assert x.as_fraction() == Fraction(150, 1000)

    def test_scientific_notation(self):
        x = parse_token("6.626e-34")
        assert x.digits == "6626"
        assert x.as_fraction() == Fraction(6626, 10**3) * Fraction(1, 10**34)

    def test_grouped_separators(self):
        x = parse_token("2,300", separators=True)
        assert x.digits == "2300"
        assert x.as_fraction() == 2300

    def test_separators_off_rejects_comma(self):
        with pytest.raises(MalformedToken):
            parse_token("2,300")

    def test_bad_grouping_rejected(self):
        with pytest.raises(MalformedToken):
            parse_token("1,23", separators=True)

    def test_plain_integer(self):
        assert parse_token("129").as_fraction() == 129

    def test_leading_plus(self):
        assert parse_token("+7.5").as_fraction() == Fraction(15, 2)

    def test_negative(self):
        x = parse_token("-0.25")
        assert x.sign == -1
        assert x.as_fraction() == Fraction(-1, 4)

    def test_lone_fraction(self):
        assert parse_token(".5").as_fraction() == Fraction(1, 2)

    @pytest.mark.parametrize("text", ["", "abc", "1.2.3", "--5", "1e", ".e5", "5.", "0x1f"])
    def test_malformed(self, text):
        with pytest.raises(MalformedToken):
            parse_token(text)

    @pytest.mark.parametrize("text", ["0", "0.00", "0e5", ".000"])
    def test_zero_tokens_parse(self, text):
        assert parse_token(text).is_zero

    def test_large_exponent_exact(self):
        x = parse_token("1.5e100")
        assert x.as_fraction() == Fraction(15, 10) * 10**100


class TestFormatRoundTrip:
    def test_examples(self):
        for text in ["0.150", "129", "-4.2e7", ".5", "0.00"]:
            x = parse_token(text)
            assert parse_token(str(x)) == x

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(500):
            ndigits = rng.randrange(1, 12)
            digits = str(rng.randrange(1, 10)) + "".join(
                str(rng.randrange(10)) for _ in range(ndigits - 1)
            )
            x = ExactDecimal(
                sign=rng.choice([1, -1]),
                digits=digits,
                exponent=rng.randrange(-60, 60),
            )
            assert parse_token(str(x)) == x

    @pytest.mark.parametrize("digits", ["\u00b2", "1\u00b23", "\u2460", "", "1a", "-1"])
    def test_digits_must_be_decimal(self, digits):
        # Superscripts and circled digits pass str.isdigit but are not
        # decimal digits.
        with pytest.raises(ValueError, match="decimal digits"):
            ExactDecimal(1, digits, 1)

    def test_unicode_decimal_digits_keep_their_value(self):
        # The token grammar's \d yields any Unicode decimal digit.
        x = ExactDecimal(1, "\u0663\u0661", 2)
        assert x.as_fraction() == 31
        assert digit_at(x, 1) == 3 and digit_at(x, 1, 16) == 1

    def test_denormalized_digits_round_trip_by_value(self):
        # Leading zeros normalize away on reparse; the value is preserved
        # and one parse/format pass reaches a fixed point.
        x = ExactDecimal(sign=1, digits="0123", exponent=5)
        y = parse_token(str(x))
        assert y.as_fraction() == x.as_fraction()
        assert parse_token(str(y)) == y


class TestExtractDigits:
    def test_first_digit_of_0_150(self):
        assert extract_digits(parse_token("0.150"), 1, 10).digits == (1,)

    def test_three_digits_of_129(self):
        sig = extract_digits(parse_token("129"), 3, 10)
        assert sig.digits == (1, 2, 9)
        assert sig.exponent == 2

    def test_hex_first_digit(self):
        sig = extract_digits(parse_token("255"), 1, 16)
        assert sig.digits == (15,)
        assert sig.exponent == 1

    def test_zero_raises(self):
        with pytest.raises(ZeroValue):
            extract_digits(parse_token("0.00"), 1, 10)

    def test_negative_uses_magnitude(self):
        assert extract_digits(parse_token("-129"), 2, 10).digits == (1, 2)

    def test_padding_beyond_mantissa(self):
        assert extract_digits(parse_token("15"), 4, 10).digits == (1, 5, 0, 0)

    def test_k_cap(self):
        with pytest.raises(DomainError):
            extract_digits(parse_token("5"), MAX_EXTRACT_DIGITS + 1, 10)
        with pytest.raises(DomainError):
            extract_digits(parse_token("5"), 0, 10)

    def test_base_validation(self):
        with pytest.raises(DomainError):
            extract_digits(parse_token("5"), 1, 1)

    def test_unit_interval_first_digit_is_floor(self):
        # For x in [1, base), the first digit is floor(x).
        for base in (2, 7, 10, 16):
            for num in range(base, 6 * base):
                x = Fraction(num, 6)
                if x < 1 or x >= base:
                    continue
                sig = extract_digits_rational(x.numerator, x.denominator, 1, base)
                assert sig.first == math.floor(x)
                assert sig.exponent == 0


class TestNegativePowers:
    # base**e is a float for negative e, so exact powers of ten sit on a
    # rounding edge and values below the smallest double overflow unless the
    # integer log compares in integers.
    @pytest.mark.parametrize("spelling", ["1e-{}", "1.0e-{}", "1.00E-{}"])
    def test_exact_negative_powers_of_ten(self, spelling):
        for n in range(1, 401):
            sig = extract_digits(parse_token(spelling.format(n)), 3, 10)
            assert (sig.digits, sig.exponent) == ((1, 0, 0), -n)

    def test_below_smallest_double(self):
        sig = extract_digits(parse_token("2.5e-350"), 2, 10)
        assert (sig.digits, sig.exponent) == ((2, 5), -350)


class TestDigitAt:
    def test_reads_stored_digits(self):
        x = parse_token("-6.626e-34")
        assert [digit_at(x, k) for k in range(1, 6)] == [6, 6, 2, 6, 0]

    def test_denormalized_record(self):
        # 0.0123 * 10**5 = 1230: the written leading zero is not a digit.
        x = ExactDecimal(1, "0123", 5)
        assert [digit_at(x, k) for k in (1, 2, 3, 4)] == [1, 2, 3, 0]
        sig = extract_digits(x, 4, 10)
        assert (sig.digits, sig.exponent) == ((1, 2, 3, 0), 3)

    def test_zero_and_position_errors(self):
        for zero in (parse_token("0.00"), ExactDecimal(-1, "000", 7)):
            with pytest.raises(ZeroValue):
                digit_at(zero, 1)
        for k in (0, MAX_EXTRACT_DIGITS + 1):
            with pytest.raises(DomainError):
                digit_at(parse_token("5"), k)
            with pytest.raises(DomainError):
                digit_at(parse_token("5"), k, 16)

    def test_zero_is_reported_before_the_position(self):
        # The position is checked after the zero test, and before any padding.
        for base in (10, 16):
            for k in (0, MAX_EXTRACT_DIGITS + 1, 10**12):
                with pytest.raises(ZeroValue):
                    digit_at(parse_token("0.00"), k, base)
                with pytest.raises(ZeroValue):
                    extract_digits(parse_token("0"), k, base)
                with pytest.raises(DomainError):
                    extract_digits(parse_token("5"), k, base)

    def test_other_unicode_decimal_digits(self):
        # The token grammar's \d matches any Unicode decimal digit; they
        # read as their values, leading zeros included.
        for text in ("\u0660\u0661\u0662", "\uff11\uff12", "\u0663.\u0664e2"):
            x = parse_token(text)
            frac = x.as_fraction()
            for base in (10, 16):
                exact = extract_digits_rational(frac.numerator, frac.denominator, 2, base)
                assert extract_digits(x, 2, base) == exact
                assert digit_at(x, 2, base) == exact.digits[1]


class TestBoundedCost:
    # Base 10 reads the stored digits, so a huge exponent costs nothing. A
    # Fraction of 9.5e999999999 would hold a billion-digit integer.
    @pytest.fixture(autouse=True)
    def no_fractions(self, monkeypatch):
        def refuse(self):
            raise AssertionError("base-10 extraction built a Fraction")

        monkeypatch.setattr(ExactDecimal, "as_fraction", refuse)

    @pytest.mark.parametrize(
        "token, digits, exponent",
        [("9.5e999999999", (9, 5), 999999999), ("1e-999999999", (1, 0), -999999999)],
    )
    def test_huge_exponents(self, token, digits, exponent):
        value = parse_token(token)
        assert digit_at(value, 1, 10) == digits[0]
        assert digit_at(value, 2, 10) == digits[1]
        sig = extract_digits(value, 2, 10)
        assert (sig.digits, sig.exponent) == (digits, exponent)

    def test_censuses(self):
        text = "9.5e999999999 1e-999999999 0e999999999"
        for census in (census_from_text(text), build_census(text.split())):
            assert census.counts == (1, 0, 0, 0, 0, 0, 0, 0, 1)
            assert census.exclusions == 1


def _leading_decimal_digit(n: int) -> int:
    """First decimal digit of n > 0 by integer arithmetic only (no str)."""
    power = 1
    while power * 10 <= n:
        power *= 10
    return n // power


class TestFirstDigitPastStrLimit:
    # CPython refuses str(int) past 4300 digits by default; the last
    # Fibonacci and factorial terms here have ~6270 and ~5736.
    @pytest.mark.parametrize(
        "values",
        [lambda: fibonacci_values(1, 1, 30000), lambda: factorial_values(2000)],
        ids=["fibonacci-30000", "factorial-2000"],
    )
    def test_last_terms_against_integer_oracle(self, values):
        last = deque(values(), maxlen=3)
        assert all(v > 10**4300 for v in last)
        for v in last:
            assert first_digit(v) == _leading_decimal_digit(v)
            assert first_digit(-v) == _leading_decimal_digit(v)


class TestExtractBigint:
    def test_examples(self):
        assert extract_digits_rational(1024, 1, 2, 10).digits == (1, 0)
        assert extract_digits_rational(120, 1, 1, 10).digits == (1,)

    def test_fibonacci_term_by_recursion_oracle(self):
        a, b = 1, 1
        for _ in range(29):
            a, b = b, a + b
        assert a == 832040
        assert extract_digits_rational(a, 1, 1, 10).digits == (8,)

    def test_zero(self):
        with pytest.raises(ZeroValue):
            extract_digits_rational(0, 1, 1, 10)

    @pytest.mark.parametrize("base", [2, 3, 10, 16, 64])
    def test_exact_powers_of_base(self, base):
        # Boundary classification must be exact: b**m has first digit 1 and
        # exponent m; b**m - 1 has first digit base-1 and exponent m-1.
        for m in (1, 2, 5, 17, 40):
            sig = extract_digits_rational(base**m, 1, 1, base)
            assert (sig.first, sig.exponent) == (1, m)
            sig = extract_digits_rational(base**m - 1, 1, 1, base)
            assert (sig.first, sig.exponent) == (base - 1, m - 1)

    def test_decimal_digits_match_str(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 10**30)
            k = rng.randrange(1, 10)
            digits = extract_digits_rational(n, 1, k, 10).digits
            expect = (str(n) + "0" * k)[:k]
            assert "".join(map(str, digits)) == expect


class TestScaleShift:
    def test_power_of_ten_shift_on_tokens(self):
        rng = random.Random(11)
        for _ in range(100):
            x = parse_token(f"{rng.randrange(1, 10**6)}.{rng.randrange(10**4)}")
            k = rng.randrange(1, 6)
            base_sig = extract_digits(x, k, 10)
            for m in (-7, -1, 1, 12):
                shifted = extract_digits(replace(x, exponent=x.exponent + m), k, 10)
                assert shifted.digits == base_sig.digits
                assert shifted.exponent == base_sig.exponent + m

    @pytest.mark.parametrize("base", [2, 7, 10, 16])
    def test_base_power_scaling_of_integers(self, base):
        rng = random.Random(base)
        for _ in range(50):
            n = rng.randrange(1, 10**12)
            k = rng.randrange(1, 5)
            sig = extract_digits_rational(n, 1, k, base)
            for m in (1, 3, 9):
                scaled = extract_digits_rational(n * base**m, 1, k, base)
                assert scaled.digits == sig.digits
                assert scaled.exponent == sig.exponent + m

    def test_rational_scaling_via_token(self):
        # 0.15 * 3**4 = 12.15 exactly; leading base-3 digits must agree.
        x = parse_token("0.15")
        y = parse_token("12.15")
        assert (
            extract_digits(x, 3, 3).digits == extract_digits(y, 3, 3).digits
        )


class TestConcatenationConsistency:
    def test_prefix_property(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(1, 10**15)
            base = rng.choice([2, 8, 10, 16])
            k = rng.randrange(2, 8)
            full = extract_digits_rational(n, 1, k, base)
            prefix = extract_digits_rational(n, 1, k - 1, base)
            assert full.digits[: k - 1] == prefix.digits
            assert full.exponent == prefix.exponent


class TestSignificantDigitsType:
    def test_invariants(self):
        # The base rule and the digit rule of significand, each digit at its
        # position; 1.5 and 2.0 are not digits, and 10**6 is past MAX_BASE.
        for base, digits in [(10, (0, 1)), (10, (10,)), (1, (1,)), (10, ()),
                             (10, (1.5, 2.0)), (10**6, (1,))]:
            with pytest.raises(DomainError):
                SignificantDigits(base=base, digits=digits, exponent=0)
        assert SignificantDigits(MAX_BASE, (MAX_BASE - 1, 0), 3).first == MAX_BASE - 1


class TestHelpers:
    def test_first_digit(self):
        assert first_digit(832040) == 8
        assert first_digit(-300) == 3
        assert first_digit(255, 16) == 15
        with pytest.raises(ZeroValue):
            first_digit(0)

    def test_first_digit_takes_integers_only(self):
        assert first_digit(np.int64(-300)) == 3
        assert first_digit(np.uint8(255), 16) == 15
        for value, base in ((0.5, 10), (0.5, 16), (300.0, 10)):
            with pytest.raises(TypeError):
                first_digit(value, base)
        with pytest.raises(DomainError):
            first_digit(5, 1)

    def test_from_float_reads_shortest_decimal(self):
        assert ExactDecimal.from_float(0.1).as_fraction() == Fraction(1, 10)
        assert ExactDecimal.from_float(-2.5).as_fraction() == Fraction(-5, 2)
        assert ExactDecimal.from_float(np.float32(0.1)) == ExactDecimal.from_float(
            float(np.float32(0.1)))
        # A float would round these; 0.99999999999999999 would read as 1.
        for value in (float("inf"), Decimal("0.99999999999999999"), Fraction(1, 3)):
            with pytest.raises(MalformedToken):
                ExactDecimal.from_float(value)

    def test_from_int(self):
        assert ExactDecimal.from_int(-129).as_fraction() == -129
        assert ExactDecimal.from_int(0).is_zero

    def test_past_str_digit_limit(self):
        # CPython refuses int <-> str past 4300 digits; these go through
        # Decimal, which has no such limit.
        big = 7 * 10**5000 + 3
        value = ExactDecimal.from_int(-big)
        assert (value.sign, len(value.digits), value.exponent) == (-1, 5001, 5001)
        assert value.as_fraction() == -big
        assert ExactDecimal(1, "9" * 5000, 2).as_fraction() == Fraction(10**5000 - 1, 10**4998)
        for base in (10, 16, 7):
            census = build_census([10**5000, -big], 1, base)
            counts = [0] * (base - 1)
            for v in (10**5000, big):
                counts[extract_digits_rational(v, 1, 1, base).first - 1] += 1
            assert census.counts == tuple(counts)

    def test_str_rendering(self):
        assert str(parse_token("0.150")) == "0.150"
        assert str(parse_token("129")) == "129"


class TestDomainRules:
    """Every entry point that takes a base or a position applies the one
    base and position rule, with its one wording."""

    BASE_ENTRY_POINTS = {
        "build_census": lambda base: build_census([5], 1, base),
        "DigitCensus.empty": lambda base: DigitCensus.empty(1, base),
        "first_digit": lambda base: first_digit(5, base),
        "extract_digits_rational": lambda base: extract_digits_rational(5, 1, 1, base),
        "alpha_power_digits": lambda base: list(alpha_power_digits("3/2", 3, base)),
        "SequenceSpec": lambda base: SequenceSpec("primes", {"below": 10}, base),
        "ProcessSpec": lambda base: ProcessSpec(
            "multiplicative", NoiseSpec("constant", (2.0,)), 1, 1, base=base),
        "marginal_distribution": lambda base: marginal_distribution(1, base),
    }
    POSITION_ENTRY_POINTS = {
        "digit_at": lambda k: digit_at(parse_token("5"), k),
        "extract_digits": lambda k: extract_digits(parse_token("5"), k, 16),
        "moments": moments,
    }

    @pytest.mark.parametrize("entry", BASE_ENTRY_POINTS)
    @pytest.mark.parametrize("base, message", [
        (1, "base must be >= 2, got 1"),
        (MAX_BASE + 1, f"base must be <= {MAX_BASE}, got {MAX_BASE + 1}"),
    ])
    def test_base_outside_range(self, entry, base, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            self.BASE_ENTRY_POINTS[entry](base)

    @pytest.mark.parametrize("entry", BASE_ENTRY_POINTS)
    def test_largest_base_accepted(self, entry):
        self.BASE_ENTRY_POINTS[entry](MAX_BASE)

    @pytest.mark.parametrize("entry", POSITION_ENTRY_POINTS)
    @pytest.mark.parametrize("position, message", [
        (0, "position must be >= 1, got 0"),
        (MAX_EXTRACT_DIGITS + 1,
         f"position must be <= {MAX_EXTRACT_DIGITS}, got {MAX_EXTRACT_DIGITS + 1}"),
    ])
    def test_position_outside_range(self, entry, position, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            self.POSITION_ENTRY_POINTS[entry](position)
