import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from benfordkit import sequences
from benfordkit.errors import DomainError
from benfordkit.sequences import (
    DEFAULT_FIBONACCI_SEEDS,
    DEFAULT_FIBONACCI_TERMS,
    PRIME_BOUND_CAP,
    SequenceSpec,
    alpha_power_digits,
    alpha_power_values,
    factorial_digits,
    factorial_values,
    fibonacci_digits,
    fibonacci_values,
    n_power_digits,
    n_power_values,
    pascal_digits,
    pascal_values,
    prime_digits,
    prime_values,
)
from benfordkit.significand import extract_digits_bigint, extract_digits_rational


def digit_of_fraction(x: Fraction, base: int = 10) -> int:
    return extract_digits_rational(x.numerator, x.denominator, 1, base).first


class TestFibonacci:
    def test_first_five_digits(self):
        assert list(fibonacci_digits(1, 2, 5)) == [1, 2, 3, 5, 8]

    def test_term_eleven_is_144(self):
        values = list(fibonacci_values(1, 2, 11))
        assert values[10] == 144
        assert list(fibonacci_digits(1, 2, 11))[10] == 1

    def test_recursion_oracle(self):
        values = list(fibonacci_values(3, 7, 50))
        for i in range(2, 50):
            assert values[i] == values[i - 1] + values[i - 2]

    def test_validation(self):
        with pytest.raises(DomainError):
            list(fibonacci_values(0, 1, 5))
        with pytest.raises(DomainError):
            list(fibonacci_values(1, 1, 0))

    def test_default_suite_shape(self):
        assert len(DEFAULT_FIBONACCI_SEEDS) == 7
        assert DEFAULT_FIBONACCI_TERMS == 1474


class TestPrimes:
    def test_below_ten(self):
        assert list(prime_values(10)) == [2, 3, 5, 7]
        assert list(prime_digits(10)) == [2, 3, 5, 7]

    def test_count_below_1000(self):
        assert sum(1 for _ in prime_values(1000)) == 168

    def test_strictly_below(self):
        assert 97 in list(prime_values(98))
        assert 97 not in list(prime_values(97))

    def test_validation(self):
        with pytest.raises(DomainError):
            list(prime_values(1))
        with pytest.raises(DomainError):
            list(prime_values(PRIME_BOUND_CAP + 1))

    def test_primality_oracle(self):
        primes = set(prime_values(500))
        for n in range(2, 500):
            is_prime = all(n % d for d in range(2, int(math.isqrt(n)) + 1))
            assert (n in primes) == is_prime


class TestFactorial:
    def test_small_values(self):
        assert list(factorial_values(5)) == [1, 2, 6, 24, 120]
        assert list(factorial_digits(5)) == [1, 2, 6, 2, 1]

    def test_against_math_factorial(self):
        values = list(factorial_values(100))
        rng = random.Random(1)
        for n in rng.sample(range(1, 101), 30):
            assert values[n - 1] == math.factorial(n)

    def test_validation(self):
        with pytest.raises(DomainError):
            list(factorial_values(0))


class TestNPower:
    def test_examples(self):
        assert list(n_power_digits(2, 10)) == [1, 4, 9, 1, 2, 3, 4, 6, 8, 1]
        assert list(n_power_values(3, 4)) == [1, 8, 27, 64]

    def test_validation(self):
        with pytest.raises(DomainError):
            list(n_power_values(0, 5))
        with pytest.raises(DomainError):
            list(n_power_values(2, 0))


class TestPascal:
    def test_three_rows(self):
        assert list(pascal_values(3)) == [1, 1, 1, 1, 2, 1]
        assert list(pascal_digits(3)) == [1, 1, 1, 1, 2, 1]

    def test_five_rows_contains_six(self):
        assert 6 in list(pascal_values(5))

    def test_against_comb_oracle(self):
        stream = pascal_values(25)
        for n in range(25):
            for r in range(n + 1):
                assert next(stream) == math.comb(n, r)

    def test_validation(self):
        with pytest.raises(DomainError):
            list(pascal_values(0))


class TestAlphaPower:
    def test_powers_of_two(self):
        assert list(alpha_power_digits(2, 10)) == [2, 4, 8, 1, 3, 6, 1, 2, 5, 1]

    def test_exact_base_powers_all_lead_one(self):
        assert list(alpha_power_digits(10, 30)) == [1] * 30
        assert list(alpha_power_digits(16, 20, base=16)) == [1] * 20

    def test_non_decimal_base(self):
        # 2**n in hex: leading digit cycles 2, 4, 8, 1.
        assert list(alpha_power_digits(2, 8, base=16)) == [2, 4, 8, 1, 2, 4, 8, 1]

    def test_against_exact_rational_oracle(self):
        alpha = Fraction(3, 2)
        digits = list(alpha_power_digits(alpha, 200))
        exact = [digit_of_fraction(x) for x in alpha_power_values(alpha, 200)]
        assert digits == exact

    def test_oracle_in_base_seven(self):
        alpha = Fraction(5, 4)
        digits = list(alpha_power_digits(alpha, 150, base=7))
        exact = [digit_of_fraction(x, 7) for x in alpha_power_values(alpha, 150)]
        assert digits == exact

    def test_string_and_fraction_alphas_agree(self):
        a = list(alpha_power_digits("1.007", 50))
        b = list(alpha_power_digits(Fraction(1007, 1000), 50))
        assert a == b

    def test_validation(self):
        for bad in (1, Fraction(1, 2), "0.5", "1"):
            with pytest.raises(DomainError):
                alpha_power_digits(bad, 5)
        with pytest.raises(DomainError):
            alpha_power_digits(2, 0)
        with pytest.raises(DomainError):
            alpha_power_digits(2, 5, base=1)

    def test_values_are_exact_rationals(self):
        values = list(alpha_power_values(Fraction(1007, 1000), 5))
        assert values[0] == Fraction(1007, 1000)
        assert values[4] == Fraction(1007, 1000) ** 5


class TestAlphaPowerBracket:
    """The truncated-product bracket is held in the output base, so the
    exact fallback fires only where the bracket cannot decide."""

    @staticmethod
    def _count_fallbacks(monkeypatch):
        calls = []
        exact = sequences._exact_alpha_digit

        def counting(alpha, n, base):
            calls.append(n)
            return exact(alpha, n, base)

        monkeypatch.setattr(sequences, "_exact_alpha_digit", counting)
        return calls

    @pytest.mark.parametrize("alpha, base", [(16, 16), (2, 2), (8, 2), (1000, 10)])
    def test_exact_base_powers_never_fall_back(self, alpha, base, monkeypatch):
        calls = self._count_fallbacks(monkeypatch)
        digits = list(alpha_power_digits(alpha, 300, base))
        assert calls == []
        assert digits == [digit_of_fraction(x, base)
                          for x in alpha_power_values(alpha, 300)]

    def test_forced_fallback_stays_exact(self, monkeypatch):
        # A 3-digit bracket cannot decide most terms; every digit must still
        # come out exact, through the fallback.
        monkeypatch.setattr(sequences, "PRODUCT_DIGITS", 3)
        calls = self._count_fallbacks(monkeypatch)
        for alpha, base in (("1.007", 10), ("3/2", 7)):
            calls.clear()
            digits = list(alpha_power_digits(alpha, 300, base))
            assert len(calls) >= 100
            assert digits == [digit_of_fraction(x, base)
                              for x in alpha_power_values(alpha, 300)]

    @pytest.mark.parametrize("base", [2, 7])
    def test_huge_alpha_needs_no_base_conversion(self, base, monkeypatch):
        def refuse(*args):
            raise AssertionError("extract_digits_rational called")

        monkeypatch.setattr(sequences, "extract_digits_rational", refuse)
        digits = list(alpha_power_digits(10**300 + 7, 100, base))
        monkeypatch.undo()
        assert digits == [digit_of_fraction(x, base)
                          for x in alpha_power_values(10**300 + 7, 100)]


class TestSampledDigitConsistency:
    """Every generator's digits match exact extraction on independently
    recomputed values at 100 random indices."""

    def _check(self, digits, oracle_values, base=10):
        digits = list(digits)
        rng = random.Random(99)
        indices = rng.sample(range(len(digits)), min(100, len(digits)))
        for i in indices:
            value = oracle_values(i)
            if isinstance(value, Fraction):
                expect = extract_digits_rational(
                    value.numerator, value.denominator, 1, base
                ).first
            else:
                expect = extract_digits_bigint(value, 1, base).first
            assert digits[i] == expect

    def test_fibonacci(self):
        def oracle(i):
            a, b = 2, 3
            for _ in range(i):
                a, b = b, a + b
            return a

        self._check(fibonacci_digits(2, 3, 400), oracle)

    def test_primes(self):
        primes = list(prime_values(30000))
        self._check(prime_digits(30000), lambda i: primes[i])

    def test_factorial(self):
        self._check(factorial_digits(300), lambda i: math.factorial(i + 1))

    def test_n_power(self):
        self._check(n_power_digits(7, 2000), lambda i: (i + 1) ** 7)

    def test_pascal(self):
        coords = [(n, r) for n in range(60) for r in range(n + 1)]
        self._check(pascal_digits(60), lambda i: math.comb(*coords[i]))

    def test_alpha_power_base_16(self):
        alpha = Fraction(1007, 1000)
        self._check(
            alpha_power_digits(alpha, 500, base=16),
            lambda i: alpha ** (i + 1),
            base=16,
        )


class TestSequenceSpec:
    def test_dispatch_matches_generators(self):
        spec = SequenceSpec("fibonacci", {"a1": 1, "a2": 2, "terms": 10})
        assert list(spec.digit_stream()) == list(fibonacci_digits(1, 2, 10))
        spec = SequenceSpec("primes", {"below": 100})
        assert list(spec.value_stream()) == list(prime_values(100))
        spec = SequenceSpec("power_alpha", {"alpha": "1.007", "n": 20})
        assert list(spec.digit_stream()) == list(alpha_power_digits("1.007", 20))
        spec = SequenceSpec("power_n", {"k": 2, "n": 5}, base=16)
        assert list(spec.digit_stream()) == list(n_power_digits(2, 5, base=16))
        spec = SequenceSpec("fibonacci", {"terms": 30}, base=16)
        assert list(spec.digit_stream()) == list(fibonacci_digits(1, 1, 30, base=16))
        spec = SequenceSpec("factorial", {"n": "40"})
        assert list(spec.digit_stream()) == list(factorial_digits(40))
        spec = SequenceSpec("pascal", {"rows": 9}, base=16)
        assert list(spec.value_stream()) == list(pascal_values(9))
        assert list(spec.digit_stream()) == list(pascal_digits(9, base=16))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            SequenceSpec("lucas", {})

    def test_missing_parameter(self):
        with pytest.raises(DomainError, match="^primes requires --below$"):
            list(SequenceSpec("primes", {}).digit_stream())
        with pytest.raises(DomainError, match="^power-n requires --k and --n$"):
            SequenceSpec("power_n", {}).value_stream()

    @pytest.mark.parametrize("kind, params, key", [
        ("fibonacci", {"terms": 5, "a_1": 3}, "a_1"),
        ("primes", {"below": 10, "rows": 3}, "rows"),
        ("power_alpha", {"alpha": "1.5", "n": 3, "k": 2}, "k"),
    ])
    def test_unknown_parameter_named(self, kind, params, key):
        with pytest.raises(DomainError, match=f"{kind} takes no parameter '{key}'"):
            SequenceSpec(kind, params)

    def test_config_typo_rejected(self):
        with pytest.raises(DomainError, match="'a_1'"):
            SequenceSpec.from_config("fibonacci\nterms = 5\na_1 = 3\n")

    def test_from_config(self):
        text = """
        # series selection
        kind = power_alpha
        alpha = 1007/1000
        n = 25
        base = 10
        """
        spec = SequenceSpec.from_config(text)
        assert spec.kind == "power_alpha"
        assert list(spec.digit_stream()) == list(
            alpha_power_digits(Fraction(1007, 1000), 25)
        )

    def test_from_config_bare_kind_line(self):
        spec = SequenceSpec.from_config("fibonacci\na1 = 1\na2 = 2\nterms = 5\n")
        assert list(spec.digit_stream()) == [1, 2, 3, 5, 8]

    def test_from_config_hyphenated_kind(self):
        spec = SequenceSpec.from_config("power-n\nk = 2\nn = 3\n")
        assert list(spec.digit_stream()) == [1, 4, 9]

    def test_from_config_errors(self):
        with pytest.raises(DomainError):
            SequenceSpec.from_config("# nothing here\n")
        with pytest.raises(DomainError):
            SequenceSpec.from_config("fibonacci\nprimes\n")
        with pytest.raises(DomainError, match="config base: not an integer: '1.5'"):
            SequenceSpec.from_config("fibonacci\nterms = 5\nbase = 1.5\n")

    def test_streams_are_lazy(self):
        stream = SequenceSpec("factorial", {"n": 10**6}).digit_stream()
        assert list(islice(stream, 3)) == [1, 2, 6]
