"""Differential tests of the series digit streams against exact
big-rational extraction, over bases 2-64: the certified alpha**n stream on
alphas on, next to and far from powers of the base, and every integer
series read by the running-power reader."""

from fractions import Fraction

import pytest

from benfordkit.sequences import SequenceSpec, alpha_power_digits
from benfordkit.significand import extract_digits_rational

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

# Largest alpha**n numerator, in decimal digits, an example may reach; it
# keeps the exact oracle to a few milliseconds a term.
MAX_TERM_DIGITS = 30_000


@st.composite
def _cases(draw):
    """(alpha, n, base): alpha an exact power of the base, 1 + 10**-m, or a
    ratio p/q of integers of up to 300 digits; n <= 300, fewer when the
    terms would pass MAX_TERM_DIGITS."""
    base = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(("power", "near_one", "ratio")))
    if kind == "power":
        alpha = Fraction(base) ** draw(st.integers(1, 4))
    elif kind == "near_one":
        alpha = 1 + Fraction(1, 10 ** draw(st.integers(1, 30)))
    else:
        p_digits = draw(st.integers(1, 300))
        q_digits = draw(st.integers(1, p_digits))
        p = draw(st.integers(10 ** (p_digits - 1), 10**p_digits - 1))
        q = draw(st.integers(10 ** (q_digits - 1), 10**q_digits - 1))
        alpha = Fraction(p if p > q else p + q, q)
    digits = len(str(alpha.numerator))
    n = draw(st.integers(1, max(1, min(300, MAX_TERM_DIGITS // digits))))
    return alpha, n, base


def _exact_digits(alpha: Fraction, n: int, base: int) -> list[int]:
    p, q = alpha.numerator, alpha.denominator
    return [extract_digits_rational(p**i, q**i, 1, base).first
            for i in range(1, n + 1)]


class TestAlphaPowerDifferential:
    @settings(max_examples=100, deadline=None)
    @given(_cases())
    def test_matches_exact_rational_extraction(self, case):
        alpha, n, base = case
        assert list(alpha_power_digits(alpha, n, base)) == _exact_digits(alpha, n, base)


# Parameters of each integer series kind, at sizes an exact oracle reads
# in milliseconds. Pascal rows past the base cross powers of it mid-row.
_INTEGER_SERIES = {
    "fibonacci": {"a1": st.integers(1, 9), "a2": st.integers(1, 9),
                  "terms": st.integers(1, 1500)},
    "primes": {"below": st.integers(2, 20000)},
    "factorial": {"n": st.integers(1, 400)},
    "power_n": {"k": st.integers(1, 60), "n": st.integers(1, 400)},
    "pascal": {"rows": st.integers(1, 90)},
}


@st.composite
def _integer_series(draw):
    kind = draw(st.sampled_from(sorted(_INTEGER_SERIES)))
    params = {name: draw(values) for name, values in _INTEGER_SERIES[kind].items()}
    return SequenceSpec(kind, params, draw(st.integers(2, 64)))


class TestIntegerSeriesDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_integer_series())
    @example(SequenceSpec("fibonacci", {"a1": 5, "a2": 1, "terms": 400}, 10))
    @example(SequenceSpec("fibonacci", {"a1": 5, "a2": 1, "terms": 400}, 2))
    @example(SequenceSpec("pascal", {"rows": 70}, 7))
    @example(SequenceSpec("pascal", {"rows": 70}, 64))
    def test_matches_exact_rational_extraction(self, spec):
        assert list(spec.digit_stream()) == [
            extract_digits_rational(v, 1, 1, spec.base).first
            for v in spec.value_stream()]
