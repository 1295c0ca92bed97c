"""Differential test of the certified alpha**n digit stream against exact
big-rational extraction, over bases 2-64 and alphas on, next to and far
from powers of the base."""

from fractions import Fraction

import pytest

from benfordkit.sequences import alpha_power_digits
from benfordkit.significand import extract_digits_rational

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

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
