"""The digit rule, `significand.digit_slot`, as every per-digit lookup applies
it: counting a digit, reading its count, and its probability under the law.

Each site either accepts a digit, with the slot, count and probability the
digit's integer value gives, or raises a short DomainError; they never
disagree on the same digit, whatever its type.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from benfordkit.errors import DomainError
from benfordkit.gof import DigitCensus
from benfordkit.law import first_digit_prob, joint_prob, marginal_distribution
from benfordkit.significand import digit_slot, digit_support

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


@lru_cache(maxsize=None)
def _numbered_census(position, base):
    """A census whose count at slot i is i + 1."""
    size = len(digit_support(position, base))
    return DigitCensus(position, base, tuple(range(1, size + 1)))


@st.composite
def _cases(draw):
    base = draw(st.one_of(st.integers(2, 64), st.just(100_000)))
    position = draw(st.integers(1, 3))
    near = st.integers(-3, base + 3)
    digit = draw(st.one_of(near, st.booleans(),
                           st.builds(lambda t, v: t(v), st.sampled_from([np.int64, np.int32]),
                                     near),
                           st.sampled_from([1.5, 2.0, None])))
    return position, base, digit


def _sites(position, base, digit):
    """Each lookup that applies at this position and base, by name."""
    sites = {
        "from_digits": lambda: DigitCensus.from_digits([digit], position, base),
        "count_of": lambda: _numbered_census(position, base).count_of(digit),
    }
    if position == 1 or base == 10:
        sites["prob"] = lambda: marginal_distribution(position, base).prob(digit)
    if position == 1:
        sites["first_digit_prob"] = lambda: first_digit_prob(digit, base)
    if base == 10:
        sites["joint_prob"] = lambda: joint_prob((1,) * (position - 1) + (digit,))
    return sites


@settings(max_examples=400, deadline=None)
@given(_cases())
@hypothesis.example((1, 10, 1.5))
@hypothesis.example((1, 10, 2.0))
@hypothesis.example((2, 10, 0))
@hypothesis.example((1, 100_000, 0))
def test_every_site_applies_the_same_digit_rule(case):
    position, base, digit = case
    lo = 1 if position == 1 else 0
    valid = isinstance(digit, (int, np.integer)) and lo <= int(digit) < base
    outcomes = {}
    for name, site in _sites(position, base, digit).items():
        try:
            outcomes[name] = site()
        except DomainError as exc:
            assert len(str(exc)) <= 100, (name, str(exc))
            outcomes[name] = DomainError
    if not valid:
        assert set(outcomes.values()) == {DomainError}, outcomes
        return
    value, slot = int(digit), int(digit) - lo
    census = outcomes["from_digits"]
    assert census.counts[slot] == 1 and census.sample_size == 1
    assert outcomes["count_of"] == slot + 1
    if "prob" in outcomes:
        assert outcomes["prob"] == marginal_distribution(position, base).probabilities[slot]
    if "first_digit_prob" in outcomes:
        assert outcomes["first_digit_prob"] == math.log1p(1.0 / value) / math.log(base)
        assert outcomes["first_digit_prob"] == outcomes["prob"]
    if "joint_prob" in outcomes:
        m = int("1" * (position - 1) + str(value))
        assert outcomes["joint_prob"] == math.log1p(1.0 / m) / math.log(10)


@pytest.mark.parametrize("digit, position, base, message", [
    (0, 1, 10, "digit at position 1 must be an integer in 1..9, got 0"),
    (10, 2, 10, "digit at position 2 must be an integer in 0..9, got 10"),
    (1.5, 1, 100_000, "digit at position 1 must be an integer in 1..99999, got 1.5"),
    (None, 3, 7, "digit at position 3 must be an integer in 0..6, got None"),
    (10**5000, 1, 10, "digit at position 1 must be an integer in 1..9, got a 16610-bit integer"),
], ids=["zero-first", "ten-deeper", "float", "none", "past-str-limit"])
def test_rejection_names_the_range(digit, position, base, message):
    with pytest.raises(DomainError) as info:
        digit_slot(digit, position, base)
    assert str(info.value) == message


def test_from_digits_checks_each_distinct_digit_once():
    census = DigitCensus.from_digits([3, True, np.int64(3), 9, 1], 1, 10)
    assert census.counts == (2, 0, 2, 0, 0, 0, 0, 0, 1)
    with pytest.raises(DomainError, match="got 1.5$"):
        DigitCensus.from_digits([1, 2, 1.5, 2], 1, 10)
