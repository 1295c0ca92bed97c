"""Differential tests of the series digit streams against exact big-rational
extraction: the certified alpha**n stream, in bases up to MAX_BASE, on
alphas on, next to and far from powers of the base, and every integer
series, in bases 2-64, read by the running-power reader. Each series read
by its structure has its own: the running-power reader over jumps of up to
400 digits, the certified float read of Pascal's rows against
``math.comb`` (and, past a few hundred rows, against rows built by the
additive rule) in bases up to MAX_BASE, n**k's stepped and jumped runs
(also with the jump forced on and off) against exact extraction in bases
up to MAX_BASE, and the segmented sieve, under segments of a few dozen
to a few thousand flags and at its own size, against a sieve over all
integers, its primes as they are and their digits read exactly in bases up
to MAX_BASE. The block census of primes
and Pascal equals a count of their public int streams, and ``generate``
prints, as its stream and its census, the exact digits of every kind's
values."""

import bisect
import contextlib
import io
import math
from collections import Counter
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest

from benfordkit import cli, sequences
from benfordkit.errors import DomainError, ZeroValue
from benfordkit.gof import DigitCensus
from benfordkit.sequences import (
    SequenceSpec, alpha_power_digits, n_power_digits, pascal_digits, prime_digits,
    prime_values)
from benfordkit.significand import MAX_BASE, _first_digits, extract_digits_rational

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

# Largest alpha**n numerator, in decimal digits, an example may reach; it
# keeps the exact oracle to a few milliseconds a term.
MAX_TERM_DIGITS = 30_000
_BASES = st.one_of(st.integers(2, 64), st.integers(65, MAX_BASE))


@st.composite
def _cases(draw):
    """(alpha, n, base): alpha an exact power of the base, next to one
    (base**k * (1 +- 10**-m), so terms sit next to digit boundaries and a
    step drops k base digits), 1 + 10**-m, or a ratio p/q of integers of up
    to 300 digits; n <= 300, fewer when the terms would pass
    MAX_TERM_DIGITS."""
    base = draw(_BASES)
    kind = draw(st.sampled_from(("power", "near_power", "near_one", "ratio")))
    if kind == "power":
        alpha = Fraction(base) ** draw(st.integers(1, 4))
    elif kind == "near_power":
        nudge = Fraction(draw(st.sampled_from((-1, 1))), 10 ** draw(st.integers(5, 40)))
        alpha = Fraction(base) ** draw(st.integers(1, 4)) * (1 + nudge)
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
    @example((100 * (1 - Fraction(1, 10**5)), 300, 10))
    @example((Fraction(MAX_BASE) ** 3 * (1 + Fraction(1, 10**40)), 300, MAX_BASE))
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
    "power_n": {"k": st.integers(1, 60), "n": st.integers(1, 5000)},
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


def _first(value: int, base: int) -> int:
    return extract_digits_rational(abs(int(value)), 1, 1, base).first


@st.composite
def _power_cases(draw):
    """(k, n, base): k up to 60, n up to 5000, a base up to MAX_BASE."""
    return draw(st.integers(1, 60)), draw(st.integers(1, 5000)), draw(_BASES)


class TestNPowerDifferential:
    """n**k's digits, stepped and jumped run by run, against exact extraction
    of every term."""

    @settings(max_examples=40, deadline=None)
    @given(_power_cases())
    # Terms on a boundary: n = base**j, and (d + 1) * base**e an exact k-th
    # power, as 20**2 = 400, 20**3 = 8000 and 1000**2 = 10 * MAX_BASE.
    @example((1, 5000, 10))
    @example((2, 400, 10))
    @example((3, 5000, 10))
    @example((1, 5000, 2))
    @example((2, 5000, 16))
    @example((7, 3000, 7))
    @example((1, 5000, MAX_BASE))
    @example((2, 5000, MAX_BASE))
    @example((60, 5000, 99_991))
    def test_matches_exact_rational_extraction(self, case):
        k, n, base = case
        assert list(n_power_digits(k, n, base)) == [
            _first(i**k, base) for i in range(1, n + 1)]

    @pytest.mark.parametrize("off, jump", [
        (0, -math.inf), (3, -math.inf), (-3, -math.inf), (0, math.inf),
    ], ids=["always-jump", "always-jump-estimate-3-over", "always-jump-estimate-3-under",
            "never-jump"])
    @settings(max_examples=15, deadline=None)
    @given(case=_power_cases())
    @example(case=(1, 5000, 10))
    @example(case=(2, 400, 10))
    def test_forced_path_gives_the_exact_stream(self, off, jump, case):
        """Every run jumped, from the estimate or from 3 terms past or short
        of it, which the exact powers must fix; or every term stepped."""
        k, n, base = case
        estimate = sequences._root_estimate
        with mock.patch.object(sequences, "_root_estimate", lambda *a: estimate(*a) + off), \
                mock.patch.object(sequences, "_JUMP", jump):
            digits = list(n_power_digits(k, n, base))
        assert digits == [_first(i**k, base) for i in range(1, n + 1)]


@st.composite
def _jumping_values(draw):
    """(values, base): nonzero integers d * base**e + offset whose exponent e
    moves by 0 to 400 digits a term, up and down; d = base is the next power
    and the offset is -1, 0, 1 or below base**e. Some are negative, and
    those that fit are numpy integers."""
    base = draw(st.one_of(st.integers(2, 64), st.integers(65, MAX_BASE)))
    e, values = draw(st.integers(0, 3)), []
    for _ in range(draw(st.integers(1, 30))):
        e = max(0, e + draw(st.one_of(st.integers(-2, 2), st.integers(-400, 400))))
        power = base**e
        offset = draw(st.one_of(st.sampled_from((-1, 0, 1)), st.integers(0, power - 1)))
        v = draw(st.integers(1, base)) * power + offset or 1
        v = -v if draw(st.booleans()) else v
        kinds = [kind for kind, bits in ((np.int32, 31), (np.int64, 63))
                 if -(2**bits) <= v < 2**bits]
        values.append(draw(st.sampled_from([int, *kinds]))(v))
    return values, base


class TestFirstDigitsDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_jumping_values())
    @example(([1, 10**400, 10**400 - 1, 10**800 + 1, 7, -(10**3)], 10))
    @example(([2**64, 3, 2**4000, 2**3999 - 1], 2))
    def test_matches_exact_rational_extraction(self, case):
        values, base = case
        assert list(_first_digits(values, base)) == [_first(v, base) for v in values]

    @settings(max_examples=50, deadline=None)
    @given(_jumping_values(), st.data())
    def test_zero_mid_stream_raises(self, case, data):
        values, base = case
        at = data.draw(st.integers(0, len(values)))
        zero = data.draw(st.sampled_from((0, np.int64(0))))
        stream = _first_digits(values[:at] + [zero] + values[at:], base)
        assert list(islice(stream, at)) == [_first(v, base) for v in values[:at]]
        with pytest.raises(ZeroValue):
            next(stream)


@st.composite
def _pascal_cases(draw):
    """(rows, base): up to 200 rows, odd and even counts, some at or next
    to a power of the base, so C(n, 1) = n sits on one. Bases past 64 have
    the closest digit boundaries: log_b(b) - log_b(b - 1) is about
    1 / (b ln b)."""
    base = draw(st.one_of(st.integers(2, 64), st.integers(65, MAX_BASE)))
    rows = draw(st.integers(1, 200))
    if base < 200 and draw(st.booleans()):
        k = draw(st.integers(1, max(k for k in range(1, 8) if base**k < 200)))
        rows = base**k + draw(st.sampled_from((-1, 0, 1)))
    return rows, base


def _additive_rule_digits(rows: int, base: int) -> list[int]:
    """First digits of Pascal's rows n < rows, read left to right: each row
    from the last by C(n, r) = C(n - 1, r - 1) + C(n - 1, r), each digit the
    term divided by the largest power of the base at most it."""
    powers = [1]
    while powers[-1].bit_length() <= rows:
        powers.append(powers[-1] * base)
    digits, row = [], [1]
    for n in range(rows):
        if n:
            row = [1, *map(sum, zip(row, row[1:])), 1]
        digits += [c // powers[bisect.bisect_right(powers, c) - 1] for c in row]
    return digits


class TestPascalDifferential:
    @settings(max_examples=40, deadline=None)
    @given(_pascal_cases())
    @example((1, 10))
    @example((2, 10))
    @example((200, 2))
    @example((199, 64))
    # Exact hits past r = 1, on a boundary d * base**k: C(5, 2) = 10,
    # C(6, 3) = 20, C(8, 4) = 70, C(25, 2) = 300 and C(9, 2) = 6**2.
    @example((6, 10))
    @example((7, 10))
    @example((9, 10))
    @example((26, 10))
    @example((10, 6))
    @example((200, MAX_BASE))
    def test_rows_in_order_match_comb(self, case):
        rows, base = case
        assert list(pascal_digits(rows, base)) == [
            _first(math.comb(n, r), base) for n in range(rows) for r in range(n + 1)]

    @settings(max_examples=2, deadline=None)
    @given(st.integers(300, 1500), st.one_of(st.integers(2, 64), st.integers(65, MAX_BASE)))
    # C(676, 2) = 54 * 65**2 is an exact hit.
    @example(677, 65)
    @example(1500, 65)
    @example(1500, MAX_BASE)
    def test_long_rows_match_additive_rule(self, rows, base):
        assert list(pascal_digits(rows, base)) == _additive_rule_digits(rows, base)

    @pytest.mark.parametrize("base", [2, 10, 16, 65, MAX_BASE])
    def test_exact_path_reads_every_term(self, base, monkeypatch):
        """With the float read certifying nothing, every half-row term,
        mid-row ones included, is read by math.comb and mirrored into its
        row's second half."""
        monkeypatch.setattr(sequences, "_log_digits", lambda x, base, guard: (
            np.zeros(len(x), dtype=np.intp), np.arange(len(x))))
        assert list(pascal_digits(150, base)) == _additive_rule_digits(150, base)

    def test_exact_reads_are_rare(self, monkeypatch):
        """1000 rows in base 10: at most 1% of the terms are read exactly."""
        exact = []

        def counted(values, base):
            exact.extend(values)
            return _first_digits(values, base)

        monkeypatch.setattr(sequences, "_first_digits", counted)
        terms = sum(1 for _ in pascal_digits(1000, 10))
        assert terms == 1000 * 1001 // 2
        assert 0 < len(exact) <= terms // 100

    @pytest.mark.parametrize("rows, base, message", [(0, 1, "rows"), (5, 1, "base")])
    def test_rows_then_base_checked_at_first_next(self, rows, base, message):
        stream = pascal_digits(rows, base)
        with pytest.raises(DomainError, match=message):
            next(stream)


# Largest sieve bound a prime example may draw. Under a segment of a few
# dozen flags it crosses thousands of segments, and the sieve of the small
# primes below its square root crosses several.
MAX_PRIME_BOUND = 200_000
# Segments of a few dozen flags, where a run of one digit often spans
# segments, or of thousands, where one segment holds long runs whole.
_SEGMENTS = st.one_of(st.integers(16, 64), st.sampled_from((1024, 4096)))


def _plain_sieve(bound: int) -> list[int]:
    flags = [True] * bound
    flags[:2] = [False, False]
    for p in range(2, math.isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, bound, p))
    return [n for n in range(bound) if flags[n]]


@st.composite
def _prime_cases(draw):
    """(below, base, segment): a base up to MAX_BASE, often 2, 3, 10, 16,
    99,991 or MAX_BASE; below one off or at a digit boundary d * base**e, a
    segment edge, or anywhere up to MAX_PRIME_BOUND; a segment of a few
    dozen or a few thousand flags."""
    base = draw(st.one_of(st.sampled_from((2, 3, 10, 16, 99_991, MAX_BASE)), _BASES))
    segment = draw(_SEGMENTS)
    where = draw(st.sampled_from(("boundary", "edge", "anywhere")))
    if where == "boundary":
        e = draw(st.integers(0, max(e for e in range(18) if base**e < MAX_PRIME_BOUND)))
        below = min(draw(st.integers(1, base - 1)) * base**e, MAX_PRIME_BOUND)
    elif where == "edge":
        below = 2 * segment * draw(st.integers(1, MAX_PRIME_BOUND // (2 * segment)))
    else:
        below = draw(st.integers(2, MAX_PRIME_BOUND))
    return max(2, below + draw(st.sampled_from((-1, 0, 1)))), base, segment


class TestSieveDigitsDifferential:
    """The digits read off the segmented sieve's flags against a sieve over
    all integers read by exact extraction, under segments of a few dozen or
    a few thousand flags, and under the module's own segment."""

    @settings(max_examples=30, deadline=None)
    @given(_prime_cases())
    @example((2, 10, 16))
    @example((3, 2, 16))
    @example((4, 3, 16))
    @example((10, 10, 16))
    # Digit boundaries on segment edges: 100 numbers a segment puts every
    # d * 10**e past 100, and MAX_BASE, on one; 64 numbers every power of 2
    # and of 16 from 64 on; 3**4 = 81 is the first number of a segment of 40.
    @example((MAX_PRIME_BOUND, 10, 50))
    @example((MAX_PRIME_BOUND, MAX_BASE, 50))
    @example((MAX_PRIME_BOUND, 2, 32))
    @example((MAX_PRIME_BOUND, 16, 32))
    @example((MAX_PRIME_BOUND, 3, 40))
    @example((10**5 - 1, 10, 40))
    @example((10**5, 10, 40))
    @example((10**5 + 1, 10, 40))
    @example((99_992, 99_991, 64))
    @example((MAX_PRIME_BOUND, 99_991, 64))
    # Long runs inside one segment: 2048 and 8192 numbers a segment.
    @example((MAX_PRIME_BOUND, 2, 1024))
    @example((MAX_PRIME_BOUND, 3, 4096))
    @example((MAX_PRIME_BOUND, 10, 4096))
    def test_blocks_match_plain_sieve(self, case):
        below, base, segment = case
        with mock.patch.object(sequences, "_SEGMENT", segment):
            digits = list(prime_digits(below, base))
        assert digits == [_first(p, base) for p in _plain_sieve(below)]

    def test_module_segments_match_plain_sieve(self):
        """Below 2,100,000 the module's own segments of 2**19 flags number
        three; 2**20 and 2**21 sit one below the first number of the second
        and of the third."""
        primes = _plain_sieve(2_100_000)
        for base in (2, 3, 10, 16):
            assert list(prime_digits(2_100_000, base)) == [_first(p, base) for p in primes]


class TestSieveDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 20000), _SEGMENTS)
    # 2 and 3 give [] and [2]; p**2 and p**2 + 1 for odd p put p**2 just
    # outside and just inside the range, where the odd-only sieve starts.
    @example(2, 16)
    @example(3, 16)
    @example(4, 16)
    @example(9, 16)
    @example(10, 16)
    @example(25, 16)
    @example(26, 16)
    @example(49, 16)
    @example(121, 16)
    # The last segment full, and one flag into the next.
    @example(2 * 16 * 7, 16)
    @example(2 * 16 * 7 + 2, 16)
    def test_matches_sieve_over_all_integers(self, bound, segment):
        with mock.patch.object(sequences, "_SEGMENT", segment):
            primes = list(prime_values(bound))
        assert primes == _plain_sieve(bound)


@st.composite
def _block_cases(draw):
    """A primes spec below 2..10**5 (bases above the bound too) or a Pascal
    spec of 1..400 rows, in a base up to MAX_BASE."""
    if draw(st.booleans()):
        return SequenceSpec("primes", {"below": draw(st.integers(2, 10**5))}, draw(_BASES))
    return SequenceSpec("pascal", {"rows": draw(st.integers(1, 400))}, draw(_BASES))


class TestBlockCensusDifferential:
    @settings(max_examples=60, deadline=None)
    @given(_block_cases())
    @example(SequenceSpec("primes", {"below": 2}, 10))
    @example(SequenceSpec("primes", {"below": 100}, MAX_BASE))
    @example(SequenceSpec("primes", {"below": 2_100_000}, 10))  # three blocks
    @example(SequenceSpec("pascal", {"rows": 1}, 2))
    @example(SequenceSpec("pascal", {"rows": 400}, MAX_BASE))
    def test_matches_a_count_of_the_public_stream(self, spec):
        public = {"primes": prime_digits, "pascal": pascal_digits}[spec.kind]
        tally = Counter(public(*spec.params.values(), spec.base))
        census = DigitCensus.from_blocks(spec.digit_blocks(), 1, spec.base)
        assert census.counts == tuple(tally[d] for d in census.support)

    def test_blocks_are_arrays_in_stream_order(self):
        spec = SequenceSpec("pascal", {"rows": 700}, 10)
        blocks = list(spec.digit_blocks())
        assert len(blocks) > 1 and all(block.dtype.kind == "i" for block in blocks)
        assert np.concatenate(blocks).tolist() == list(pascal_digits(700, 10))


def _printed(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@st.composite
def _printed_cases(draw):
    """A spec of any kind, at sizes an exact oracle reads in milliseconds, in
    a base up to MAX_BASE."""
    kind = draw(st.sampled_from(sorted(sequences._SERIES)))
    if kind == "power_alpha":
        params = {"alpha": draw(st.sampled_from(("1.007", "3/2", "16", "1000001/1000000"))),
                  "n": draw(st.integers(1, 300))}
    else:
        params = {name: draw(values) for name, values in _INTEGER_SERIES[kind].items()}
    return SequenceSpec(kind, params, draw(_BASES))


class TestPrintedStreamDifferential:
    @settings(max_examples=60, deadline=None)
    @given(_printed_cases())
    @example(SequenceSpec("primes", {"below": 20000}, 7))
    @example(SequenceSpec("pascal", {"rows": 90}, 16))
    def test_stream_and_census_are_the_exact_digits(self, spec):
        values = spec.value_stream()
        exact = [extract_digits_rational(v.numerator, v.denominator, 1, spec.base).first
                 if isinstance(v, Fraction) else _first(v, spec.base) for v in values]
        argv = ["generate", spec.kind.replace("_", "-"), "--base", str(spec.base),
                *(x for key, value in spec.params.items() for x in (f"--{key}", str(value)))]
        assert _printed(argv) == "".join(f"{d}\n" for d in exact)
        tally = Counter(exact)
        assert _printed([*argv, "--census"]) == "digit,count\n" + "".join(
            f"{d},{tally[d]}\n" for d in range(1, spec.base))
