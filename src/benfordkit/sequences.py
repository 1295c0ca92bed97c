"""Generators for the classic digit-law test series.

Every value stream is exact integer or rational arithmetic. Each digit
stream gives the exact first significant digits, emitted lazily, so
censuses over tens of thousands of terms never materialize the underlying
big integers.

The geometric series alpha**n is the delicate one: terms can sit next to
digit boundaries d * base**k, where any floating-point shortcut can
misclassify. The loop in ``alpha_power_digits`` runs a truncated-product
bracket held in the output base (at least 60 significant decimal digits'
worth, with tracked floor/ceil error), so the leading digit is one integer
division in every base; a digit is emitted only once both bracket ends
agree on it, and the rare uncertified term falls back to exact big-rational
powering. The base digits each step drops are one division by a power of
the base from ``significand._power_at_most``, carried from term to term.

The integer series are read by their structure. The primes come from one
sieve over the odd numbers as an int64 array, exact because they stay
below PRIME_BOUND_CAP; their digits are the array divided by the largest
power of the base at most each prime, so no prime becomes a Python
integer. Pascal's digits come from one table of log_b(k!) in floating
point: ``significand._log_digits`` reads log_b C(n, r) for a block of
whole rows' half-row terms and keeps a digit only when a certified error
bound puts the term's fractional part inside one digit's interval. The few
terms the bound cannot decide (every C(n, 0), exact hits such as C(5, 2) =
10) are read exactly from ``math.comb``; then one index gather mirrors the
block's rows, C(n, r) = C(n, n - r). Recursions, factorials and n**k go
through ``significand._first_digits``, one shift in a base 2**s, else one
running power of the base: a term one digit away steps it, a term several
digits up (most factorials) re-seeds it through ``_power_at_most`` from the
power it carries.

Each kind's digit generator in ``_SERIES`` yields its digits in blocks, in
stream order: the primes and Pascal as numpy int arrays, which
``DigitCensus.from_blocks`` counts with one ``np.bincount`` each, the
other kinds as one lazy block of ints, so they never import numpy. The
public ``prime_digits`` and ``pascal_digits`` yield the same digits as
Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .errors import DomainError
from .significand import (
    _first_digits, _log_digits, _power_at_most, check_base, extract_digits_rational)

PRIME_BOUND_CAP = 10**8
# The most items in one block of digits: the primes' blocks hold this many,
# Pascal's this many half-row terms. It bounds the numpy temporaries, and the
# lists of the public int streams: a Python int in a list costs about 36
# bytes, so the 5.8 million primes below the cap would take 200 MB at once.
_CHUNK = 2**16
PRODUCT_DIGITS = 60

# Default configuration for the pooled-recursion conformance suite: seven
# seed pairs at 1474 terms each.
DEFAULT_FIBONACCI_SEEDS: tuple[tuple[int, int], ...] = (
    (1, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 7), (4, 9),
)
DEFAULT_FIBONACCI_TERMS = 1474


def fibonacci_values(a1: int, a2: int, n_terms: int) -> Iterator[int]:
    """Terms of the additive recursion a(n+2) = a(n+1) + a(n)."""
    if a1 < 1 or a2 < 1:
        raise DomainError("seeds must be positive integers")
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    x, y = a1, a2
    for _ in range(n_terms):
        yield x
        x, y = y, x + y


def fibonacci_digits(a1: int, a2: int, n_terms: int, base: int = 10) -> Iterator[int]:
    """First significant digits of the recursion terms."""
    return _first_digits(fibonacci_values(a1, a2, n_terms), base)


def _check_bound(bound: int) -> None:
    if bound < 2:
        raise DomainError("bound must be >= 2")
    if bound > PRIME_BOUND_CAP:
        raise DomainError(f"bound capped at {PRIME_BOUND_CAP}")


def _sieve(bound: int):
    """The primes strictly below ``bound`` as an int64 array, by sieve of
    Eratosthenes over the odd numbers: flag i stands for 2i + 1, except flag
    0, which stands for 2. Every one is below PRIME_BOUND_CAP, so int64 is
    exact."""
    import numpy as np

    flags = np.ones(bound // 2, dtype=bool)
    flags[0] = bound > 2
    for i in range(1, (math.isqrt(bound - 1) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    del flags
    primes *= 2
    primes += 1
    primes[:1] = 2
    return primes


def _chunks(array) -> Iterator:
    return (array[i : i + _CHUNK] for i in range(0, len(array), _CHUNK))


def _digit_items(blocks: Iterable) -> Iterator[int]:
    """The digits of a block stream, in order, as Python ints."""
    return chain.from_iterable(
        block.tolist() if hasattr(block, "tolist") else block for block in blocks)


def prime_values(bound: int) -> Iterator[int]:
    """All primes strictly below ``bound``, by sieve of Eratosthenes."""
    _check_bound(bound)
    for chunk in _chunks(_sieve(bound)):
        yield from chunk.tolist()


def prime_digits(bound: int, base: int = 10) -> Iterator[int]:
    """First digits of the primes below ``bound``, in order. Both arguments are
    checked at the first ``next``, the bound first."""
    return _digit_items(_prime_digit_blocks(bound, base))


def _prime_digit_blocks(bound: int, base: int) -> Iterator:
    """The first digits of the primes below ``bound`` as int64 arrays of up to
    _CHUNK, read off the sieve's array: each prime divided by the largest power
    of the base at most it."""
    _check_bound(bound)
    check_base(base)
    import numpy as np

    primes = _sieve(bound)
    powers = base ** np.arange(_power_at_most(bound - 1, base)[1] + 1, dtype=np.int64)
    for chunk in _chunks(primes):
        yield chunk // powers[np.searchsorted(powers, chunk, "right") - 1]


def factorial_values(n_max: int) -> Iterator[int]:
    """1!, 2!, ..., n_max! by a running product."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    f = 1
    for n in range(1, n_max + 1):
        f *= n
        yield f


def factorial_digits(n_max: int, base: int = 10) -> Iterator[int]:
    return _first_digits(factorial_values(n_max), base)


def n_power_values(k: int, n_max: int) -> Iterator[int]:
    """n**k for n = 1..n_max."""
    if k < 1:
        raise DomainError("exponent k must be >= 1")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    for n in range(1, n_max + 1):
        yield n**k


def n_power_digits(k: int, n_max: int, base: int = 10) -> Iterator[int]:
    return _first_digits(n_power_values(k, n_max), base)


def pascal_values(rows: int) -> Iterator[int]:
    """Binomial coefficients C(n, r) for n < rows, rows read left to right:
    each row's first half exactly, C(n, r + 1) = C(n, r) * (n - r) // (r + 1),
    then mirrored, C(n, r) = C(n, n - r)."""
    if rows < 1:
        raise DomainError("rows must be >= 1")
    for n in range(rows):
        c, half = 1, [1]
        for r in range(n // 2):
            c = c * (n - r) // (r + 1)
            half.append(c)
        yield from half + half[: (n + 1) // 2][::-1]


# Largest error of the platform's log, in units in the last place, that the
# Pascal digit bound allows for (correctly rounded would be 0.5).
_LOG_ULPS = 4
_UNIT_ROUNDOFF = 2.0**-53


def pascal_digits(rows: int, base: int = 10) -> Iterator[int]:
    """First digits of ``pascal_values``, each row's first half read and mirrored.
    Both arguments are checked at the first ``next``, the row count first."""
    return _digit_items(_pascal_digit_blocks(rows, base))


def _pascal_digit_blocks(rows: int, base: int) -> Iterator:
    """The first digits of Pascal's rows n < rows, read left to right, as int
    arrays of whole rows: each block holds the rows whose half-row terms,
    C(n, r) for r <= n // 2, number at most _CHUNK together (one row if a
    single row has more).

    Each half-row term is read by ``_log_digits`` under the bound E at
    x = F[n] - F[r] - F[n - r], F[k] = log_b(k!) the running sum of
    ln(j) / ln(b). The terms it leaves unsure, among them every C(n, 0) and
    exact hits such as C(5, 2) = 10, are read from their exact integers,
    ``math.comb(n, r)``. The block is then mirrored, C(n, r) = C(n, n - r),
    by one gather from the half-row digits.

    E bounds the error of the gaps from frac(x) to its digit's two
    boundaries (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, ch. 2-4). Take u = 2**-53, T = F[rows - 1] and log within
    c = _LOG_ULPS ulps, a relative 2cu. Each ln(j) / ln(b) is then within
    (4c + 2)u of itself, and recursive summation adds gamma(k - 1), about
    (k - 1)u, of the sum: every F[k] is within (rows + 4c + 2)uT. The two
    subtractions add uT each, so x is within (3 rows + 12c + 8)uT; frac(x)
    is exact (Sterbenz). Each boundary log_b(d) <= 1 is within (4c + 2)u and
    the gap's subtraction adds u. E = 2u((3 rows + 12c + 8)T + 4c + 3),
    twice the sum, also covers the second-order terms while rows * u < 1/2,
    so the reader's test, gap >= E, is sound.
    """
    if rows < 1:
        raise DomainError("rows must be >= 1")
    check_base(base)
    import numpy as np

    table = np.zeros(rows)
    np.cumsum(np.log(np.arange(1, rows, dtype=np.float64)) / math.log(base), out=table[1:])
    c = _LOG_ULPS
    tolerance = 2 * _UNIT_ROUNDOFF * ((3 * rows + 12 * c + 8) * table[-1] + 4 * c + 3)
    # starts[n]: the place of C(n, 0) among the half-row terms, read row by row.
    starts = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.arange(rows) // 2 + 1, out=starts[1:])
    n = 0
    while n < rows:
        end = max(n + 1, int(np.searchsorted(starts, starts[n] + _CHUNK, "right")) - 1)
        # int32: every place within a block, and every row, is far below 2**31.
        block_rows = np.arange(n, end, dtype=np.int32)
        halves = block_rows // 2 + 1
        row, r = _row_places(block_rows, halves)
        digits, unsure = _log_digits(table[row] - table[r] - table[row - r], base, tolerance)
        if len(unsure):
            terms = list(map(math.comb, row[unsure].tolist(), r[unsure].tolist()))
            digits[unsure] = list(_first_digits(terms, base))
        # Term r of row m is the half-row term min(r, m - r) of that row.
        row, r = _row_places(block_rows, block_rows + 1)
        row -= r
        np.minimum(r, row, out=r)
        r += np.repeat(np.cumsum(halves) - halves, block_rows + 1)
        yield digits[r]
        n = end


def _row_places(rows, lengths):
    """For rows of these lengths laid end to end: each place's row, and its
    index within that row."""
    import numpy as np

    row = np.repeat(rows, lengths)
    place = np.arange(len(row), dtype=rows.dtype)
    place -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    return row, place


AlphaLike = Union[Fraction, int, str, float]


def _as_ratio(alpha: AlphaLike) -> Fraction:
    a = Fraction(alpha)
    if a.numerator <= a.denominator or a.denominator < 1:
        raise DomainError(f"alpha must exceed 1, got {a}")
    return a


def alpha_power_values(alpha: AlphaLike, n_max: int) -> Iterator[Fraction]:
    """Exact rationals alpha**n for n = 1..n_max."""
    a = _as_ratio(alpha)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    x = Fraction(1)
    for _ in range(n_max):
        x *= a
        yield x


def alpha_power_digits(alpha: AlphaLike, n_max: int, base: int = 10) -> Iterator[int]:
    """First base digits of alpha**n for n = 1..n_max, every digit certified.

    ``alpha`` may be a Fraction, an integer, or an exact string such as
    "1.007" or "1007/1000" (floats are taken at their exact binary value).

    One loop runs a truncated product in the output base. It keeps
    lo <= unit * alpha**n / base**shift <= hi for an implicit integer shift,
    with lo in [unit, base*unit) and unit = 10**(PRODUCT_DIGITS - 1) standing
    for 1. The leading base digit of alpha**n is then lo // unit whenever hi
    agrees on it; otherwise the term is read exactly. A step that takes lo
    to top = base * unit or above drops whole base digits by one division
    of each end by scale, the largest power of the base at most lo // unit.
    The scale is carried: the next search starts one digit below it, so a
    huge alpha builds its big power once per run. Floor/ceil division
    widens the bracket by at most one in its last place per step, so after
    desk-scale runs the bracket is still dozens of digits tighter than any
    first-digit decision needs. When alpha and the base are powers of one
    integer (16 or 4 in base 16), both ends stay unit times a power of it,
    exactly.
    """
    a = _as_ratio(alpha)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    check_base(base)
    p, q = a.numerator, a.denominator

    def gen() -> Iterator[int]:
        unit = lo = hi = 10 ** (PRODUCT_DIGITS - 1)
        top = base * unit
        scale = 1
        for n in range(1, n_max + 1):
            lo = lo * p // q
            hi = -(-hi * p // q)
            if lo >= top:
                # Drop whole base digits, so that unit <= lo < top again.
                scale = _power_at_most(lo // unit, base, scale // base)[0]
                lo //= scale
                hi = -(-hi // scale)
            d = lo // unit
            yield d if hi // unit == d else extract_digits_rational(p**n, q**n, 1, base).first

    return gen()


class _Series(NamedTuple):
    values: Callable[..., Iterator]
    digit_blocks: Callable[..., Iterable]
    # (name, type, default, help) in argument order; default None = required.
    params: tuple[tuple[str, type, int | None, str], ...]


def _one_block(digits: Callable[..., Iterator[int]]) -> Callable[..., Iterable]:
    """The block generator whose one block is the whole lazy stream of ``digits``."""
    return lambda *arguments: (digits(*arguments),)


# The series kinds: each one's value generator, its first-digit generator and
# the parameters both take (the digit generator also takes the base). The
# digits come in blocks, in stream order: int arrays for the kinds made in
# numpy, the whole stream as one block for the others. The CLI builds
# `generate`'s flags, kind choices and epilog from this table.
_SERIES = {
    "fibonacci": _Series(
        fibonacci_values,
        _one_block(fibonacci_digits),
        (("a1", int, 1, "first seed"), ("a2", int, 1, "second seed"),
         ("terms", int, None, "number of terms")),
    ),
    "primes": _Series(prime_values, _prime_digit_blocks,
                      (("below", int, None, "exclusive upper bound"),)),
    "power_alpha": _Series(
        alpha_power_values,
        _one_block(alpha_power_digits),
        (("alpha", Fraction, None, "ratio > 1, e.g. 1007/1000 or 1.007"),
         ("n", int, None, "term count")),
    ),
    "factorial": _Series(factorial_values, _one_block(factorial_digits),
                         (("n", int, None, "term count"),)),
    "power_n": _Series(
        n_power_values, _one_block(n_power_digits),
        (("k", int, None, "exponent"), ("n", int, None, "term count")),
    ),
    "pascal": _Series(pascal_values, _pascal_digit_blocks,
                      (("rows", int, None, "number of rows"),)),
}


@dataclass(frozen=True)
class SequenceSpec:
    """Parameters selecting one series generator.

    ``kind`` and the ``params`` keys it takes are those of the kind table
    ``_SERIES`` in this module, and any other key is rejected; values may
    be strings, as read from a config file.
    """

    kind: str
    params: dict = field(default_factory=dict)
    base: int = 10

    def __post_init__(self) -> None:
        if self.kind not in _SERIES:
            raise DomainError(f"unknown sequence kind {self.kind!r}")
        check_base(self.base)
        names = [name for name, *_ in _SERIES[self.kind].params]
        unknown = [key for key in self.params if key not in names]
        if unknown:
            raise DomainError(
                f"{self.kind} takes no parameter {', '.join(map(repr, unknown))}"
                f" (it takes {', '.join(names)})"
            )

    def _arguments(self) -> list:
        kind, params = self.kind.replace("_", "-"), _SERIES[self.kind].params
        missing = [f"--{name}" for name, _, default, _ in params
                   if default is None and name not in self.params]
        if missing:
            raise DomainError(f"{kind} requires {' and '.join(missing)}")
        arguments = []
        for name, convert, default, _ in params:
            value = self.params.get(name, default)
            try:
                arguments.append(convert(value))
            except (ValueError, ZeroDivisionError):
                what = "an integer" if convert is int else "a ratio"
                raise DomainError(f"{kind} --{name}: not {what}: {value!r}") from None
        return arguments

    def digit_blocks(self) -> Iterable:
        """The first digits in blocks, in stream order (see ``_SERIES``)."""
        return _SERIES[self.kind].digit_blocks(*self._arguments(), self.base)

    def digit_stream(self) -> Iterator[int]:
        return _digit_items(self.digit_blocks())

    def value_stream(self) -> Iterator:
        return _SERIES[self.kind].values(*self._arguments())

    @classmethod
    def from_config(cls, text: str) -> "SequenceSpec":
        """Parse the small config format: one kind line plus key=value lines,
        each key once (a bare line is the kind)."""
        params: dict = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                line = f"kind = {line}"
            key, value = (part.strip() for part in line.split("=", 1))
            if key in params:
                raise DomainError(f"config key {key!r} given twice")
            params[key] = value
        base = params.pop("base", "10")
        try:
            base = int(base)
        except ValueError:
            raise DomainError(f"config base: not an integer: {base!r}") from None
        kind = params.pop("kind", None)
        if kind is None:
            raise DomainError("config must name a sequence kind")
        return cls(kind=kind.replace("-", "_"), params=params, base=base)
