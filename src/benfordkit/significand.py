"""Lossless significant-digit extraction in arbitrary base.

Numeric tokens are kept as exact decimal records (sign, digit string,
power-of-ten exponent), so digit extraction never rounds. Base 10 reads
them off the stored digit string, at a cost set by the token's length and
never by its exponent; other bases run on integer scalings of the value,
and integers on one shift in a base 2**s, else on one division by a
running power of the base. Every largest power of the base at most a value
comes from one search, ``_power_at_most``: a bound from the bit lengths,
then exact steps.
A float decides a digit only in ``_log_digits``, under an error bound its
caller supplies, so exact powers of the base come out right.

The digit domain is stated here once for the package: ``check_base``,
``check_position``, ``digit_support`` and the digit rule ``digit_slot``;
other modules call them.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import reprlib
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, MalformedToken, ZeroValue

# Most digits a single extraction may request. Generous next to practical
# use (positions beyond ~7 are already near-uniform) while bounding the
# zero-padding applied to short mantissas.
MAX_EXTRACT_DIGITS = 18

# Largest base any command takes. Costs that grow with the base (support
# tables, census and report columns, the cell table of ``_log_digits``) stay
# near a second up to it; at base 10**6 they take seconds and hundreds of MB.
MAX_BASE = 100_000


def check_base(base: int) -> None:
    """The base rule: DomainError unless 2 <= base <= MAX_BASE."""
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if base > MAX_BASE:
        raise DomainError(f"base must be <= {MAX_BASE}, got {base}")


def check_position(position: int) -> None:
    """The position rule: DomainError unless 1 <= position <= MAX_EXTRACT_DIGITS."""
    if position < 1:
        raise DomainError(f"position must be >= 1, got {position}")
    if position > MAX_EXTRACT_DIGITS:
        raise DomainError(f"position must be <= {MAX_EXTRACT_DIGITS}, got {position}")


def _lowest_digit(position: int) -> int:
    return 1 if position == 1 else 0  # a first significant digit is never 0


def digit_support(position: int, base: int) -> tuple[int, ...]:
    """Possible digit values at a significant-digit position: 1..base-1 at
    the first, 0..base-1 deeper. The base is checked before the position."""
    check_base(base)
    check_position(position)
    return tuple(range(_lowest_digit(position), base))


def digit_slot(digit: int, position: int, base: int) -> int:
    """The digit rule: ``digit``'s index in ``digit_support(position, base)``
    for a checked position and base, in O(1). Only integers in lo..base-1
    pass (bools and numpy integers do, 2.0 does not); others are a
    DomainError that names the range."""
    lo = _lowest_digit(position)
    try:
        slot = operator.index(digit) - lo
    except TypeError:
        slot = -1
    if 0 <= slot < base - lo:
        return slot
    # reprlib keeps the message short; it cannot print an int past 4300 digits.
    got = f"a {slot.bit_length()}-bit integer" if slot.bit_length() > 64 else reprlib.repr(digit)
    raise DomainError(
        f"digit at position {position} must be an integer in {lo}..{base - 1}, got {got}")


# One grammar, compiled for each separator setting: with separators on it
# also takes an integer part written in comma-grouped form ("2,300"), its
# alternatives ordered so that form wins when it applies.
_GRAMMAR = r"""
    [+-]?
    (?:
        (?P<int>{integer}) (?: \. (?P<frac>\d+) )?
      | \. (?P<lone_frac>\d+)
    )
    (?: [eE] (?P<exp>[+-]?\d+) )?
"""

# The text scanner on the same grammar. "Alphanumeric" is [^\W_], exactly
# the characters str.isalnum accepts. Every match starts where the grammar
# matches, so the first lookahead, which lets the engine pass in one step a
# position where no token can start, cannot change a match as long as it
# lists every first character of _GRAMMAR: a sign, a \d or a point.
_SCANNER = r"""
    (?= [\d.+\-] )              # where a token can start
    (?= (?P<tok> {grammar} ) )  # what search finds here; never re-entered
    (?! (?<=[^\W_]) [+-] )      # a sign alone touching a word: retry after it
    (?: (?<![^\W_]) (?P=tok) (?![^\W_]) (?P<alone>)  # no alphanumeric neighbour
      | (?: [^\W_] | [.,+-] )+ )                     # else pass the run ("v2.0")
"""

# Both indexed by the separator setting and shared by records and censuses:
# the grammar for a whole token and the text scanner, whose matches with
# ``alone`` set are standalone tokens.
_GRAMMARS = tuple(_GRAMMAR.format(integer=integer)
                  for integer in (r"\d+", r"\d{1,3}(?:,\d{3})+|\d+"))


def _compile(template: str) -> tuple[re.Pattern[str], ...]:
    return tuple(re.compile(template.format(grammar=grammar), re.VERBOSE)
                 for grammar in _GRAMMARS)


_TOKEN = _compile("{grammar}")
_SCAN = _compile(_SCANNER)


@dataclass(frozen=True)
class ExactDecimal:
    """A numeric token held exactly: value = sign * 0.<digits> * 10**exponent.

    ``digits`` stores base-10 digit characters with the first nonzero digit
    leading (zero values keep their written zeros). The representation is
    exact, so it round-trips the source token's numeric value.
    """

    sign: int
    digits: str
    exponent: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.digits or not self.digits.isdecimal():
            raise ValueError("digits must be a non-empty string of decimal digits")

    @property
    def is_zero(self) -> bool:
        return self.digits.strip("0") == ""

    def as_fraction(self) -> Fraction:
        """The exact rational value."""
        scale = self.exponent - len(self.digits)
        # Through Decimal: int(str) refuses more than 4300 digits.
        mantissa = self.sign * int(Decimal(self.digits))
        if scale >= 0:
            return Fraction(mantissa * 10**scale)
        return Fraction(mantissa, 10**-scale)

    @classmethod
    def from_int(cls, value: int) -> "ExactDecimal":
        return parse_token(str(Decimal(value)))

    @classmethod
    def from_float(cls, value: float) -> "ExactDecimal":
        """The shortest decimal that reads back as the float ``value``
        (numpy floats too). A value that no float holds exactly, such as
        Decimal("0.1"), is MalformedToken: rounding could change its digits."""
        number = float(value)
        if not math.isfinite(number):
            raise MalformedToken(f"non-finite float {value!r}")
        if number != value:
            raise MalformedToken(f"not exactly a float: {value!r}")
        return parse_token(repr(number))

    def __str__(self) -> str:
        """``str(Decimal)`` of the value, written out: C ``Decimal`` refuses an
        exponent past about 10**18, which a 22-character token can spell."""
        digits = self.digits if self.digits.isascii() else "".join(str(int(c)) for c in self.digits)
        coefficient = digits.lstrip("0") or "0"
        exponent = self.exponent - len(self.digits)
        left = exponent + len(coefficient)  # the digits left of a plain point
        sign = "-" if self.sign < 0 else ""
        if exponent > 0 or left <= -6:
            point = "." if len(coefficient) > 1 else ""
            return f"{sign}{coefficient[0]}{point}{coefficient[1:]}E{left - 1:+d}"
        if left <= 0:
            return f"{sign}0.{'0' * -left}{coefficient}"
        return sign + coefficient[:left] + (f".{coefficient[left:]}" if exponent else "")


@dataclass(frozen=True)
class SignificantDigits:
    """The first k significant digits of a value in some base.

    ``digits[0]`` is the first nonzero digit; ``exponent`` is the power of
    ``base`` carried by that leading digit, i.e.
    |value| = (d1.d2d3...) * base**exponent.
    """

    base: int
    digits: tuple[int, ...]
    exponent: int

    def __post_init__(self) -> None:
        check_base(self.base)
        if not self.digits:
            raise DomainError("at least one digit required")
        for position, digit in enumerate(self.digits, 1):
            digit_slot(digit, position, self.base)

    @property
    def first(self) -> int:
        return self.digits[0]


def parse_token(text: str, *, separators: bool = False) -> ExactDecimal:
    """Parse a numeric token into an exact decimal record.

    The grammar accepts an optional sign, an integer part (comma-grouped
    only when ``separators`` is on), an optional fraction, an optional
    e/E exponent, or a bare ``.digits`` fraction. Zero tokens parse fine;
    extraction is where zero turns into an error.
    """
    m = _TOKEN[separators].fullmatch(text)
    if m is None:
        raise MalformedToken(f"not a numeric token: {text!r}")
    return _decimal_from_match(m)


def _decimal_from_match(m: re.Match[str]) -> ExactDecimal:
    """The exact record of a token the grammar matched, starting where the
    match starts (a ``fullmatch`` or a scanner match)."""
    int_part, frac, lone_frac, exp = m.group("int", "frac", "lone_frac", "exp")
    sign = -1 if m.string[m.start()] == "-" else 1
    int_part = (int_part or "").replace(",", "")
    exp10 = int(exp or 0)

    written = int_part + (frac or lone_frac or "")
    stripped = written.lstrip("0")
    if not stripped:
        # Exactly zero: keep the written zeros so the record stays non-empty.
        return ExactDecimal(sign, written, len(int_part) + exp10)
    lead_zeros = len(written) - len(stripped)
    return ExactDecimal(sign, stripped, len(int_part) - lead_zeros + exp10)


def _power_at_most(v: int, base: int, seed: int = 1) -> tuple[int, int]:
    """The largest seed * base**j (j >= 0) at most v > 0, and j; a seed of 0 or
    above v counts as 1. As v / seed > 2**(bit-length difference - 1), that
    bound's float log, less one for rounding, starts j at or below the answer;
    exact steps go up from there, so a power of the base is found exactly."""
    if not 0 < seed <= v:
        seed = 1
    j = max(0, math.floor((v.bit_length() - seed.bit_length() - 1) / math.log2(base)) - 1)
    p = seed * base**j
    while (top := p * base) <= v:
        p = top
        j += 1
    return p, j


def extract_digits_rational(
    num: int, den: int, k: int, base: int = 10
) -> SignificantDigits:
    """First k base-``base`` digits of the positive rational num/den, exactly.

    The exponent e is the largest with base**e <= num/den, and the digits are
    floor(num/den * base**(k-1-e)), from one power of the base. At or above 1,
    base**e is the largest power of the base at most num // den. Below 1,
    base**-e is the least power of the base at least den / num, one above
    the largest at most (den - 1) // num.
    """
    check_base(base)
    check_position(k)
    if num == 0:
        raise ZeroValue("value is zero; no significant digit exists")
    if num < 0 or den <= 0:
        raise DomainError("num/den must be a positive rational")

    if num >= den:
        power, e = _power_at_most(num // den, base)
        leading = num * base**(k - 1) // (den * power)
    else:
        power, j = _power_at_most((den - 1) // num, base)
        e = -1 - j
        leading = num * base**k * power // den
    digits = []
    for _ in range(k):
        leading, d = divmod(leading, base)
        digits.append(d)
    digits.reverse()
    return SignificantDigits(base=base, digits=tuple(digits), exponent=e)


def _decimal_significand(digits: str, exponent: int) -> tuple[str, int]:
    """The significant base-10 digits of the nonzero 0.<digits> * 10**exponent,
    first nonzero digit leading, and the power of ten of the first.

    This is the one place a base-10 digit is read: straight off a digit
    string, with no Fraction and no power of ten built. It checks no
    position: a zero raises ZeroValue first, and callers check the position
    after it (``gof.count_digits`` once per census).
    """
    if not digits.isascii():
        # Other Unicode decimal digits ("٣", "３") read as their values.
        digits = "".join(str(int(c)) for c in digits)
    if digits[0] == "0":
        # A zero, or digits with leading zeros ("0.05", ExactDecimal(1, "0123", 5)).
        stripped = digits.lstrip("0")
        if not stripped:
            raise ZeroValue("value is zero; no significant digit exists")
        exponent -= len(digits) - len(stripped)
        digits = stripped
    return digits, exponent - 1


def _decimal_digit(digits: str, position: int) -> int:
    """The digit at a checked ``position`` of significant digits; 0 past their end."""
    return int(digits[position - 1:position] or 0)


def extract_digits(value: ExactDecimal, k: int, base: int = 10) -> SignificantDigits:
    """First k significant digits of |value| in ``base``.

    Raises ZeroValue when the token is exactly zero (callers exclude and
    count such entries). Conversion is exact for every base; base 10 reads
    the stored digits, other bases go through the exact rational value.
    """
    if base == 10:
        digits, exponent = _decimal_significand(value.digits, value.exponent)
        check_position(k)
        return SignificantDigits(10, tuple(map(int, digits[:k].ljust(k, "0"))), exponent)
    if value.is_zero:
        raise ZeroValue("value is zero; no significant digit exists")
    frac = value.as_fraction()
    return extract_digits_rational(abs(frac.numerator), frac.denominator, k, base)


def digit_at(value: ExactDecimal, position: int, base: int = 10) -> int:
    """The ``position``-th significant digit of |value| in ``base``.

    Same contract as ``extract_digits(value, position, base).digits[-1]``:
    ZeroValue for a zero, DomainError for a position outside
    1..MAX_EXTRACT_DIGITS. In base 10 no SignificantDigits is built.
    """
    if base == 10:
        digits, _ = _decimal_significand(value.digits, value.exponent)
        check_position(position)
        return _decimal_digit(digits, position)
    return extract_digits(value, position, base).digits[-1]


def _match_digit(m: re.Match[str], position: int, base: int) -> int:
    """``digit_at`` of the token a grammar match holds, at a position the
    caller has checked (``gof.count_digits`` checks it once per census).

    In base 10 at position 1, a token whose first character past its sign,
    ASCII zeros, point and commas is an ASCII 1-9 has that digit, with no
    digit parsed. Other base-10 tokens, zeros among them, read their written
    digits (``_decimal_significand``, which raises ZeroValue on a zero); no
    base-10 read builds a record or reads the exponent. Other bases read the
    token's exact record."""
    if base != 10:
        return digit_at(_decimal_from_match(m), position, base)
    if position == 1:
        c = m.group().lstrip("+-0.,")[:1]
        if "1" <= c <= "9":
            return ord(c) - 48
    int_part, frac, lone_frac = m.group("int", "frac", "lone_frac")
    written = (int_part or "").replace(",", "") + (frac or lone_frac or "")
    return _decimal_digit(_decimal_significand(written, 0)[0], position)


def _first_digits(values: Iterable[int], base: int) -> Iterator[int]:
    """Leading digits of nonzero integers. A base 2**s up to MAX_BASE reads each |v| by
    one shift, v >> s * ((bit length - 1) // s); any other base by p, the largest power
    of the base at most |v|, carried over: a one-digit move steps p; any other jump
    re-seeds it by ``_power_at_most``, from p * base after a jump up, else from 1."""
    if 2 <= base <= MAX_BASE and not base & (base - 1):
        return _shifted_digits(values, base.bit_length() - 1)
    return _carried_power_digits(values, base)


def _shifted_digits(values: Iterable[int], s: int) -> Iterator[int]:
    for value in values:
        v = abs(operator.index(value))
        if v == 0:
            raise ZeroValue("value is zero; no significant digit exists")
        yield v >> s * ((v.bit_length() - 1) // s)


def _carried_power_digits(values: Iterable[int], base: int) -> Iterator[int]:
    p = top = 0  # top = p * base; the first term seeds
    for value in values:
        v = abs(operator.index(value))
        if not p <= v < top:
            if top <= v < top * base:
                p, top = top, top * base
            elif v < p <= v * base:
                p, top = p // base, p
            else:
                if v == 0:
                    raise ZeroValue("value is zero; no significant digit exists")
                check_base(base)
                # From top after a jump up, else from 1.
                p = _power_at_most(v, base, top)[0]
                top = p * base
        yield v // p


def first_digit(value: int, base: int = 10) -> int:
    """First digit of a nonzero integer; numpy integers too, floats raise TypeError."""
    return next(_first_digits((value,), base))


_CELLS = 2**16


@functools.lru_cache(maxsize=8)
def _cell_table(base: int, guard: float):
    """The digit boundaries log_base(1..base) and the cell table of `base`.

    [0, 1] is split into _CELLS equal cells. A cell's entry is its digit
    when the whole cell lies in one digit interval with at least 2 * guard
    to spare on both sides, else 0 ("near"). One more entry, also 0, is the
    cell of frac == 1.0.
    """
    import numpy as np

    bounds = np.log(np.arange(1, base + 1)) / math.log(base)
    lo = np.arange(_CELLS) / _CELLS
    hi = lo + 1 / _CELLS
    digits = np.minimum(np.searchsorted(bounds, lo, side="right"), base - 1)
    inside = ((lo - bounds[digits - 1] >= 2 * guard)
              & (bounds[digits] - hi >= 2 * guard))
    table = np.zeros(_CELLS + 1, dtype=np.intp)
    table[:_CELLS][inside] = digits[inside]
    # Every caller shares the cached arrays.
    bounds.flags.writeable = table.flags.writeable = False
    return bounds, table


def _log_digits(x, base: int, guard: float):
    """The first digit of base**x for each double in the array `x`, or 0
    where it is not certified, and the places of those zeros. `x` is
    overwritten with its fractional parts f.

    The digit d, log_base(d) <= f < log_base(d + 1), is certified when f is
    `guard` or more from both boundaries, so `guard` must bound the error
    of those gaps; >= is sound when the bound keeps a margin over its
    first-order terms, as Pascal's factor 2 does. Values in digit cells
    take one table read; only those in near cells take the gap test. A nan
    or infinite x is never certified.
    """
    import numpy as np

    bounds, table = _cell_table(base, guard)
    # f = x - floor(x), in place, and the cell index is f * _CELLS cast down,
    # read through the table in place; a nan f's index clips to an end cell.
    # `digits` is allocated once the floor's temporary is freed, so that it
    # can take the temporary's memory.
    with np.errstate(invalid="ignore"):
        x -= np.floor(x)
        digits = np.empty(len(x), dtype=np.intp)
        np.multiply(x, _CELLS, out=digits, casting="unsafe")
    table.take(digits, mode="clip", out=digits)

    # The near values; when every value is near, the arrays serve uncopied.
    near = np.flatnonzero(digits == 0)
    subset = slice(None) if len(near) == len(digits) else near
    frac = x[subset]
    near_digits = bounds.searchsorted(frac, side="right")
    np.clip(near_digits, 1, base - 1, out=near_digits)
    # Distance from f to the boundaries enclosing its digit; a nan distance
    # fails the test.
    gap = bounds.take(near_digits - 1, mode="clip")
    np.subtract(frac, gap, out=gap)
    sure = gap >= guard
    bounds.take(near_digits, mode="clip", out=gap)
    gap -= frac
    sure &= gap >= guard
    near_digits *= sure
    digits[subset] = near_digits
    return digits, near[~sure]
