"""Lossless significant-digit extraction in arbitrary base.

Numeric tokens are kept as exact decimal records (sign, digit string,
power-of-ten exponent), so digit extraction never rounds. Base 10 reads
them off the stored digit string, at a cost set by the token's length and
never by its exponent; other bases run on integer scalings of the value,
and integers in any base on one division by a running power of the base.
No float decides a digit, so exact powers of the base come out right.

The digit domain is stated here once for the package: ``check_base``,
``check_position``, ``digit_support`` and the digit rule ``digit_slot``;
other modules call them.
"""

from __future__ import annotations

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
# tables, census and report columns, the simulator's cell table) stay near
# a second up to it; at base 10**6 they take seconds and hundreds of MB.
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

# The first significant digit, read where a token starts: ``lead`` is an
# ASCII 1-9 reached over ASCII zeros and at most one point. Any other token
# (a zero, Unicode digits, a comma among the zeros) leaves it unset and is
# read from its digits. No possessive quantifier or atomic group: those
# need Python 3.11.
_LEAD = r"(?= (?: [+-]? 0* \.? 0* (?P<lead>[1-9]) )? )"

# The text scanner on the same grammar. "Alphanumeric" is [^\W_], exactly
# the characters str.isalnum accepts. A lead digit is read only in the
# standalone branch: in the ``tok`` lookahead it would run at every text
# position the grammar starts at.
_SCANNER = r"""
    (?= (?P<tok> {grammar} ) )  # what search finds here; never re-entered
    (?! (?<=[^\W_]) [+-] )      # a sign alone touching a word: retry after it
    (?: (?<![^\W_]) {lead} (?P=tok) (?![^\W_]) (?P<alone>)  # no alphanumeric neighbour
      | (?: [^\W_] | [.,+-] )+ )                            # else pass the run ("v2.0")
"""

# All indexed by the separator setting. The records (``parse_token``, the
# token readers) use the bare grammar and scanner; the censuses use the
# ``_LEAD`` forms, whose matches carry the ``lead`` group.
_GRAMMARS = tuple(_GRAMMAR.format(integer=integer)
                  for integer in (r"\d+", r"\d{1,3}(?:,\d{3})+|\d+"))


def _compile(template: str, lead: str) -> tuple[re.Pattern[str], ...]:
    return tuple(re.compile(template.format(grammar=grammar, lead=lead), re.VERBOSE)
                 for grammar in _GRAMMARS)


_TOKEN = _compile("{grammar}", "")
_LEAD_TOKEN = _compile("{lead}{grammar}", _LEAD)
_SCAN = _compile(_SCANNER, "")
_LEAD_SCAN = _compile(_SCANNER, _LEAD)


def token_pattern(separators: bool = False) -> re.Pattern[str]:
    """The text scanner: a match with ``alone`` set is a standalone token."""
    return _SCAN[separators]


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
        if not math.isfinite(value):
            raise MalformedToken(f"non-finite float {value!r}")
        return parse_token(repr(value))

    def __str__(self) -> str:
        dec = Decimal(
            (0 if self.sign > 0 else 1,
             tuple(int(c) for c in self.digits),
             self.exponent - len(self.digits))
        )
        return str(dec)


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
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if not self.digits:
            raise ValueError("at least one digit required")
        if self.digits[0] == 0:
            raise ValueError("first significant digit cannot be 0")
        if any(d < 0 or d >= self.base for d in self.digits):
            raise ValueError("digits must lie in [0, base)")

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


def format_token(value: ExactDecimal) -> str:
    """Canonical token for an ExactDecimal; parse_token(format_token(x)) == x."""
    sign = "-" if value.sign < 0 else ""
    return f"{sign}.{value.digits}e{value.exponent}"


def _exponent_below(bits: int, base: int) -> int:
    # floor(bits * log_base(2)) is the largest e with base**e <= 2**bits; the
    # - 1 absorbs float rounding, so the result is a true lower bound.
    return math.floor(bits / math.log2(base)) - 1


def _integer_log(num: int, den: int, base: int) -> int:
    """Largest e with base**e <= num/den, by exact integer comparison.

    num/den > 2**(bit-length difference - 1) bounds e from below; exact
    comparisons step it up, so the result is right even on or next to a
    power of the base. A negative power moves to the other side of the
    comparison, so every comparison stays in integers (base**-n is a float).
    """
    e = _exponent_below(num.bit_length() - den.bit_length() - 1, base) + 1
    while (base**e * den <= num) if e >= 0 else (den <= num * base**-e):
        e += 1
    return e - 1


def extract_digits_rational(
    num: int, den: int, k: int, base: int = 10
) -> SignificantDigits:
    """First k base-``base`` digits of the positive rational num/den, exactly."""
    check_base(base)
    check_position(k)
    if num == 0:
        raise ZeroValue("value is zero; no significant digit exists")
    if num < 0 or den <= 0:
        raise DomainError("num/den must be a positive rational")

    e = _integer_log(num, den, base)
    shift = k - 1 - e
    if shift >= 0:
        leading = (num * base**shift) // den
    else:
        leading = num // (den * base**-shift)
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

    In base 10 at position 1 the match's ``lead`` group, when set, is the
    digit, with no digit parsed. Other base-10 tokens, zeros among them,
    read their written digits (``_decimal_significand``, which raises
    ZeroValue on a zero); no base-10 read builds a record or reads the
    exponent. Other bases read the token's exact record."""
    lead = m["lead"]
    if lead is not None and position == 1 and base == 10:
        return ord(lead) - 48  # an ASCII 1-9
    if base != 10:
        return digit_at(_decimal_from_match(m), position, base)
    int_part, frac, lone_frac = m.group("int", "frac", "lone_frac")
    written = (int_part or "").replace(",", "") + (frac or lone_frac or "")
    return _decimal_digit(_decimal_significand(written, 0)[0], position)


def extract_digits_bigint(value: int, k: int, base: int = 10) -> SignificantDigits:
    """Same contract as extract_digits, for arbitrary-precision integers."""
    if value == 0:
        raise ZeroValue("value is zero; no significant digit exists")
    return extract_digits_rational(abs(value), 1, k, base)


def _first_digits(values: Iterable[int], base: int) -> Iterator[int]:
    """Leading digits of nonzero integers, by p, the largest power of the base at most |v|,
    carried over: a one-digit move steps p; a jump up re-seeds it relative to the power
    carried (p * base**g, g from the bit lengths), any other jump relative to 1."""
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
                # From top after a jump up, else from 1, by base**g: it is at most
                # 2**(bit-length difference - 1), below v / seed.
                seed = top if 0 < top <= v else 1
                g = _exponent_below(v.bit_length() - seed.bit_length() - 1, base)
                p = top = seed * base ** max(0, g)
                while top <= v:
                    p, top = top, top * base
        yield v // p


def first_digit(value: int, base: int = 10) -> int:
    """First digit of a nonzero integer; numpy integers too, floats raise TypeError."""
    return next(_first_digits((value,), base))
