"""Exact generators for the classic digit-law test series.

All series are produced with exact integer or rational arithmetic and
emitted lazily as first-significant-digit streams, so censuses over tens
of thousands of terms never materialize the underlying big integers.

The geometric series alpha**n is the delicate one: terms can sit next to
digit boundaries d * base**k, where any floating-point shortcut can
misclassify. It runs on a truncated-product interval held in the output
base (at least 60 significant decimal digits' worth, with tracked
floor/ceil error), so the leading digit is one integer division in every
base; a digit is emitted only once both interval endpoints agree on it,
and the rare uncertified term falls back to exact big-rational powering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Union

from .errors import DomainError
from .significand import _exponent_below, _first_digits, check_base, extract_digits_rational

PRIME_BOUND_CAP = 10**8
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


def prime_values(bound: int) -> Iterator[int]:
    """All primes strictly below ``bound``, by sieve of Eratosthenes."""
    if bound < 2:
        raise DomainError("bound must be >= 2")
    if bound > PRIME_BOUND_CAP:
        raise DomainError(f"bound capped at {PRIME_BOUND_CAP}")
    import numpy as np

    flags = np.ones(bound, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    for p in np.nonzero(flags)[0]:
        yield int(p)


def prime_digits(bound: int, base: int = 10) -> Iterator[int]:
    return _first_digits(prime_values(bound), base)


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
    """Binomial coefficients C(n, r) for n < rows, rows read left to right."""
    if rows < 1:
        raise DomainError("rows must be >= 1")
    for n in range(rows):
        c = 1
        for r in range(n + 1):
            yield c
            c = c * (n - r) // (r + 1)


def pascal_digits(rows: int, base: int = 10) -> Iterator[int]:
    return _first_digits(pascal_values(rows), base)


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


class _ProductInterval:
    """Running truncated product bracketing alpha**n in the output base.

    Keeps lo <= unit * alpha**n / base**shift <= hi for an implicit integer
    shift, with lo in [unit, base*unit) and unit = 10**(PRODUCT_DIGITS - 1)
    standing for 1. The leading base digit of alpha**n is then lo // unit
    whenever hi agrees on it. Floor/ceil division widens the bracket by at
    most one in its last place per step, so after desk-scale runs the
    bracket is still dozens of digits tighter than any first-digit decision
    needs. When alpha and the base are powers of one integer (16 or 4 in
    base 16), both endpoints stay unit times a power of it, exactly.
    """

    __slots__ = ("p", "q", "base", "unit", "lo", "hi")

    def __init__(self, p: int, q: int, base: int):
        self.p, self.q, self.base = p, q, base
        self.unit = self.lo = self.hi = 10 ** (PRODUCT_DIGITS - 1)

    def step(self) -> None:
        base, top = self.base, self.base * self.unit
        lo = (self.lo * self.p) // self.q
        hi = -((-self.hi * self.p) // self.q)
        if lo >= top:
            # Drop whole base digits: a lower bound on their count from the
            # bit lengths (lo / top > 2**(difference - 1)) in one division,
            # then single digits. Nested floor (and ceil) divisions compose
            # exactly, so the bracket is the one a single division would give.
            excess = _exponent_below(lo.bit_length() - top.bit_length() - 1, base)
            if excess > 0:
                scale = base**excess
                lo //= scale
                hi = -((-hi) // scale)
            while lo >= top:
                lo //= base
                hi = -((-hi) // base)
        self.lo, self.hi = lo, hi

    def certified_digit(self) -> int | None:
        """Leading base digit if both endpoints agree on it, else None."""
        d = self.lo // self.unit
        return d if self.hi // self.unit == d else None


def alpha_power_digits(alpha: AlphaLike, n_max: int, base: int = 10) -> Iterator[int]:
    """First base digits of alpha**n for n = 1..n_max, every digit certified.

    ``alpha`` may be a Fraction, an integer, or an exact string such as
    "1.007" or "1007/1000" (floats are taken at their exact binary value).
    """
    a = _as_ratio(alpha)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    check_base(base)
    interval = _ProductInterval(a.numerator, a.denominator, base)

    def gen() -> Iterator[int]:
        for n in range(1, n_max + 1):
            interval.step()
            d = interval.certified_digit()
            if d is None:
                d = _exact_alpha_digit(a, n, base)
            yield d

    return gen()


def _exact_alpha_digit(alpha: Fraction, n: int, base: int) -> int:
    """Exact big-rational fallback for an uncertified term."""
    return extract_digits_rational(
        alpha.numerator**n, alpha.denominator**n, 1, base
    ).first


class _Series(NamedTuple):
    values: Callable[..., Iterator]
    digits: Callable[..., Iterator[int]]
    # (name, type, default, help) in argument order; default None = required.
    params: tuple[tuple[str, type, int | None, str], ...]


# The series kinds: each one's value and first-digit generators and the
# parameters both take (the digit generator also takes the base). The CLI
# builds `generate`'s flags, kind choices and epilog from this table.
_SERIES = {
    "fibonacci": _Series(
        fibonacci_values,
        fibonacci_digits,
        (("a1", int, 1, "first seed"), ("a2", int, 1, "second seed"),
         ("terms", int, None, "number of terms")),
    ),
    "primes": _Series(prime_values, prime_digits,
                      (("below", int, None, "exclusive upper bound"),)),
    "power_alpha": _Series(
        alpha_power_values,
        alpha_power_digits,
        (("alpha", Fraction, None, "ratio > 1, e.g. 1007/1000 or 1.007"),
         ("n", int, None, "term count")),
    ),
    "factorial": _Series(factorial_values, factorial_digits,
                         (("n", int, None, "term count"),)),
    "power_n": _Series(
        n_power_values, n_power_digits,
        (("k", int, None, "exponent"), ("n", int, None, "term count")),
    ),
    "pascal": _Series(pascal_values, pascal_digits,
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

    def digit_stream(self) -> Iterator[int]:
        return _SERIES[self.kind].digits(*self._arguments(), self.base)

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
