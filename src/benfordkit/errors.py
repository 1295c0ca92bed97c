"""Exception hierarchy shared across the package."""


class BenfordError(Exception):
    """Base class for all errors raised by benfordkit."""


class MalformedToken(BenfordError):
    """A character string does not match the numeric-token grammar."""


class ZeroValue(BenfordError):
    """A value is exactly zero, so no first significant digit exists.

    Census builders catch this and tally the value under exclusions
    instead of counting a digit.
    """


class DomainError(BenfordError):
    """An argument lies outside the supported domain of an operation."""


class EmptyCensus(BenfordError):
    """A goodness-of-fit statistic was requested for a census with no counts."""


class InvalidNoise(BenfordError):
    """A noise family is incompatible with the requested process kind."""


class EncodingError(BenfordError):
    """Input bytes could not be decoded as UTF-8."""


class FormatError(BenfordError):
    """A delimited file is structurally malformed (e.g. ragged rows)."""


class MissingColumn(BenfordError):
    """A requested column name is absent from a table header."""
