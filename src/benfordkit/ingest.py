"""Numeric-token extraction from free text and delimited tables.

The scanner pulls every standalone numeric token out of arbitrary text --
scientific notation included -- and parses it exactly, so 0.150 counts a
first significant digit of 1 rather than a leading character of 0, and
surrounding prose never causes an error. Tokens glued to letters ("A4",
"v2.0") are not numbers and are left alone. What counts as standalone is
decided in one place, the token pattern (``significand.token_pattern``):
the scanner runs it once over each line and keeps the matches it marks.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .errors import DomainError, EncodingError, FormatError, MalformedToken, MissingColumn
from .gof import DigitCensus, count_digits
from .significand import ExactDecimal, _decimal_from_match, parse_token, token_pattern


@dataclass(frozen=True)
class ScanPolicy:
    """Tokenization policy for a scan or table read.

    skip_patterns are regexes matched against a token's raw text (after
    extraction, before the census); matches are excluded and counted, e.g.
    r"^\\d{4}$" to drop standalone 4-digit years. The default policy keeps
    every numeric token.
    """

    thousands_separators: bool = False
    skip_patterns: tuple[str, ...] = ()
    columns: tuple[str, ...] | None = None

    def compiled_skips(self) -> list[re.Pattern[str]]:
        return [re.compile(p) for p in self.skip_patterns]


@dataclass(frozen=True)
class NumberToken:
    """One numeric token: exact value plus provenance.

    ``line``/``column`` are 1-based; for table reads, column is the table
    column index rather than a character offset.
    """

    value: ExactDecimal
    line: int
    column: int
    raw: str

    @property
    def source(self) -> tuple[int, int]:
        return (self.line, self.column)


def _decode(data: str | bytes, encoding: str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode(encoding)
    except (UnicodeDecodeError, LookupError) as exc:
        raise EncodingError(f"cannot decode input as {encoding}: {exc}") from exc


def scan_text(
    data: str | bytes,
    policy: ScanPolicy = ScanPolicy(),
    encoding: str = "utf-8",
) -> Iterator[NumberToken]:
    """Yield every standalone numeric token in the text, line by line.

    Token boundaries require non-alphanumeric neighbors, so numbers inside
    words are skipped; the token pattern decides. Non-numeric text never raises; the only possible
    error is a bytes input that fails to decode.
    """
    text = _decode(data, encoding)
    pattern = token_pattern(policy.thousands_separators)
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in pattern.finditer(line):
            if m.group("alone") is not None:
                yield NumberToken(value=_decimal_from_match(m), line=lineno,
                                  column=m.start() + 1, raw=m.group())


def _iter_cells(
    data: str | bytes,
    fmt: str,
    policy: ScanPolicy,
    encoding: str,
) -> Iterator[tuple[int, int, str]]:
    """Yield (row number, table column, cell text) for the selected columns.

    Row numbers count the header as row 1. Ragged rows raise FormatError
    with the offending row number.
    """
    if fmt not in ("csv", "tsv"):
        raise FormatError(f"unsupported table format {fmt!r}")
    text = _decode(data, encoding)
    reader = csv.reader(io.StringIO(text), delimiter="," if fmt == "csv" else "\t")
    header = next(reader, None)
    if header is None:
        return
    if policy.columns is None:
        selected = list(range(len(header)))
    else:
        selected = []
        for name in policy.columns:
            if name not in header:
                raise MissingColumn(f"column {name!r} not in header {header}")
            if header.count(name) > 1:
                raise FormatError(
                    f"column {name!r} appears {header.count(name)} times in the header")
            if header.index(name) in selected:
                raise DomainError(f"column {name!r} selected twice")
            selected.append(header.index(name))
    for rowno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise FormatError(
                f"row {rowno}: expected {len(header)} fields, got {len(row)}"
            )
        for idx in selected:
            yield rowno, idx + 1, row[idx].strip()


def read_table(
    data: str | bytes,
    fmt: str = "csv",
    policy: ScanPolicy = ScanPolicy(),
    encoding: str = "utf-8",
) -> Iterator[NumberToken]:
    """Yield numeric tokens from the selected columns of a delimited file.

    The first row is a header. Cells that are not numeric tokens are
    skipped here; the census builders count them as exclusions.
    """
    return _table_tokens(data, fmt, policy, encoding, [0])


def _table_tokens(
    data: str | bytes,
    fmt: str,
    policy: ScanPolicy,
    encoding: str,
    non_numeric: list[int],
) -> Iterator[NumberToken]:
    """The tokens of ``read_table``; cells that are not numeric tokens are
    skipped and tallied in ``non_numeric[0]``."""
    for rowno, colno, cell in _iter_cells(data, fmt, policy, encoding):
        try:
            value = parse_token(cell, separators=policy.thousands_separators)
        except MalformedToken:
            non_numeric[0] += 1
            continue
        yield NumberToken(value=value, line=rowno, column=colno, raw=cell)


def census_from_tokens(
    tokens: Iterable[NumberToken],
    policy: ScanPolicy = ScanPolicy(),
    position: int = 1,
    base: int = 10,
) -> DigitCensus:
    """Census of token digits with policy exclusions applied.

    Tokens matching a skip pattern, and zero-valued tokens (no significant
    digit), are excluded and counted.
    """
    skips = policy.compiled_skips()
    skipped = 0

    def kept() -> Iterator[ExactDecimal]:
        nonlocal skipped
        for token in tokens:
            if any(rx.fullmatch(token.raw) for rx in skips):
                skipped += 1
            else:
                yield token.value

    return count_digits(kept(), position, base).with_exclusions(skipped)


def census_from_text(
    data: str | bytes,
    policy: ScanPolicy = ScanPolicy(),
    position: int = 1,
    base: int = 10,
    encoding: str = "utf-8",
) -> DigitCensus:
    """One-stop scan: text in, digit census out."""
    return census_from_tokens(scan_text(data, policy, encoding), policy, position, base)


def census_from_table(
    data: str | bytes,
    fmt: str = "csv",
    policy: ScanPolicy = ScanPolicy(),
    position: int = 1,
    base: int = 10,
    encoding: str = "utf-8",
) -> DigitCensus:
    """One-stop table read; non-numeric cells count as exclusions."""
    non_numeric = [0]
    tokens = _table_tokens(data, fmt, policy, encoding, non_numeric)
    census = census_from_tokens(tokens, policy, position, base)
    return census.with_exclusions(non_numeric[0])


def dump_tokens_csv(tokens: Iterable[NumberToken], out: TextIO) -> int:
    """Write an audit trail (line, column, raw, value) as CSV; returns the
    number of tokens written."""
    writer = csv.writer(out)
    writer.writerow(["line", "column", "raw", "value"])
    n = 0
    for token in tokens:
        writer.writerow([token.line, token.column, token.raw, str(token.value)])
        n += 1
    return n
