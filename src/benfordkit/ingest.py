"""Numeric-token extraction from free text and delimited tables.

The scanner pulls every standalone numeric token out of arbitrary text --
scientific notation included -- and parses it exactly, so 0.150 counts a
first significant digit of 1 rather than a leading character of 0, and
surrounding prose never causes an error. Tokens glued to letters ("A4",
"v2.0") are not numbers and are left alone. What counts as standalone is
decided in one place, the text scanner (``significand._SCAN``). It
enters the grammar only at a sign, a digit or a point, the characters a
token can start with, so skipping every other position changes no match. A
table cell is a token when the token grammar matches all of it.

The token records (``scan_text``, ``read_table``) and the censuses
(``census_from_text``, ``census_from_table``) match the same patterns: the
records run the scanner over each line, for line numbers, and the text
census once over the whole text. The censuses count each digit straight
from its match, with no record built. In base 10 at position 1 a token
whose text, past its sign, ASCII zeros, point and commas, starts with an
ASCII 1-9 has that first digit, with no digit parsed; other base-10
tokens, zeros among them, are read off their written digits, the exponent
never read.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .errors import DomainError, EncodingError, FormatError, MissingColumn
from .gof import DigitCensus, count_digits
from .significand import _SCAN, _TOKEN, ExactDecimal, _decimal_from_match, _match_digit


@dataclass(frozen=True)
class ScanPolicy:
    """Tokenization policy for a scan or table read.

    skip_patterns are regexes matched against a token's raw text (after
    extraction, before the census); matches are excluded and counted, e.g.
    r"^\\d{4}$" to drop standalone 4-digit years. The default policy keeps
    every numeric token. ``compiled_skips`` raises DomainError, naming the
    pattern, for one that is not a valid regex.
    """

    thousands_separators: bool = False
    skip_patterns: tuple[str, ...] = ()
    columns: tuple[str, ...] | None = None

    def compiled_skips(self) -> list[re.Pattern[str]]:
        try:
            return [re.compile(p) for p in self.skip_patterns]
        except re.error as exc:
            raise DomainError(
                f"skip pattern {exc.pattern!r} is not a valid regex: {exc}") from None


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


def _decode(data: str | bytes) -> str:
    """The text, bytes read as UTF-8, without one leading byte-order mark (U+FEFF)."""
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"cannot decode input as utf-8: {exc}") from exc
    return data.removeprefix("\ufeff")


def scan_text(data: str | bytes, policy: ScanPolicy = ScanPolicy()) -> Iterator[NumberToken]:
    """Yield every standalone numeric token in the text, line by line.

    Token boundaries require non-alphanumeric neighbors, so numbers inside
    words are skipped; the scanner decides. Non-numeric text never raises; the only possible
    error is a bytes input that is not UTF-8.
    """
    pattern = _SCAN[policy.thousands_separators]
    for lineno, line in enumerate(_decode(data).splitlines(), start=1):
        for m in pattern.finditer(line):
            if m.group("alone") is not None:
                yield NumberToken(value=_decimal_from_match(m), line=lineno,
                                  column=m.start() + 1, raw=m.group())


def _records(reader: Iterator[list[str]]) -> Iterator[tuple[int, list[str]]]:
    """(row number, row) for every non-empty record of a csv reader. A
    record whose width is not the first record's (the header's), or that
    the reader cannot read, raises FormatError naming its row."""
    rowno = width = 0
    try:
        for rowno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != width:
                if width:
                    raise FormatError(f"row {rowno}: expected {width} fields, got {len(row)}")
                width = len(row)
            yield rowno, row
    except csv.Error as exc:
        raise FormatError(f"row {rowno + 1}: {exc}") from None


def _table_rows(
    data: str | bytes, fmt: str, policy: ScanPolicy
) -> tuple[list[int], Iterator[tuple[int, list[str]]]]:
    """The selected table columns, and every row after the header with its
    row number.

    Row numbers count every record, the header included; empty records
    (blank lines) are skipped. Records may end in CR, LF or CRLF. Ragged
    rows, and records the csv module cannot read (a cell longer than its
    field size limit), raise FormatError with the offending row number.
    """
    if fmt not in ("csv", "tsv"):
        raise FormatError(f"unsupported table format {fmt!r}")
    text = _decode(data)
    reader = csv.reader(io.StringIO(text, newline=""), delimiter="," if fmt == "csv" else "\t")
    records = _records(reader)
    _, header = next(records, (None, None))
    if header is None:
        return [], iter(())
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
    return selected, records


def read_table(
    data: str | bytes, fmt: str = "csv", policy: ScanPolicy = ScanPolicy()
) -> Iterator[NumberToken]:
    """Yield numeric tokens from the selected columns of a delimited file.

    The first non-empty row is the header. A cell is a token when the
    token grammar matches all of it, stripped of surrounding space. Cells
    that are not numeric tokens are skipped here; ``census_from_table``
    counts them as exclusions.
    """
    selected, rows = _table_rows(data, fmt, policy)
    cell_token = _TOKEN[policy.thousands_separators].fullmatch
    for rowno, row in rows:
        for idx in selected:
            m = cell_token(row[idx].strip())
            if m is not None:
                yield NumberToken(value=_decimal_from_match(m), line=rowno,
                                  column=idx + 1, raw=m.group())


def census_from_tokens(
    tokens: Iterable[NumberToken | None],
    policy: ScanPolicy = ScanPolicy(),
    position: int = 1,
    base: int = 10,
) -> DigitCensus:
    """Census of token digits with policy exclusions applied.

    A token matching a skip pattern becomes a None item, which
    ``count_digits`` excludes and counts, as it does a None token (a table
    cell that is not a numeric token) and a zero value (no significant
    digit).
    """
    skips = policy.compiled_skips()
    return count_digits(
        (None if token is None or any(rx.fullmatch(token.raw) for rx in skips)
         else token.value for token in tokens),
        position, base)


def _skipping(
    matches: Iterable[re.Match[str] | None], skip: re.Pattern[str]
) -> Iterator[re.Match[str] | None]:
    """The matches, with None for each whose raw text ``skip`` fully matches."""
    for m in matches:
        yield None if m is None or skip.fullmatch(m.group()) else m


def _match_census(
    matches: Iterable[re.Match[str] | None], policy: ScanPolicy, position: int, base: int
) -> DigitCensus:
    """``census_from_tokens`` over token matches: the same items, each
    counted straight from its match (``_match_digit``), no record built.
    Each skip pattern adds one layer; with none, the matches go straight
    to the counting loop."""
    for skip in policy.compiled_skips():
        matches = _skipping(matches, skip)
    return count_digits(matches, position, base, _match_digit)


def census_from_text(
    data: str | bytes,
    policy: ScanPolicy = ScanPolicy(),
    position: int = 1,
    base: int = 10,
) -> DigitCensus:
    """One-stop scan: text in, digit census out.

    The pattern runs once over the whole text. A line break is neither
    alphanumeric nor part of a token, so the text has the standalone
    tokens of its lines (``scan_text``)."""
    matches = _SCAN[policy.thousands_separators].finditer(_decode(data))
    return _match_census((m for m in matches if m.group("alone") is not None),
                         policy, position, base)


def census_from_table(
    data: str | bytes,
    fmt: str = "csv",
    policy: ScanPolicy = ScanPolicy(),
    position: int = 1,
    base: int = 10,
) -> DigitCensus:
    """One-stop table read; every selected cell is an item of the census,
    and one that is not a numeric token counts as an exclusion."""
    selected, rows = _table_rows(data, fmt, policy)
    cells = (row[idx].strip() for _, row in rows for idx in selected)
    return _match_census(map(_TOKEN[policy.thousands_separators].fullmatch, cells),
                         policy, position, base)


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
