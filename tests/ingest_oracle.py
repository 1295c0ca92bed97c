"""The table reader and token census as they were before every exclusion
was counted in `gof.count_digits`, for differential tests.

`_table_tokens` skips a cell that is not a numeric token and tallies it in
a one-element list, `census_from_tokens` counts skip-pattern matches in a
nested generator, and `census_from_table` adds the cell tally to the
census afterwards. `benfordkit.ingest` yields a None item for each of
these instead, which `count_digits` counts, and must give the same tokens
and the same census. `_iter_cells`, `read_table`, `_table_tokens`,
`census_from_tokens` and `census_from_table` are verbatim copies, except
that `dataclasses.replace` stands where they called the removed
`DigitCensus.with_exclusions`; the token types, decoder and counting loop
are the package's.
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from typing import Iterable, Iterator

from benfordkit.errors import DomainError, FormatError, MalformedToken, MissingColumn
from benfordkit.gof import DigitCensus, count_digits
from benfordkit.ingest import NumberToken, ScanPolicy, _decode
from benfordkit.significand import ExactDecimal, parse_token


def _iter_cells(
    data: str | bytes, fmt: str, policy: ScanPolicy
) -> Iterator[tuple[int, int, str]]:
    """Yield (row number, table column, cell text) for the selected columns.

    Row numbers count the header as row 1. Ragged rows raise FormatError
    with the offending row number.
    """
    if fmt not in ("csv", "tsv"):
        raise FormatError(f"unsupported table format {fmt!r}")
    text = _decode(data)
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
    data: str | bytes, fmt: str = "csv", policy: ScanPolicy = ScanPolicy()
) -> Iterator[NumberToken]:
    """Yield numeric tokens from the selected columns of a delimited file.

    The first row is a header. Cells that are not numeric tokens are
    skipped here; the census builders count them as exclusions.
    """
    return _table_tokens(data, fmt, policy, [0])


def _table_tokens(
    data: str | bytes,
    fmt: str,
    policy: ScanPolicy,
    non_numeric: list[int],
) -> Iterator[NumberToken]:
    """The tokens of ``read_table``; cells that are not numeric tokens are
    skipped and tallied in ``non_numeric[0]``."""
    for rowno, colno, cell in _iter_cells(data, fmt, policy):
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

    census = count_digits(kept(), position, base)
    return replace(census, exclusions=census.exclusions + skipped)


def census_from_table(
    data: str | bytes,
    fmt: str = "csv",
    policy: ScanPolicy = ScanPolicy(),
    position: int = 1,
    base: int = 10,
) -> DigitCensus:
    """One-stop table read; non-numeric cells count as exclusions."""
    non_numeric = [0]
    tokens = _table_tokens(data, fmt, policy, non_numeric)
    census = census_from_tokens(tokens, policy, position, base)
    return replace(census, exclusions=census.exclusions + non_numeric[0])
