"""The text scanner as it was before the token pattern took over the
boundary rules, for differential tests.

`scan_text` searches the bare token grammar from a resume position, checks
both neighbours of each match with `str.isalnum`, retries one character
later after a sign glued to a word, and skips a disqualified run with
`_skip_run`. `benfordkit.ingest.scan_text` runs one `finditer` of the
scanner pattern per line instead and must yield the same tokens. The
grammar, `token_pattern`, `_RUN_EXTRAS`, `_skip_run` and `scan_text` are
verbatim copies; the record builder and token types are the package's.
"""

from __future__ import annotations

import re
from typing import Iterator

from benfordkit.ingest import NumberToken, ScanPolicy, _decode
from benfordkit.significand import _decimal_from_match

# One grammar, compiled twice: the grouped form also takes an integer part
# written in comma-grouped form ("2,300"), its alternatives ordered so that
# form wins when it applies.
_TOKEN_PLAIN, _TOKEN_GROUPED = (
    re.compile(
        rf"""
        [+-]?
        (?:
            (?P<int>{integer}) (?: \. (?P<frac>\d+) )?
          | \. (?P<lone_frac>\d+)
        )
        (?: [eE] (?P<exp>[+-]?\d+) )?
        """,
        re.VERBOSE,
    )
    for integer in (r"\d+", r"\d{1,3}(?:,\d{3})+|\d+")
)


def token_pattern(separators: bool = False) -> re.Pattern[str]:
    """Compiled regex for the numeric-token grammar (used by the scanner)."""
    return _TOKEN_GROUPED if separators else _TOKEN_PLAIN


_RUN_EXTRAS = set(".,+-")


def _skip_run(line: str, start: int) -> int:
    """Advance past a contiguous alphanumeric-ish run that disqualified a
    candidate token (e.g. the whole of "v2.0")."""
    i = start
    n = len(line)
    while i < n and (line[i].isalnum() or line[i] in _RUN_EXTRAS):
        i += 1
    return max(i, start + 1)


def scan_text(data: str | bytes, policy: ScanPolicy = ScanPolicy()) -> Iterator[NumberToken]:
    """Yield every standalone numeric token in the text, line by line.

    Token boundaries require non-alphanumeric neighbors, so numbers inside
    words are skipped. Non-numeric text never raises; the only possible
    error is a bytes input that is not UTF-8.
    """
    text = _decode(data)
    pattern = token_pattern(policy.thousands_separators)
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while (m := pattern.search(line, pos)) is not None:
            start, end = m.span()
            before = line[start - 1] if start > 0 else ""
            after = line[end] if end < len(line) else ""
            if before and before.isalnum():
                if m.group()[0] in "+-":
                    # Only the sign touches the preceding word; the digits
                    # may still stand alone ("x-5" yields 5).
                    pos = start + 1
                else:
                    pos = _skip_run(line, start)
                continue
            if after and after.isalnum():
                pos = _skip_run(line, start)
                continue
            value = _decimal_from_match(m)
            yield NumberToken(value=value, line=lineno, column=start + 1, raw=m.group())
            pos = end
