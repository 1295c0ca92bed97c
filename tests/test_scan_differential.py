"""Differential tests of the text scanner: one `finditer` of the scanner
pattern per line against the search-and-resume scanner it replaced
(`scan_oracle`), the scanner against its form without the token-start
guard, the guard's class against the grammar's first characters, and the
pattern's alphanumeric class against `str.isalnum`, both at every code
point."""

import re

import pytest

import scan_oracle
from benfordkit.ingest import ScanPolicy, scan_text
from benfordkit.significand import _GRAMMARS, _SCAN, _TOKEN

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

# Characters that start, end, extend or glue to a token: ASCII digits,
# signs, separators and exponent letters, word characters that are not
# alphanumeric (_), other letters, non-ASCII digits (Arabic-Indic three,
# fullwidth three), numerics that are not decimal digits (superscript two,
# one half, Roman eight), an accented letter, and line breaks.
_PIECES = (list("0123456789+-.,eE _axZ") + ["٣", "３", "²", "½", "Ⅷ", "é"]
           + ["\n", "\r\n", "\x85", "\u2028"])


def _tokens(scanner, text, separators):
    policy = ScanPolicy(thousands_separators=separators)
    return [(t.value, t.line, t.column, t.raw) for t in scanner(text, policy)]


@pytest.mark.parametrize("separators", [False, True])
@pytest.mark.parametrize("text", [
    "x-5 and y+3", "A4 paper and v2.0 released", "1-5", "x+-5", "a.5 .5a .5",
    "1,234,5678 and 1,234.5", "1e5x 1e5 -2.5E-3,", "٣٣ and ３.５", "2² ½5 Ⅷ7 é3",
    "_5_ 5_ _-5", "a 12\r\nbb 7\x85c 8\u2028-9", "", "+", "-.", "e5 5e e-5",
])
def test_fixed_lines_match_oracle(text, separators):
    assert (_tokens(scan_text, text, separators)
            == _tokens(scan_oracle.scan_text, text, separators))


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join), st.booleans())
def test_random_text_matches_oracle(text, separators):
    assert (_tokens(scan_text, text, separators)
            == _tokens(scan_oracle.scan_text, text, separators))


# The oracle: the scanner without its first element, the token-start guard.
_UNGUARDED = r"""
    (?= (?P<tok> {grammar} ) )  # what search finds here; never re-entered
    (?! (?<=[^\W_]) [+-] )      # a sign alone touching a word: retry after it
    (?: (?<![^\W_]) (?P=tok) (?![^\W_]) (?P<alone>)  # no alphanumeric neighbour
      | (?: [^\W_] | [.,+-] )+ )                     # else pass the run ("v2.0")
"""
_ORACLE = tuple(re.compile(_UNGUARDED.format(grammar=grammar), re.VERBOSE)
                for grammar in _GRAMMARS)

# A minus sign and a fullwidth plus look like signs but start no token.
_GUARD_PIECES = _PIECES + ["−", "＋"]


def _matches(pattern, text):
    return [(m.span(), m.groupdict()) for m in pattern.finditer(text)]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_GUARD_PIECES), st.characters()),
                max_size=40).map("".join),
       st.booleans())
def test_guarded_scanner_matches_unguarded(text, separators):
    assert _matches(_SCAN[separators], text) == _matches(_ORACLE[separators], text)


@pytest.mark.parametrize("separators", [False, True])
def test_guard_lists_every_token_start(separators):
    """The scanner's first element is a lookahead on one class, and a
    character is in it exactly when the grammar matches it followed by a
    digit, i.e. when a token can start with it."""
    guard = re.match(r"\s*\(\?=\s*(\[[^\]]*\])\s*\)", _SCAN[separators].pattern)
    assert guard is not None
    every = "".join(map(chr, range(0x110000)))
    by_guard = [m.start() for m in re.finditer(guard.group(1), every)]
    token = _TOKEN[separators].match
    assert by_guard == [i for i, c in enumerate(every) if token(c + "5")]


def test_alphanumeric_class_is_isalnum():
    assert all(r"[^\W_]" in scanner.pattern for scanner in _SCAN)
    every = "".join(map(chr, range(0x110000)))
    by_class = [m.start() for m in re.finditer(r"[^\W_]", every)]
    assert by_class == [i for i, c in enumerate(every) if c.isalnum()]
