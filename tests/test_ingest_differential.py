"""Differential tests of the table reader and token census: one item per
selected cell, with every exclusion counted in `gof.count_digits`, against
the reader and census that tallied non-numeric cells and skip-pattern
matches on the side (`ingest_oracle`). The text and table censuses count
straight from the token matches; the oracle counts the token records."""

import csv
import io

import pytest

import ingest_oracle
from benfordkit.ingest import ScanPolicy, census_from_table, census_from_text, read_table, scan_text

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

# Zeros, words, empty and blank cells, comma-grouped numbers, four-digit
# years for the skip pattern, Unicode digits (Arabic-Indic, fullwidth),
# numerics that are not decimal digits (superscript two, one half), and
# tokens the first-digit read off a token's text could misread: a sign
# before a Unicode digit or zero, a Unicode digit after ASCII zeros and a
# point, commas or a second point among the zeros, an exponent after a
# zero mantissa, and zeros written without an integer part or a nonzero
# digit.
_CELLS = ["0", "0.00", "-0e5", "N/A", "abc", "x1", "", " ", " 7 ", "2,300", "1,234,567",
          "12,34", "1999", "-2.5E-3", ".5", "+7", "1e5x", "٣٣", "３.５", "²", "½",
          "+٣", "-٠", "0٣", "0,5", "0,005", "-0,005.5", "0..5", ".0e7", "00.000", "+.5",
          "0.0e5", "+0.00E-3", "0,000,005", "00,100", "-.0٣", "0.٠5"]
_cell = st.one_of(
    st.sampled_from(_CELLS),
    st.integers(-10**9, 10**9).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(alphabet="0123456789.,eE+- a٣", max_size=8),
)
_SKIPS = [(), (r"\d{4}",), (r"-.*", r"\d")]


# The scanner's alphabet (`test_scan_differential`) and an Arabic-Indic
# zero, with every line break str.splitlines knows of: the text census
# scans the whole text, the token records line by line.
_PIECES = (list("0123456789+-.,eE _axZ") + ["٣", "٠", "３", "²", "½", "Ⅷ", "é"]
           + ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"])


@st.composite
def _tables(draw):
    """A rectangular table, its format and a policy that selects columns."""
    width = draw(st.integers(1, 4))
    header = [f"c{i}" for i in range(width)]
    rows = draw(st.lists(st.lists(_cell, min_size=width, max_size=width), max_size=8))
    fmt = draw(st.sampled_from(["csv", "tsv"]))
    out = io.StringIO()
    writer = csv.writer(out, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
    writer.writerows([header, *rows])
    columns = draw(st.none() | st.lists(st.sampled_from(header), min_size=1, unique=True)
                   .map(tuple))
    policy = ScanPolicy(thousands_separators=draw(st.booleans()),
                        skip_patterns=draw(st.sampled_from(_SKIPS)), columns=columns)
    return out.getvalue(), fmt, policy


@settings(max_examples=300, deadline=None)
@given(_tables(), st.integers(1, 3), st.sampled_from([10, 16]))
def test_table_census_and_tokens_match_oracle(table, position, base):
    data, fmt, policy = table
    assert (census_from_table(data, fmt, policy, position, base)
            == ingest_oracle.census_from_table(data, fmt, policy, position, base))
    assert (list(read_table(data, fmt, policy))
            == list(ingest_oracle.read_table(data, fmt, policy)))


@settings(max_examples=300, deadline=None)
@given(_tables(), st.integers(1, 3), st.sampled_from([10, 16]))
def test_text_census_matches_oracle(table, position, base):
    data, _, policy = table
    assert (census_from_text(data, policy, position, base)
            == ingest_oracle.census_from_tokens(scan_text(data, policy), policy,
                                                position, base))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join), st.booleans(),
       st.sampled_from(_SKIPS), st.integers(1, 3), st.sampled_from([10, 16]))
def test_scanned_text_census_matches_oracle(text, separators, skips, position, base):
    policy = ScanPolicy(thousands_separators=separators, skip_patterns=skips)
    assert (census_from_text(text, policy, position, base)
            == ingest_oracle.census_from_tokens(scan_text(text, policy), policy,
                                                position, base))


def test_fixed_table_counts_every_exclusion():
    # A zero, a word, an empty cell and a skipped year: four exclusions.
    data = "a,b\n0,word\n,1999\n25,3\n"
    policy = ScanPolicy(skip_patterns=(r"\d{4}",))
    census = census_from_table(data, "csv", policy)
    assert census == ingest_oracle.census_from_table(data, "csv", policy)
    assert (census.sample_size, census.exclusions) == (2, 4)
