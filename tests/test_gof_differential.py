"""Differential tests of the conformance statistics and the reports: the
statistics on tuples with `math.fsum`, the law from
`law.marginal_distribution`, the CSV row flattened from the JSON document
and the text report on frequencies derived from the census, against the
numpy statistics, the per-position law lookup, the hand-written CSV field
list and the histogram rows they replaced (`gof_oracle`).

Sample sizes stay below 2**53. Above it the numpy frequencies rounded the
size to a double before dividing, while `count / size` on integers is
correctly rounded, so the two would differ there.
"""

import pytest

import gof_oracle
from benfordkit import gof, report
from benfordkit.errors import DomainError, EmptyCensus
from benfordkit.gof import DigitCensus

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

_count = st.one_of(st.integers(0, 60), st.integers(0, 2**46))


def _counts(length):
    # Each count below 2**46 and at most 63 of them keep the size below 2**53.
    return st.lists(_count, min_size=length, max_size=length)


_first_digit_censuses = _counts(9).map(lambda c: DigitCensus(1, 10, tuple(c)))


@st.composite
def _any_base_censuses(draw):
    base = draw(st.integers(2, 64))
    return DigitCensus(1, base, tuple(draw(_counts(base - 1))))


@st.composite
def _documents(draw):
    """Testable, report-only and no-law (position 3, base 7) documents,
    empty ones among them."""
    position, base = draw(st.sampled_from([(1, 10), (2, 10), (3, 10), (9, 10), (1, 16),
                                           (1, 2), (3, 7)]))
    size = len(gof.digit_support(position, base))
    counts = draw(st.one_of(_counts(size), st.just([0] * size)))
    census = DigitCensus(position, base, tuple(counts), draw(st.integers(0, 5)))
    return report.build_report(census, input_descriptor=draw(st.text(max_size=12)))


def _outcome(stat, census):
    try:
        return stat(census)
    except (DomainError, EmptyCensus) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_first_digit_censuses)
def test_statistics_match_oracle(census):
    # The oracle's full_report takes chi-square and d_max from its own
    # chi_square and max_deviation.
    for name in ("tvd_benford", "full_report"):
        assert (_outcome(getattr(gof, name), census)
                == _outcome(getattr(gof_oracle, name), census)), name


@settings(max_examples=400, deadline=None)
@given(_any_base_censuses())
def test_d1_in_any_base_matches_oracle(census):
    assert _outcome(gof.tvd_benford, census) == _outcome(gof_oracle.tvd_benford, census)


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_document_and_csv_row_match_oracle(doc):
    expected = gof_oracle._expected_frequencies(doc.census)
    assert report.to_json_dict(doc)["expected"] == (
        [report.round12(p) for p in expected] if expected is not None
        else [None] * len(doc.census.counts))
    if doc.gof is not None:
        assert doc.gof == gof_oracle.full_report(doc.census)
    assert report.to_csv(doc) == gof_oracle.to_csv(doc)


# digit 1 of `1 2 3` in base 8: 1/3 - log_8(2) is -5.6e-17, which prints as
# -0.0000; the 12-digit JSON numbers would print +0.0000.
_BASE8_123 = report.build_report(DigitCensus(1, 8, (1, 1, 1, 0, 0, 0, 0)))


@settings(max_examples=400, deadline=None)
@given(_documents())
@hypothesis.example(_BASE8_123)
def test_text_report_matches_oracle(doc):
    assert report.to_text(doc) == gof_oracle.to_text(doc)


def test_text_report_prints_unrounded_frequencies():
    assert report.to_text(_BASE8_123).splitlines()[4] == (
        "    1         1      0.3333      0.3333     -0.0000")


@pytest.mark.parametrize("position, base", [(2, 10), (1, 16), (3, 7)])
def test_untestable_censuses_raise_alike(position, base):
    census = DigitCensus(position, base, (1,) * len(gof.digit_support(position, base)))
    outcome = _outcome(gof.full_report, census)
    assert outcome[0] is DomainError
    for name in ("chi_square", "max_deviation", "full_report"):
        assert outcome == _outcome(getattr(gof_oracle, name), census), name
