import _pydecimal
import decimal
import io
import random
import string
import sys
from fractions import Fraction

import pytest

import ingest_oracle
from benfordkit import gof, ingest, significand
from benfordkit.errors import DomainError, EncodingError, FormatError, MissingColumn
from benfordkit.ingest import (
    NumberToken,
    ScanPolicy,
    census_from_table,
    census_from_text,
    census_from_tokens,
    dump_tokens_csv,
    read_table,
    scan_text,
)
from benfordkit.significand import ExactDecimal, extract_digits, parse_token


def values(tokens):
    return [t.value.as_fraction() for t in tokens]


class TestScanText:
    def test_price_sentence_with_separators(self):
        tokens = list(
            scan_text("price rose 0.150 to 2,300", ScanPolicy(thousands_separators=True))
        )
        assert values(tokens) == [Fraction(150, 1000), 2300]
        digits = [extract_digits(t.value, 1).first for t in tokens]
        assert digits == [1, 2]

    def test_separators_off_splits_groups(self):
        tokens = list(scan_text("2,300"))
        assert values(tokens) == [2, 300]

    def test_empty_input(self):
        assert list(scan_text("")) == []

    def test_scientific_notation_in_prose(self):
        tokens = list(scan_text("Planck 6.626e-34 J s"))
        assert len(tokens) == 1
        assert tokens[0].raw == "6.626e-34"
        assert extract_digits(tokens[0].value, 1).first == 6

    def test_numbers_inside_words_are_skipped(self):
        assert list(scan_text("A4 paper and v2.0 released")) == []

    def test_sign_glued_to_word_frees_the_digits(self):
        tokens = list(scan_text("x-5 and y+3"))
        assert values(tokens) == [5, 3]

    def test_standalone_signs_kept(self):
        tokens = list(scan_text("delta = -5 or +3"))
        assert values(tokens) == [-5, 3]

    def test_punctuation_boundaries(self):
        tokens = list(scan_text("(129), [0.5]; 7."))
        assert values(tokens) == [129, Fraction(1, 2), 7]

    def test_source_locations(self):
        tokens = list(scan_text("a 12\nbb 7"))
        assert (tokens[0].line, tokens[0].column) == (1, 3)
        assert (tokens[1].line, tokens[1].column) == (2, 4)

    def test_raw_reparses_to_same_value(self):
        text = "take 0.150, then 2,300 and -6.6e-3 or .25"
        for token in scan_text(text, ScanPolicy(thousands_separators=True)):
            assert parse_token(
                token.raw, separators=True
            ) == token.value

    def test_bytes_input_and_encoding_error(self):
        assert values(scan_text(b"129 ok")) == [129]
        with pytest.raises(EncodingError, match="^cannot decode input as utf-8: "):
            list(scan_text(b"\xff\xfe7"))

    def test_never_raises_on_arbitrary_text(self):
        rng = random.Random(123)
        alphabet = string.printable + "äüπ—€٣"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
            for policy in (ScanPolicy(), ScanPolicy(thousands_separators=True)):
                for token in scan_text(text, policy):
                    reparsed = parse_token(
                        token.raw, separators=policy.thousands_separators
                    )
                    assert reparsed == token.value

    def test_token_census_stable_under_line_reorder(self):
        lines = [
            "alpha 12 and 0.003",
            "99 bottles",
            "no numbers here",
            "7,000 with 4 items",
        ]
        policy = ScanPolicy(thousands_separators=True)
        census_a = census_from_text("\n".join(lines), policy)
        census_b = census_from_text("\n".join(reversed(lines)), policy)
        assert census_a == census_b


class TestCensusFromText:
    def test_zero_tokens_counted_excluded(self):
        census = census_from_text("0 and 0.00 then 5")
        assert census.sample_size == 1
        assert census.exclusions == 2

    def test_skip_patterns(self):
        policy = ScanPolicy(skip_patterns=(r"\d{4}",))
        census = census_from_text("in 1999 we sold 23 units for 1850", policy)
        assert census.sample_size == 1
        assert census.count_of(2) == 1
        assert census.exclusions == 2

    def test_deeper_position(self):
        census = census_from_text("129 and 150", position=2)
        assert census.count_of(2) == 1
        assert census.count_of(5) == 1

    def test_grouped_digits_read_past_the_commas(self):
        policy = ScanPolicy(thousands_separators=True)
        assert census_from_text("2,300 1,234,567 -9,876.5", policy, position=2).counts == (
            0, 0, 1, 1, 0, 0, 0, 0, 1, 0)
        assert census_from_text("2,300 1,234,567", policy, position=4).counts == (
            1, 0, 0, 0, 1, 0, 0, 0, 0, 0)


class TestReadTable:
    CSV = "name,val\na,0.150\nb,129\n"

    def test_column_selection(self):
        tokens = list(read_table(self.CSV, policy=ScanPolicy(columns=("val",))))
        assert values(tokens) == [Fraction(150, 1000), 129]
        assert tokens[0].line == 2 and tokens[0].column == 2

    def test_all_columns_by_default(self):
        tokens = list(read_table("x,y\n1,2\n"))
        assert values(tokens) == [1, 2]

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            list(read_table(self.CSV, policy=ScanPolicy(columns=("nope",))))

    def test_column_selected_twice(self):
        # Counting a column twice would double the sample size.
        policy = ScanPolicy(columns=("val", "name", "val"))
        with pytest.raises(DomainError, match="column 'val' selected twice"):
            list(read_table(self.CSV, policy=policy))
        with pytest.raises(DomainError, match="column 'val' selected twice"):
            census_from_table(self.CSV, policy=policy)

    def test_selected_name_repeated_in_header(self):
        # header.index would read the first "a" and drop the second.
        text = "a,a,b\n12,34,x\n56,78,y\n"
        policy = ScanPolicy(columns=("a",))
        with pytest.raises(FormatError, match="column 'a' appears 2 times in the header"):
            list(read_table(text, policy=policy))
        with pytest.raises(FormatError, match="column 'a' appears 2 times"):
            census_from_table(text, policy=policy)
        assert values(read_table(text, policy=ScanPolicy(columns=("b",)))) == []
        assert values(read_table(text)) == [12, 34, 56, 78]

    def test_ragged_row_reports_row_number(self):
        with pytest.raises(FormatError, match="row 3"):
            list(read_table("a,b\n1,2\n3\n"))

    def test_tsv(self):
        tokens = list(read_table("a\tb\n1\t250\n", fmt="tsv"))
        assert values(tokens) == [1, 250]

    def test_unknown_format(self):
        with pytest.raises(FormatError):
            list(read_table("a,b\n", fmt="xlsx"))

    def test_header_only_and_empty(self):
        assert list(read_table("a,b\n")) == []
        assert list(read_table("")) == []

    def test_non_numeric_cells_skipped(self):
        tokens = list(read_table("v\nN/A\n7\n \n"))
        assert values(tokens) == [7]


class TestCensusFromTable:
    def test_non_numeric_cells_counted(self):
        census = census_from_table("v\nN/A\n7\n0\n")
        assert census.sample_size == 1
        assert census.exclusions == 2  # N/A and the zero

    def test_fixture_census_matches_reference_counts(self):
        from benfordkit.datasets import constants_sample_path

        data = constants_sample_path().read_bytes()
        census = census_from_table(data, policy=ScanPolicy(columns=("value",)))
        assert census.counts == (63, 37, 18, 15, 15, 13, 7, 7, 8)
        assert census.sample_size == 183
        assert census.exclusions == 0

    def test_positions_and_bases(self):
        census = census_from_table("v\n255\n16\n", base=16)
        assert census.count_of(15) == 1
        assert census.count_of(1) == 1


class TestTokenPipeline:
    def test_first_digits_consistent_with_extraction(self):
        text = "mix 0.150 2,300 6.626e-34 129 0.5"
        policy = ScanPolicy(thousands_separators=True)
        tokens = list(scan_text(text, policy))
        census = census_from_tokens(tokens, policy)
        manual = [0] * 9
        for token in tokens:
            manual[extract_digits(token.value, 1).first - 1] += 1
        assert census.counts == tuple(manual)

    def test_dump_tokens_csv(self):
        tokens = list(scan_text("a 12 b 0.5"))
        out = io.StringIO()
        n = dump_tokens_csv(tokens, out)
        assert n == 2
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "line,column,raw,value"
        assert lines[1] == "1,3,12,12"
        assert lines[2] == "1,8,0.5,0.5"

    def test_number_token_fields(self):
        token = NumberToken(parse_token("7"), line=3, column=9, raw="7")
        assert (token.line, token.column) == (3, 9)


class TestDumpPastDecimalExponentRange:
    # C Decimal holds adjusted exponents up to about 10**18; the dump prints
    # these values as the pure-Python decimal module does.
    @pytest.mark.parametrize("raw", [
        "1e99999999999999999999", "-1e99999999999999999999", "2.5e-99999999999999999999",
        "-2.5e-99999999999999999999", "1.5e4611686018427387904", "0e99999999999999999999",
        "-0.00e99999999999999999999", "0.0e-99999999999999999999",
    ])
    def test_dump_matches_pure_python_decimal(self, raw):
        tokens = list(scan_text(f"x {raw} y"))
        value = tokens[0].value
        exact = (int(value.sign < 0), tuple(map(int, value.digits)),
                 value.exponent - len(value.digits))
        with pytest.raises((OverflowError, decimal.InvalidOperation)):
            decimal.Decimal(exact)
        out = io.StringIO()
        assert dump_tokens_csv(tokens, out) == 1
        assert out.getvalue().splitlines()[1] == f"1,3,{raw},{_pydecimal.Decimal(exact)}"


class TestBlankRecords:
    # Spreadsheets and editors leave blank lines in CSV/TSV files; csv.reader
    # reads each as an empty record, which is skipped.
    @pytest.mark.parametrize("text", ["a,b\n12,3\n40,5\n\n", "a,b\n12,3\n\n40,5\n",
                                      "\na,b\n12,3\n\n\n40,5\n"])
    def test_blank_lines_skipped(self, text):
        assert values(read_table(text)) == [12, 3, 40, 5]
        assert census_from_table(text) == census_from_table("a,b\n12,3\n40,5\n")
        assert census_from_table(text.replace(",", "\t"), "tsv").sample_size == 4

    def test_row_numbers_count_physical_rows(self):
        tokens = list(read_table("a,b\n\n12,3\n\n40,5\n"))
        assert [(t.line, t.column) for t in tokens] == [(3, 1), (3, 2), (5, 1), (5, 2)]
        with pytest.raises(FormatError, match="row 4: expected 2 fields, got 1"):
            census_from_table("a,b\n12,3\n\n7\n")

    def test_header_after_blank_lines(self):
        policy = ScanPolicy(columns=("b",))
        assert values(read_table("\n\na,b\n12,3\n", policy=policy)) == [3]


class TestRecordEndings:
    # Classic Mac OS exports end records in a bare CR.
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_cr_lf_and_crlf(self, end):
        text = end.join(["a,b", "12,3", "", "40,5", ""])
        assert [(t.line, t.raw) for t in read_table(text)] == [
            (2, "12"), (2, "3"), (4, "40"), (4, "5")]
        assert census_from_table(text) == census_from_table("a,b\n12,3\n40,5\n")

    def test_unreadable_record_names_its_row(self):
        # A cell past the csv module's field size limit (131072 characters).
        text = "a,b\n1,2\n\n3," + "4" * 200_000 + "\n"
        for read in (census_from_table, lambda t: list(read_table(t))):
            with pytest.raises(FormatError, match="^row 4: field larger than field limit"):
                read(text)


class TestByteOrderMark:
    # Excel's "CSV UTF-8" starts the file with U+FEFF; one is dropped.
    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    @pytest.mark.parametrize("encode", [str, str.encode])
    def test_first_header_cell(self, fmt, sep, encode):
        data = encode(f"\ufeffamount{sep}b\n12{sep}x\n3{sep}4\n")
        policy = ScanPolicy(columns=("amount",))
        assert values(read_table(data, fmt, policy)) == [12, 3]
        assert census_from_table(data, fmt, policy).counts == (1, 0, 1, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("encode", [str, str.encode])
    def test_text(self, encode):
        tokens = list(scan_text(encode("\ufeff12 7")))
        assert [(t.raw, t.column) for t in tokens] == [("12", 1), ("7", 4)]
        assert census_from_text(encode("\ufeff12 7")).sample_size == 2

    def test_only_one_mark_dropped(self):
        assert [t.column for t in scan_text("\ufeff\ufeff5")] == [2]


class TestExponentsPastStrDigitLimit:
    # int() refuses more than 4300 digits; the base-10 census never reads
    # the exponent, so it counts these tokens.
    HUGE = f"1e{'9' * 5000}"

    def test_text_census(self):
        census = census_from_text(f"5 {self.HUGE} 7")
        assert (census.counts, census.exclusions) == ((1, 0, 0, 0, 1, 0, 1, 0, 0), 0)
        assert census_from_text(f"-0.0e{'9' * 5000}").exclusions == 1

    def test_table_census(self):
        census = census_from_table(f"v\n5\n{self.HUGE}\n7\n")
        assert (census.counts, census.exclusions) == ((1, 0, 0, 0, 1, 0, 1, 0, 0), 0)

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                        reason="needs CPython's int/str digit limit")
    def test_other_bases_and_records_still_raise(self):
        # Bounding these is a separate change: an exponent cap with its own
        # exclusion reason.
        with pytest.raises(ValueError):
            census_from_text(f"5 {self.HUGE} 7", base=16)
        with pytest.raises(ValueError):
            census_from_table(f"v\n5\n{self.HUGE}\n7\n", base=7)
        with pytest.raises(ValueError):
            list(scan_text(self.HUGE))
        with pytest.raises(ValueError):
            list(read_table(f"v\n{self.HUGE}\n"))


class TestCensusFromMatches:
    # The base-10 censuses count straight from the token match: no exact
    # record, no token and no parse per item.
    TEXT = ("in 1999 sales of 2,300 rose 0.150 to -6.626e-34, then 0 and 00.0e5; "
            "٣٣ and ３.５ v2.0 A4 9.5e999999999 .05 +7\r\n1,234,567 and 12,34")
    TABLE = "a,b,c\n0,word,1999\n2,300,.5\n٣٣,-7e-3, 12 \nN/A,1e5x,0.00\n"

    @pytest.fixture
    def refuse_records(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a base-10 census built a token record")

        def install():
            monkeypatch.setattr(ExactDecimal, "__post_init__", refuse)
            monkeypatch.setattr(ingest, "NumberToken", refuse)
            monkeypatch.setattr(significand, "parse_token", refuse)
            monkeypatch.setattr(gof, "parse_token", refuse)
        return install

    @pytest.mark.parametrize("separators", [False, True])
    @pytest.mark.parametrize("skips", [(), (r"\d{4}",)])
    def test_same_censuses_without_records(self, separators, skips, refuse_records):
        policy = ScanPolicy(thousands_separators=separators, skip_patterns=skips)
        expected = [(ingest_oracle.census_from_tokens(scan_text(self.TEXT, policy), policy, k),
                     ingest_oracle.census_from_table(self.TABLE, "csv", policy, k))
                    for k in (1, 2, 3)]
        refuse_records()
        assert [(census_from_text(self.TEXT, policy, k),
                 census_from_table(self.TABLE, "csv", policy, k)) for k in (1, 2, 3)] == expected
        assert expected[0][0].exclusions > 0 and expected[0][1].exclusions > 0
