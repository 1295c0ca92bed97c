import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import benfordkit
from benfordkit import cli, law, report, sequences
from benfordkit.datasets import constants_sample_path
from benfordkit.gof import DigitCensus
from benfordkit.sequences import prime_values
from benfordkit.significand import MAX_BASE

ROOT = Path(__file__).resolve().parent.parent
TABLE4_COUNTS = (63, 37, 18, 15, 15, 13, 7, 7, 8)


@pytest.fixture
def table4_doc():
    return report.build_report(
        DigitCensus(1, 10, TABLE4_COUNTS), input_descriptor="constants"
    )


class TestReportDocument:
    def test_gof_populated_and_verifiable(self, table4_doc):
        assert table4_doc.gof is not None
        assert table4_doc.gof.chi_square == pytest.approx(5.206, abs=0.01)
        assert report.verify_report(table4_doc)

    def test_json_schema_keys(self, table4_doc):
        doc = report.to_json_dict(table4_doc)
        assert set(doc) == {
            "meta", "counts", "exclusions", "observed", "expected",
            "chi_square", "df", "critical", "d1", "d_max", "d_max_digit",
            "verdict",
        }
        assert doc["df"] == 8
        assert doc["critical"] == {"p05": 15.51, "p01": 20.09}
        assert doc["verdict"] == {"p05": "accept", "p01": "accept"}
        assert doc["counts"] == list(TABLE4_COUNTS)
        assert sum(doc["counts"]) == 183
        for key in ("timestamp", "version", "position", "base", "digits"):
            assert key in doc["meta"]
        assert doc["meta"]["version"] == benfordkit.__version__ == "0.1.0"

    def test_json_and_csv_numbers_identical(self, table4_doc):
        js = report.to_json_dict(table4_doc)
        reader = csv.DictReader(io.StringIO(report.to_csv(table4_doc)))
        row = next(reader)
        assert float(row["chi_square"]) == js["chi_square"]
        assert float(row["d1"]) == js["d1"]
        assert float(row["d_max"]) == js["d_max"]
        for digit, observed in zip(range(1, 10), js["observed"]):
            assert float(row[f"observed_{digit}"]) == observed
        for digit, expected in zip(range(1, 10), js["expected"]):
            assert float(row[f"expected_{digit}"]) == expected

    def test_text_rendering(self, table4_doc):
        text = report.to_text(table4_doc)
        assert "chi-square" in text
        assert "accept at 5%" in text

    def test_report_only_positions(self):
        census = DigitCensus.from_digits([2, 5, 0], 2, 10)
        doc = report.build_report(census)
        assert doc.gof is None
        rendered = report.to_json_dict(doc)
        assert rendered["expected"] == [
            report.round12(p) for p in law.marginal_distribution(2).probabilities]
        assert rendered["chi_square"] is None
        assert rendered["verdict"] == {"p05": None, "p01": None}

    def test_report_only_general_base_first_digit(self):
        census = DigitCensus.from_digits([1, 3, 7], 1, 8)
        doc = report.build_report(census)
        assert doc.gof is None
        assert report.to_json_dict(doc)["expected"] == [
            report.round12(p) for p in law.first_digit_distribution(8).probabilities]

    def test_unknown_format(self):
        with pytest.raises(Exception):
            report.render(
                report.build_report(DigitCensus(1, 10, TABLE4_COUNTS)), "yaml"
            )


class TestAnalyzeCommand:
    def test_fixture_accepts(self, capsys):
        code = cli.main(
            ["analyze", str(constants_sample_path()), "--column", "value",
             "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["chi_square"] == pytest.approx(5.206, abs=0.01)
        assert doc["verdict"]["p05"] == "accept"

    def test_reject_exit_code(self, tmp_path, capsys):
        data = tmp_path / "primes.txt"
        data.write_text("\n".join(str(p) for p in prime_values(1000)))
        code = cli.main(["analyze", str(data), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["chi_square"] == pytest.approx(45.0, abs=0.1)
        assert doc["verdict"] == {"p05": "reject", "p01": "reject"}
        assert code == 2

    def test_empty_file_errors(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("")
        code = cli.main(["analyze", str(data)])
        err = capsys.readouterr().err
        assert code == 1
        assert "empty census" in err

    def test_missing_file_errors(self, capsys):
        assert cli.main(["analyze", "/no/such/file.txt"]) == 1
        assert "error" in capsys.readouterr().err

    def test_column_selected_twice_errors(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        data.write_text("a,b\n12,x\n34,y\n")
        assert cli.main(["analyze", str(data), "--column", "a", "--column", "a"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {data}: column 'a' selected twice\n"

    def test_column_name_repeated_in_header_errors(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("a,a\n12,34\n56,78\n")
        assert cli.main(["analyze", str(data), "--column", "a"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {data}: column 'a' appears 2 times in the header\n"

    @pytest.mark.parametrize("name", ["t.txt", "t", "t.dat", "missing.txt"])
    @pytest.mark.parametrize("columns", [["nope"], ["a", "b"]])
    def test_column_on_text_input_errors(self, name, columns, tmp_path, capsys):
        # --column selects table columns; a text file has none to select.
        data = tmp_path / name
        if name != "missing.txt":
            data.write_text("12 7 300")
        flags = [x for c in columns for x in ("--column", c)]
        assert cli.main(["analyze", str(data), *flags, "--format", "json"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {data}: --column reads .csv and .tsv tables only\n"

    @pytest.mark.parametrize("name", ["t.csv", "t.TSV"])
    def test_column_on_table_input_reads_it(self, name, tmp_path, capsys):
        data = tmp_path / name
        sep = "," if name.endswith(".csv") else "\t"
        data.write_text(f"a{sep}b\n12{sep}x\n34{sep}y\n")
        assert cli.main(["analyze", str(data), "--column", "a", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"][:3] == [1, 0, 1]

    def test_skip_shapes_and_separators(self, tmp_path, capsys):
        data = tmp_path / "notes.txt"
        data.write_text("in 1999 sales hit 2,300 then 48")
        code = cli.main(
            ["analyze", str(data), "--separators", "--skip-shape", r"\d{4}",
             "--format", "json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert doc["exclusions"] == 1
        assert sum(doc["counts"]) == 2

    def test_report_only_position_exits_zero(self, tmp_path, capsys):
        data = tmp_path / "vals.txt"
        data.write_text("129 257 384")
        code = cli.main(["analyze", str(data), "--position", "2", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["chi_square"] is None
        assert doc["meta"]["position"] == 2

    @pytest.mark.parametrize("argv, message", [
        (["--base", "1"], "base must be >= 2, got 1"),
        (["--base", "0"], "base must be >= 2, got 0"),
        (["--base", "-3"], "base must be >= 2, got -3"),
        (["--position", "0"], "position must be >= 1, got 0"),
        (["--position", "19"], "position must be <= 18, got 19"),
        (["--skip-shape", "("], "skip pattern '(' is not a valid regex:"
                                " missing ), unterminated subpattern at position 0"),
    ])
    @pytest.mark.parametrize("name, text", [("e.txt", "12 0 7e3\n"),
                                            ("e.csv", "a,b\n12,3\n"),
                                            ("empty.txt", "")])
    def test_base_and_position_outside_domain(self, argv, message, name, text, tmp_path,
                                              capsys):
        # One error line and no traceback, whether or not the file has
        # numbers; an invalid skip shape is caught the same way.
        data = tmp_path / name
        data.write_text(text)
        assert cli.main(["analyze", str(data), *argv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {data}: {message}\n"

    def test_negative_powers_of_ten_count(self, tmp_path, capsys):
        # Exact negative powers of ten, some below the smallest double, all
        # lead with 1.
        data = tmp_path / "powers.txt"
        data.write_text(" ".join(f"1e-{n} 1.00E-{n}" for n in range(1, 401)) + " 2.5e-350")
        code = cli.main(["analyze", str(data), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert doc["counts"] == [800, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_huge_exponents_count(self, tmp_path, capsys):
        # Base 10 reads the written digits, so these cost what their text
        # costs, however large the exponent.
        data = tmp_path / "extremes.txt"
        data.write_text("9.5e999999999 1e-999999999 2.5E+999999999 -3e1000000 0e999999999")
        code = cli.main(["analyze", str(data), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert doc["counts"] == [1, 1, 1, 0, 0, 0, 0, 0, 1]
        assert doc["exclusions"] == 1

    @pytest.mark.parametrize("base, counts", [
        (10, [1, 1, 1, 0, 0, 0, 0, 0, 0]),
        (16, [0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
    ])
    def test_mantissas_past_str_digit_limit(self, base, counts, tmp_path, capsys):
        # int() of a token's digit text is refused past 4300 digits; the
        # non-decimal bases read the value through Decimal instead.
        data = tmp_path / "long.txt"
        data.write_text(f"1{'0' * 4999} 3{'0' * 5000}.25 2.5")
        code = cli.main(["analyze", str(data), "--base", str(base), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert doc["counts"] == counts

    def test_exponents_past_str_digit_limit_count(self, tmp_path, capsys):
        # int() refuses an exponent of more than 4300 digits; base 10 never
        # reads the exponent.
        huge = f"1e{'9' * 5000}"
        for name, text in (("x.txt", f"5 {huge} 7"), ("x.csv", f"v\n5\n{huge}\n7\n")):
            data = tmp_path / name
            data.write_text(text)
            code = cli.main(["analyze", str(data), "--format", "json"])
            out = capsys.readouterr()
            assert code in (0, 2) and out.err == ""
            assert json.loads(out.out)["counts"] == [1, 0, 0, 0, 1, 0, 1, 0, 0]

    @pytest.mark.parametrize("text", ["a,b\n12,3\n40,5\n\n", "a,b\n12,3\n\n40,5\n"])
    def test_blank_lines_in_table(self, text, tmp_path, capsys):
        data = tmp_path / "t.csv"
        data.write_text(text)
        code = cli.main(["analyze", str(data), "--format", "json"])
        out = capsys.readouterr()
        assert code in (0, 2) and out.err == ""
        assert json.loads(out.out)["counts"] == [1, 0, 1, 1, 1, 0, 0, 0, 0]

    def test_ragged_row_after_blank_line_errors(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        data.write_text("a,b\n12,3\n\n7\n")
        assert cli.main(["analyze", str(data)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {data}: row 4: expected 2 fields, got 1\n"

    @pytest.mark.parametrize("name, sep", [("bom.csv", ","), ("bom.tsv", "\t")])
    def test_byte_order_mark_before_header(self, name, sep, tmp_path, capsys):
        data = tmp_path / name
        data.write_bytes(f"\ufeffamount{sep}b\n12{sep}x\n34{sep}y\n".encode())
        assert cli.main(["analyze", str(data), "--column", "amount", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"][:3] == [1, 0, 1]

    def test_source_date_epoch_makes_runs_identical(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "vals.txt"
        data.write_text("129 257 384 0")
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        runs = []
        for _ in range(2):
            code = cli.main(["analyze", str(data), "--format", "json"])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1].out)["meta"]["timestamp"] == "2023-11-14T22:13:20+00:00"

    @pytest.mark.parametrize("value", ["", "abc", "1.5", " 5", "-1", "١٢", "9" * 30])
    def test_source_date_epoch_not_whole_seconds_errors(self, value, tmp_path, capsys,
                                                       monkeypatch):
        data = tmp_path / "vals.txt"
        data.write_text("129 257 384")
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        assert cli.main(["analyze", str(data), "--format", "json"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: SOURCE_DATE_EPOCH must be whole seconds since 1970"
                           f" within year 9999, got {value!r}\n")

    def test_deep_position_has_expected_marginal(self, tmp_path, capsys):
        data = tmp_path / "vals.txt"
        data.write_text("123456789 987654321.5 1.0000000005")
        code = cli.main(["analyze", str(data), "--position", "9", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["counts"] == [1, 1, 0, 0, 0, 0, 0, 0, 0, 1]
        assert doc["expected"] == [
            report.round12(p) for p in law.marginal_distribution(9).probabilities
        ]

    def test_level_switches_threshold(self, tmp_path, capsys):
        # Engineer a census with chi-square between the two critical values.
        counts = {1: 51, 2: 38, 3: 17, 4: 12, 5: 16, 6: 20, 7: 18, 8: 5, 9: 9}
        lines = []
        for digit, count in counts.items():
            lines.extend([f"{digit}11"] * count)
        data = tmp_path / "mid.txt"
        data.write_text("\n".join(lines))
        code5 = cli.main(["analyze", str(data), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        chi2 = doc["chi_square"]
        assert 15.51 < chi2 <= 20.09, f"need a mid-band census, got {chi2}"
        assert code5 == 2
        assert cli.main(["analyze", str(data), "--level", "1"]) == 0
        capsys.readouterr()


class TestGenerateCommand:
    def test_fibonacci_digits(self, capsys):
        code = cli.main(
            ["generate", "fibonacci", "--a1", "1", "--a2", "2", "--terms", "5"]
        )
        assert code == 0
        assert capsys.readouterr().out.split() == ["1", "2", "3", "5", "8"]

    def test_primes_below_ten(self, capsys):
        assert cli.main(["generate", "primes", "--below", "10"]) == 0
        assert capsys.readouterr().out.split() == ["2", "3", "5", "7"]

    def test_factorial_values(self, capsys):
        assert cli.main(["generate", "factorial", "--n", "5", "--values"]) == 0
        assert capsys.readouterr().out.split() == ["1", "2", "6", "24", "120"]

    def test_census_output(self, capsys):
        assert cli.main(
            ["generate", "power-n", "--k", "2", "--n", "10", "--census"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "digit,count"
        counts = {int(d): int(c) for d, c in (line.split(",") for line in lines[1:])}
        assert counts == {1: 3, 2: 1, 3: 1, 4: 2, 5: 0, 6: 1, 7: 0, 8: 1, 9: 1}

    def test_census_past_str_digit_limit(self, capsys):
        # 2000! has 5736 digits, past CPython's default str(int) limit.
        assert cli.main(["generate", "factorial", "--n", "2000", "--census"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 2000

    @pytest.mark.parametrize("argv", [
        ["primes", "--below", "20"],
        ["factorial", "--n", "5"],
    ])
    def test_census_and_values_together_error(self, argv, capsys):
        assert cli.main(["generate", *argv, "--census", "--values"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: generate takes --census or --values, not both\n"

    def test_power_alpha_values_are_rational(self, capsys):
        assert cli.main(
            ["generate", "power-alpha", "--alpha", "1.007", "--n", "2", "--values"]
        ) == 0
        assert capsys.readouterr().out.split() == ["1007/1000", "1014049/1000000"]

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "series.cfg"
        config.write_text("fibonacci\na1 = 1\na2 = 2\nterms = 5\n")
        assert cli.main(["generate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.split() == ["1", "2", "3", "5", "8"]

    def test_missing_parameter_errors(self, capsys):
        assert cli.main(["generate", "fibonacci"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv, message", [
        ("fibonacci\na1 = 2\n", ["fibonacci", "--a1", "2"],
         "fibonacci requires --terms"),
        ("power-alpha\nn = 3\n", ["power-alpha", "--n", "3"],
         "power-alpha requires --alpha"),
        ("kind = power_n\n", ["power-n"], "power-n requires --k and --n"),
    ])
    def test_missing_parameter_same_message_from_config(self, text, argv, message,
                                                        tmp_path, capsys):
        config = tmp_path / "series.cfg"
        config.write_text(text)
        for args in (["--config", str(config)], argv):
            assert cli.main(["generate", *args]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: {message}\n"

    def test_config_typo_errors(self, tmp_path, capsys):
        config = tmp_path / "series.cfg"
        config.write_text("fibonacci\nterms = 5\na_1 = 3\n")
        assert cli.main(["generate", "--config", str(config)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: fibonacci takes no parameter 'a_1'"
                           " (it takes a1, a2, terms)\n")

    @pytest.mark.parametrize("extra", [
        ["primes"], ["--below", "5"], ["fibonacci", "--terms", "9"],
        ["--base", "2"], ["--base", "10"],
    ])
    def test_config_rejects_kind_and_series_flags(self, extra, tmp_path, capsys):
        config = tmp_path / "series.cfg"
        config.write_text("fibonacci\nterms = 3\n")
        assert cli.main(["generate", *extra, "--config", str(config)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: generate --config FILE takes no kind,"
                           " no series flag and no --base\n")

    def test_config_base_key_sets_the_base(self, tmp_path, capsys):
        config = tmp_path / "series.cfg"
        config.write_text("fibonacci\nterms = 5\nbase = 2\n")
        assert cli.main(["generate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.split() == ["1"] * 5
        assert cli.main(["generate", "fibonacci", "--terms", "5"]) == 0
        assert capsys.readouterr().out.split() == ["1", "1", "2", "3", "5"]

    def test_config_base_key_names_itself(self, tmp_path, capsys):
        config = tmp_path / "series.cfg"
        config.write_text("fibonacci\nterms = 5\nbase = x\n")
        assert cli.main(["generate", "--config", str(config)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: config base: not an integer: 'x'\n"

    @pytest.mark.parametrize("text, key", [
        ("fibonacci\npascal\nrows = 3\n", "kind"),
        ("kind = fibonacci\nkind = pascal\nrows = 3\n", "kind"),
        ("fibonacci\nkind = pascal\nrows = 3\n", "kind"),
        ("pascal\nrows = 3\nrows = 2\n", "rows"),
        ("fibonacci\nterms = 5\nbase = 16\nbase = 10\n", "base"),
    ], ids=["two-kind-lines", "two-kind-keys", "kind-line-then-key", "series-parameter",
            "base"])
    def test_config_key_given_twice_is_an_error(self, text, key, tmp_path, capsys):
        # Not the last value silently winning.
        config = tmp_path / "series.cfg"
        config.write_text(text)
        assert cli.main(["generate", "--config", str(config)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: config key {key!r} given twice\n"

    @pytest.mark.parametrize("text, flags, message", [
        ("fibonacci\nterms = x\n", [], "fibonacci --terms: not an integer: 'x'"),
        ("power-alpha\nalpha = 1/0\nn = 3\n", ["--alpha", "1/0", "--n", "3"],
         "power-alpha --alpha: not a ratio: '1/0'"),
        ("power-alpha\nalpha = abc\nn = 3\n", ["--alpha", "abc", "--n", "3"],
         "power-alpha --alpha: not a ratio: 'abc'"),
    ])
    def test_unconvertible_parameter_names_its_flag(self, text, flags, message,
                                                    tmp_path, capsys):
        # argparse itself rejects a non-integer integer flag, so --terms x is
        # only reachable through a config file.
        config = tmp_path / "series.cfg"
        config.write_text(text)
        runs = [["--config", str(config)]]
        if flags:
            runs.append(["power-alpha", *flags])
        for args in runs:
            assert cli.main(["generate", *args]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, key", [
        (["primes", "--below", "10", "--rows", "3"], "rows"),
        (["pascal", "--rows", "4", "--a1", "2"], "a1"),
        (["factorial", "--n", "5", "--terms", "3"], "terms"),
    ])
    def test_foreign_flag_errors(self, argv, key, capsys):
        assert cli.main(["generate", *argv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {argv[0]} takes no parameter '{key}'")

    def test_no_kind_errors(self, capsys):
        assert cli.main(["generate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv, missing, given", [
        (["fibonacci", "--a1", "2"], ["--terms"], ["--a1", "--a2"]),
        (["primes"], ["--below"], []),
        (["power-alpha", "--n", "3"], ["--alpha"], ["--n"]),
        (["factorial"], ["--n"], []),
        (["power-n"], ["--k", "--n"], []),
        (["pascal"], ["--rows"], []),
    ])
    def test_missing_parameters_named(self, argv, missing, given, capsys):
        assert cli.main(["generate", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[0]} requires")
        for flag in missing:
            assert flag in err
        for flag in given:
            assert flag not in err


# One modest parameter set per series kind, as (flag, value) pairs.
SERIES_CASES = {
    "fibonacci": {"a1": 2, "a2": 5, "terms": 60},
    "primes": {"below": 700},
    "power-alpha": {"alpha": "1007/1000", "n": 80},
    "factorial": {"n": 45},
    "power-n": {"k": 3, "n": 70},
    "pascal": {"rows": 14},
}


class TestGenerateRoutesAgree:
    """CLI flags, a --config file and a SequenceSpec give the same series."""

    def test_cases_cover_every_kind(self):
        assert set(SERIES_CASES) == {k.replace("_", "-") for k in sequences._SERIES}

    @pytest.mark.parametrize("base", [10, 16])
    @pytest.mark.parametrize("kind", sorted(SERIES_CASES))
    def test_flags_config_and_spec(self, kind, base, tmp_path, capsys):
        params = SERIES_CASES[kind]
        config = tmp_path / "series.cfg"
        config.write_text(
            f"{kind}\nbase = {base}\n"
            + "".join(f"{key} = {value}\n" for key, value in params.items())
        )
        flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
        spec = sequences.SequenceSpec(kind.replace("-", "_"), params, base)
        digits = list(spec.digit_stream())
        census = DigitCensus.from_digits(digits, 1, base)
        expect = {
            (): [str(d) for d in digits],
            ("--values",): [str(v) for v in spec.value_stream()],
            ("--census",): ["digit,count"]
            + [f"{d},{c}" for d, c in zip(census.support, census.counts)],
        }
        for mode, lines in expect.items():
            for route in (
                ["generate", kind, *flags, "--base", str(base)],
                ["generate", "--config", str(config)],
            ):
                assert cli.main([*route, *mode]) == 0
                assert capsys.readouterr().out.splitlines() == lines, (route, mode)


class TestSimulateCommand:
    @pytest.mark.parametrize("argv", [
        ["--noise", "lognormal:0,nan"],
        ["--noise", "constant:inf"],
        ["--initial", "nan"],
        ["--kind", "add", "--noise", "normal:inf,1"],
        ["--noise", "uniform:0.5,inf"],
    ])
    def test_non_finite_input_errors(self, argv, capsys):
        assert cli.main(["simulate", *argv, "--steps", "3", "--walkers", "5"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")

    def test_constant_noise_flat_curve(self, capsys):
        code = cli.main(
            ["simulate", "--noise", "constant:10", "--steps", "5",
             "--walkers", "20", "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        header = [line for line in out.splitlines() if line.startswith("#")]
        assert any("seed=7" in line for line in header)
        assert any("prng=" in line and "Philox" in line for line in header)
        rows = [line for line in out.splitlines() if "," in line and not line.startswith("#")]
        assert rows[0] == "step,d1"
        for row in rows[1:]:
            _, d1 = row.split(",")
            assert float(d1) == pytest.approx(1 - 0.3010299956639812, abs=1e-11)

    def test_base_two_curve_is_zero(self, capsys):
        assert cli.main(
            ["simulate", "--steps", "4", "--walkers", "50", "--base", "2"]
        ) == 0
        rows = [
            line for line in capsys.readouterr().out.splitlines()
            if "," in line and not line.startswith("#") and line != "step,d1"
        ]
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)

    def test_additive_contrast_runs(self, capsys):
        assert cli.main(
            ["simulate", "--kind", "add", "--noise", "uniform:0,1",
             "--steps", "5", "--walkers", "50"]
        ) == 0
        capsys.readouterr()

    def test_json_format_matches_csv_values(self, capsys):
        args = ["simulate", "--steps", "4", "--walkers", "30", "--seed", "6"]
        assert cli.main(args) == 0
        csv_out = capsys.readouterr().out
        assert cli.main(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = [
            line for line in csv_out.splitlines()
            if line and not line.startswith("#") and line != "step,d1"
        ]
        assert [float(r.split(",")[1]) for r in rows] == [
            entry["d1"] for entry in payload["curve"]
        ]

    @pytest.mark.parametrize("argv, rows", [
        # Huge multiplicative states have no digit at any step.
        (["--noise", "lognormal:1e308,0"], 0),
        (["--noise", "lognormal:1e300,0"], 0),
        # Additive states overflow to inf after step 1.
        (["--kind", "add", "--noise", "constant:1e308"], 1),
    ])
    def test_overflowing_states_print_no_warnings(self, argv, rows):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "benfordkit.cli", "simulate", *argv,
             "--steps", "3", "--walkers", "5"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        # stderr holds the one line on omitted steps and no numpy warning.
        if rows == 0:
            assert result.returncode == 1
            assert result.stdout == ""
            assert result.stderr == ("error: empty census: every walker was excluded"
                                     " at every recorded step\n")
            return
        assert result.returncode == 0
        assert result.stderr == ("warning: 2 of 3 recorded steps omitted:"
                                 " every walker was excluded at those steps\n")
        lines = result.stdout.splitlines()
        assert lines[lines.index("step,d1") + 1:] == ["1,0.698970004336"]

    def test_invalid_noise_errors(self, capsys):
        assert cli.main(["simulate", "--noise", "normal:0,1"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("noise, field", [
        ("lognormal:0,,1", "parameter 2 is not a number: ''"),
        ("lognormal:a,1", "parameter 1 is not a number: 'a'"),
    ])
    def test_non_numeric_noise_field_errors(self, noise, field, capsys):
        assert cli.main(["simulate", "--noise", noise, "--steps", "3",
                         "--walkers", "5"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: noise {noise!r}: {field}\n"


class TestExpectedCommand:
    def test_probs_table(self, capsys):
        assert cli.main(["expected", "--table", "probs", "--k", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "digit,probability"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.30103, abs=1e-5)

    def test_probs_with_sample_size(self, capsys):
        assert cli.main(
            ["expected", "--table", "probs", "--k", "1", "--sample-size", "183"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "digit,probability,expected_count"
        assert float(lines[1].split(",")[2]) == pytest.approx(55.09, abs=0.01)

    def test_moments_range_matches_library(self, capsys):
        assert cli.main(["expected", "--table", "moments", "--k", "1..7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,mean,variance"
        assert len(lines) == 8
        k, mean, var = lines[1].split(",")
        lib_mean, lib_var = law.moments(1)
        assert float(mean) == pytest.approx(lib_mean, abs=1e-11)
        assert float(var) == pytest.approx(lib_var, abs=1e-11)

    def test_tvd_table(self, capsys):
        assert cli.main(["expected", "--table", "tvd", "--k", "1..7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(0.26872666, abs=1e-7)

    def test_corr_table(self, capsys):
        assert cli.main(["expected", "--table", "corr", "--max-j", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,j,correlation"
        assert len(lines) == 11
        i, j, rho = lines[1].split(",")
        assert (i, j) == ("1", "2")
        assert float(rho) == pytest.approx(0.0560563, abs=1e-6)

    def test_binary_base_probs(self, capsys):
        assert cli.main(["expected", "--table", "probs", "--k", "1", "--base", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "1,1"

    def test_deep_position_non_decimal_base_errors(self, capsys):
        assert cli.main(["expected", "--table", "probs", "--k", "2", "--base", "8"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["--table", "corr", "--max-j", "7"], "--max-j must lie in [2, 6], got 7"),
        (["--table", "corr", "--max-j", "1"], "--max-j must lie in [2, 6], got 1"),
        (["--table", "moments", "--k", "5..3"], "--k '5..3' is an empty range"),
        (["--table", "moments", "--k", "1.."],
         "--k '1..' is not a position or a range such as 1..7"),
        (["--table", "probs", "--k", "x"],
         "--k 'x' is not a position or a range such as 1..7"),
        (["--table", "tvd", "--k", "0..2"], "position must be >= 1, got 0"),
        # Ranges whose position lists would not fit in memory, the last one
        # longer than a list can be: the range is never listed.
        (["--table", "moments", "--k", "1..1000000000000000"],
         "position must be <= 18, got 19"),
        (["--table", "tvd", "--k", "3..1000000000000000"],
         "position must be <= 18, got 19"),
        (["--table", "probs", "--k", "1..100000000000000000000"],
         "probs takes a single position"),
        (["--sample-size", "0"], "--sample-size must be >= 1, got 0"),
        (["--sample-size", "-5"], "--sample-size must be >= 1, got -5"),
        (["--sample-size", "1" + "0" * 400],
         "--sample-size must be <= 1.7976931348623157e+308"),
        (["--base", "1"], "base must be >= 2, got 1"),
        (["--base", "0"], "base must be >= 2, got 0"),
        (["--base", "-3"], "base must be >= 2, got -3"),
        (["--base", "1", "--sample-size", "3"], "base must be >= 2, got 1"),
        # A deep position in another base is refused before the position
        # and the base are checked.
        (["--table", "probs", "--k", "2", "--base", "16"],
         "deep-position tables are base 10 only"),
        (["--table", "probs", "--k", "0", "--base", "16"],
         "deep-position tables are base 10 only"),
        (["--table", "probs", "--k", "19", "--base", "16"],
         "deep-position tables are base 10 only"),
        (["--table", "probs", "--k", "2", "--base", "1"],
         "deep-position tables are base 10 only"),
        (["--table", "probs", "--k", "0"], "position must be >= 1, got 0"),
        (["--table", "probs", "--k", "1", "--base", "1"], "base must be >= 2, got 1"),
    ])
    def test_bad_arguments_print_nothing(self, argv, message, capsys):
        assert cli.main(["expected", *argv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    @pytest.mark.parametrize("table, flag, value", [
        ("moments", "--base", "16"),
        ("moments", "--base", "10"),
        ("tvd", "--sample-size", "100"),
        ("corr", "--sample-size", "100"),
        ("corr", "--k", "1"),
        ("corr", "--base", "10"),
        ("probs", "--max-j", "5"),
        ("tvd", "--max-j", "5"),
    ])
    def test_flag_of_another_table_is_an_error(self, table, flag, value, capsys):
        assert cli.main(["expected", "--table", table, flag, value]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --table {table} takes no {flag}\n"


class TestBaseRange:
    # Every command takes bases 2..MAX_BASE and refuses the next one before
    # it prints anything.
    @pytest.mark.parametrize("argv", [
        ["expected"],
        ["generate", "primes", "--below", "100", "--census"],
        ["simulate", "--walkers", "10", "--steps", "2"],
    ])
    def test_above_max_base(self, argv, capsys):
        assert cli.main([*argv, "--base", str(MAX_BASE + 1)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: base must be <= {MAX_BASE}, got {MAX_BASE + 1}\n"

    def test_analyze_above_max_base(self, tmp_path, capsys):
        data = tmp_path / "vals.txt"
        data.write_text("12 0 7e3\n")
        assert cli.main(["analyze", str(data), "--base", str(MAX_BASE + 1)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {data}: base must be <= {MAX_BASE}, got {MAX_BASE + 1}\n"


class TestUsageErrors:
    # A usage error is an error: exit 1 and one `error:` line, never the
    # usage block and exit 2 that would read as a rejected dataset.
    @pytest.mark.parametrize("argv, names", [
        ([], "command"),
        (["nope"], "nope"),
        (["analyze"], "path"),
        (["analyze", "f.txt", "--nope"], "--nope"),
        (["analyze", "f.txt", "--position", "x"], "--position"),
        (["analyze", "f.txt", "--level", "3"], "--level"),
        (["generate", "fibonacci", "--nope"], "--nope"),
        (["generate", "fibonacci", "--terms", "x"], "--terms"),
        (["generate", "nope"], "nope"),
        (["simulate", "--nope"], "--nope"),
        (["simulate", "--steps", "x"], "--steps"),
        (["simulate", "--kind", "mul"], "--kind"),
        (["expected", "--nope"], "--nope"),
        (["expected", "--max-j", "x"], "--max-j"),
        (["expected", "--table", "nope"], "--table"),
    ])
    def test_exits_1_with_one_error_line(self, argv, names, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert names in out.err and "usage:" not in out.err

    @pytest.mark.parametrize("argv", [["--help"], *([cmd, "--help"] for cmd in cli._COMMANDS)])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr()
        assert out.out.startswith("usage: benford") and out.err == ""
