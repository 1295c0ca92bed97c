"""The command line's error contract on arbitrary input files: `benford
analyze` exits 0 (accept), 2 (reject) or 1 (error). An error prints
exactly one `error:` line to stderr and nothing to stdout; an accept or a
reject prints nothing to stderr."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from benfordkit import cli

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

# Arbitrary bytes, and bytes drawn from the pieces the scanner and the csv
# reader branch on: digits, signs, exponents, delimiters, quotes, every
# line ending, NUL and a byte that is not UTF-8.
_PIECES = [b"0", b"1", b"7", b"9", b".", b"e", b"-", b"+", b",", b"\t", b'"', b" ", b"a",
           b"\r", b"\n", b"\r\n", b"\x00", b"\xff"]
_DATA = st.binary(max_size=200) | st.lists(st.sampled_from(_PIECES), max_size=80).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(data=_DATA, suffix=st.sampled_from([".txt", ".csv", ".tsv"]),
       base=st.integers(2, 64), position=st.integers(0, 19),
       fmt=st.sampled_from(["text", "json", "csv"]))
# A table whose records end in a bare CR, and a cell longer than the csv
# module's field size limit.
@example(data=b"a,b\r1,2\r3,4\r", suffix=".csv", base=10, position=1, fmt="text")
@example(data=b"a\n" + b"1" * 200_000 + b"\n", suffix=".csv", base=10, position=1,
         fmt="text")
def test_analyze_exit_status_and_streams(data, suffix, base, position, fmt):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", str(path), "--base", str(base),
                             "--position", str(position), "--format", fmt])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
