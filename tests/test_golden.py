"""Golden CLI outputs: each command's stdout and exit status, recorded under
SOURCE_DATE_EPOCH=0, replayed byte for byte.

The cases cover `analyze` on the packaged sample in every format, a small
text file at another base, at a deeper position and with an empty census,
a text of zero, signed, grouped, glued, Unicode-digit and year tokens over
LF, CR and U+2028 line ends with separators and a skip pattern, a CSV
with zero and non-numeric cells,
`generate --census` for every series kind in bases 10 and 16, every
`expected` table and draw-free `simulate` runs. The simulator prints the
numpy version it ran with; that line is masked.

Paths are relative to the working directory each case runs in, so the
recorded documents name no directory. To record the files again after an
intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from benfordkit import cli
from benfordkit.datasets import constants_sample_path

GOLDEN = Path(__file__).resolve().parent / "golden"
DIRS = {"inputs": GOLDEN / "inputs", "sample": constants_sample_path().parent}

_SERIES = {
    "fibonacci": ["--terms", "300"],
    "primes": ["--below", "5000"],
    "power-alpha": ["--alpha", "3/2", "--n", "200"],
    "factorial": ["--n", "120"],
    "power-n": ["--k", "3", "--n", "400"],
    "pascal": ["--rows", "40"],
}

# name -> (working directory, argv)
CASES = {
    **{f"analyze-sample-{fmt}": ("sample", ["analyze", "constants_sample.csv",
                                            "--column", "value", "--format", fmt])
       for fmt in ("json", "csv", "text")},
    **{f"analyze-small-base16-{fmt}": ("inputs", ["analyze", "small.txt", "--base", "16",
                                                  "--format", fmt])
       for fmt in ("json", "text")},
    **{f"analyze-small-position2-{fmt}": ("inputs", ["analyze", "small.txt",
                                                     "--position", "2", "--format", fmt])
       for fmt in ("json", "csv", "text")},
    "analyze-empty": ("inputs", ["analyze", "empty.txt"]),
    "analyze-mixed-separators-skip-json": ("inputs", ["analyze", "mixed.txt", "--separators",
                                                      "--skip-shape", r"\d{4}",
                                                      "--format", "json"]),
    "analyze-ledger-columns-csv": ("inputs", ["analyze", "ledger.csv", "--column", "amount",
                                              "--column", "note", "--format", "csv"]),
    **{f"generate-{kind}-base{base}": ("inputs", ["generate", kind, *flags, "--base", base,
                                                  "--census"])
       for kind, flags in _SERIES.items() for base in ("10", "16")},
    "expected-probs": ("inputs", ["expected"]),
    "expected-probs-k2": ("inputs", ["expected", "--k", "2"]),
    "expected-probs-base16": ("inputs", ["expected", "--base", "16"]),
    "expected-probs-sample-size": ("inputs", ["expected", "--sample-size", "1000"]),
    "expected-probs-k3-sample-size": ("inputs", ["expected", "--k", "3",
                                                 "--sample-size", "77"]),
    "expected-moments": ("inputs", ["expected", "--table", "moments", "--k", "1..8"]),
    "expected-tvd": ("inputs", ["expected", "--table", "tvd", "--k", "1..8"]),
    "expected-corr": ("inputs", ["expected", "--table", "corr"]),
    "simulate-constant2": ("inputs", ["simulate", "--noise", "constant:2",
                                      "--walkers", "500", "--steps", "30"]),
    "simulate-constant10-json": ("inputs", ["simulate", "--noise", "constant:10",
                                            "--walkers", "50", "--steps", "5",
                                            "--format", "json"]),
    "simulate-constant2-base16": ("inputs", ["simulate", "--noise", "constant:2",
                                             "--walkers", "200", "--steps", "20",
                                             "--base", "16"]),
}


def _masked(stdout: str) -> str:
    return "".join("<numpy_version masked>\n" if "numpy_version" in line else line
                   for line in stdout.splitlines(keepends=True))


def run_case(name: str) -> tuple[str, int]:
    """The case's masked stdout and exit status, run in process."""
    where, argv = CASES[name]
    out = io.StringIO()
    saved_cwd, saved_epoch = Path.cwd(), os.environ.get("SOURCE_DATE_EPOCH")
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    try:
        os.chdir(DIRS[where])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
    finally:
        os.chdir(saved_cwd)
        if saved_epoch is None:
            del os.environ["SOURCE_DATE_EPOCH"]
        else:
            os.environ["SOURCE_DATE_EPOCH"] = saved_epoch
    return _masked(out.getvalue()), status


def _recorded_status() -> dict:
    return json.loads((GOLDEN / "exit_status.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    stdout, status = run_case(name)
    assert status == _recorded_status()[name]
    assert stdout.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.stdout")) == sorted(CASES)
    assert sorted(_recorded_status()) == sorted(CASES)


def record() -> None:
    statuses = {}
    for name in sorted(CASES):
        stdout, statuses[name] = run_case(name)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout.encode())
    (GOLDEN / "exit_status.json").write_text(json.dumps(statuses, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(record())
