"""The golden CLI cases and how one is run, with no pytest, so that any
interpreter can replay them.

Each case is a command run in process under SOURCE_DATE_EPOCH=0, in a
working directory named by DIRS, so the recorded documents name no
directory. The simulator prints the numpy version it ran with; that line is
masked.

Run as a script, this file byte-compiles every module under src/ in memory
and replays every case. It prints one JSON object: whether numpy is
installed, and each case's outcome, which is "match", "differs", or the
exception the case raised as "<type>: <message>". For example:

    PYTHONPATH=src python3.12 -B tests/golden_cases.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
from pathlib import Path

from benfordkit import cli
from benfordkit.datasets import constants_sample_path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
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


def recorded_status() -> dict:
    return json.loads((GOLDEN / "exit_status.json").read_text())


def replay() -> dict[str, str]:
    """Each case's outcome: "match", "differs", or "<type>: <message>"."""
    statuses, outcomes = recorded_status(), {}
    for name in sorted(CASES):
        try:
            stdout, status = run_case(name)
        except Exception as exc:
            outcomes[name] = f"{type(exc).__name__}: {exc}"
            continue
        same = (status == statuses[name]
                and stdout.encode() == (GOLDEN / f"{name}.stdout").read_bytes())
        outcomes[name] = "match" if same else "differs"
    return outcomes


if __name__ == "__main__":
    for path in sorted(SRC.rglob("*.py")):
        compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
    print(json.dumps({"numpy": importlib.util.find_spec("numpy") is not None,
                      "outcomes": replay()}))
