"""Golden CLI outputs: each command's stdout and exit status, recorded under
SOURCE_DATE_EPOCH=0, replayed byte for byte.

The cases cover `analyze` on the packaged sample in every format, a small
text file at another base, at a deeper position and with an empty census,
a text of zero, signed, grouped, glued, Unicode-digit and year tokens over
LF, CR and U+2028 line ends with separators and a skip pattern, a CSV
with zero and non-numeric cells,
`generate --census` for every series kind in bases 10 and 16, every
`expected` table and draw-free `simulate` runs. The cases and how one is
run live in `golden_cases.py`, which needs no pytest, so that every other
local CPython replays them too. To record the files again after an intended
output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cases import CASES, GOLDEN, SRC, recorded_status, run_case

HELPER = Path(__file__).resolve().parent / "golden_cases.py"
# The cases whose commands import numpy: without it each raises at that import.
NUMPY_CASES = {"generate-primes-base10", "generate-primes-base16", "generate-pascal-base10",
               "generate-pascal-base16", "simulate-constant2", "simulate-constant10-json",
               "simulate-constant2-base16", "expected-corr"}
NO_NUMPY = "ModuleNotFoundError: No module named 'numpy'"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    stdout, status = run_case(name)
    assert status == recorded_status()[name]
    assert stdout.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.stdout")) == sorted(CASES)
    assert sorted(recorded_status()) == sorted(CASES)


def _other_interpreters() -> dict[str, str]:
    """Each other CPython >= 3.10 that starts, by version: python3.1x on PATH
    and under pyenv's versions. A pyenv shim for a version that is not
    selected exits 127, and is dropped with the others that do not start."""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 15)]
    candidates += sorted(map(str, pyenv.glob("3.1*/bin/python3.1*")))
    found: dict[str, str] = {}
    for path in filter(None, candidates):
        if not re.fullmatch(r"python3\.1\d", Path(path).name):
            continue
        try:
            result = subprocess.run(
                [path, "-c", "import platform; print(platform.python_implementation(), "
                             "platform.python_version())"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        implementation, _, version = result.stdout.strip().partition(" ")
        if (result.returncode == 0 and implementation == "CPython"
                and version != platform.python_version()):
            found.setdefault(version, path)
    return found


def test_stdlib_cases_replay_on_every_other_interpreter():
    """The standard-library half of the tool runs on every other local CPython:
    src/ compiles, and each case prints its recorded bytes and exit status,
    but for the numpy cases where numpy is missing, which fail at its import."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 on PATH or under pyenv's versions")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    for version, path in sorted(interpreters.items()):
        result = subprocess.run([path, str(HELPER)], env=env, capture_output=True,
                                text=True, timeout=600)
        assert result.returncode == 0, f"{version} ({path}):\n{result.stderr}"
        report = json.loads(result.stdout)
        outcomes = report["outcomes"]
        assert sorted(outcomes) == sorted(CASES), version
        failed_at_numpy = {name for name, outcome in outcomes.items() if outcome == NO_NUMPY}
        assert failed_at_numpy == (set() if report["numpy"] else NUMPY_CASES), version
        assert {name: outcome for name, outcome in outcomes.items()
                if name not in failed_at_numpy and outcome != "match"} == {}, version


def record() -> None:
    statuses = {}
    for name in sorted(CASES):
        stdout, statuses[name] = run_case(name)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout.encode())
    (GOLDEN / "exit_status.json").write_text(json.dumps(statuses, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(record())
