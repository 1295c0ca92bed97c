"""The census checks that CI runs on the installed package, run here on the
source tree, so each comparison is exercised before the workflow runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import census_checks

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(census_checks.CHECKS))
def test_command_matches_the_standard_librarys_count(name):
    assert census_checks.check(name) is None


def test_a_differing_output_is_reported(monkeypatch):
    argv, _ = census_checks.CHECKS["factorial-base-7"]
    monkeypatch.setitem(census_checks.CHECKS, "factorial-base-7", (argv, lambda: "digit,count\n"))
    assert census_checks.check("factorial-base-7") == (
        f"benford {' '.join(argv)} differs from the standard library's count")


def test_script_runs_from_outside_the_checkout(tmp_path):
    # As CI runs it: the script's own directory, not the checkout, is on the
    # path, and PYTHONPATH supplies the package that an install would.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "tests" / "census_checks.py")],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=300)
    assert (result.returncode, result.stderr) == (0, "")
