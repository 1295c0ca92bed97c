"""What the package loads: every public name resolves on first use, a
command imports numpy only when its work needs it, none imports mpmath,
which only the tests use, and only `simulate` imports concurrent.futures."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import benfordkit
from benfordkit import cli, simulate

ROOT = Path(__file__).resolve().parent.parent

# The names the package exported when its __init__ imported every submodule,
# less those in REMOVED.
EXPORTS = {
    "errors": {"BenfordError", "DomainError", "EmptyCensus", "EncodingError", "FormatError",
               "InvalidNoise", "MalformedToken", "MissingColumn", "ZeroValue"},
    "gof": {"CHI2_CRITICAL_1PCT", "CHI2_CRITICAL_5PCT", "DEGREES_OF_FREEDOM", "DigitCensus",
            "GofReport", "build_census", "full_report", "tvd_benford"},
    "ingest": {"NumberToken", "ScanPolicy", "census_from_table", "census_from_text",
               "census_from_tokens", "dump_tokens_csv", "read_table", "scan_text"},
    "law": {"DigitDistribution", "digit_correlation", "first_digit_prob", "joint_prob",
            "marginal_distribution", "moments", "tvd_from_uniform"},
    "report": {"ReportDocument", "build_report", "render"},
    "sequences": {"SequenceSpec", "alpha_power_digits", "alpha_power_values",
                  "factorial_digits", "factorial_values", "fibonacci_digits",
                  "fibonacci_values", "n_power_digits", "n_power_values", "pascal_digits",
                  "pascal_values", "prime_digits", "prime_values"},
    "significand": {"ExactDecimal", "SignificantDigits", "digit_at", "extract_digits",
                    "extract_digits_rational", "first_digit", "parse_token"},
    "simulate": {"NoiseSpec", "ProcessSpec", "convergence_curve", "curve_as_csv",
                 "curve_as_json", "run_ensemble"},
}
# Deleted exports, each with the submodule it was in; another function does
# each one's job (full_report, str(ExactDecimal), run_ensemble,
# marginal_distribution(1, base), extract_digits_rational(abs(v), 1, k, base)).
REMOVED = {"chi_square": "gof", "max_deviation": "gof", "expected_counts": "law",
           "first_digit_distribution": "law", "verify_report": "report",
           "format_token": "significand", "extract_digits_bigint": "significand",
           "run_ensemble_partitioned": "simulate"}
NAMES = set().union(*EXPORTS.values())
# `import *` bound the submodules too, `datasets` among them.
MODULES = {*EXPORTS, "datasets"}


class TestPublicSurface:
    def test_all_is_the_exported_names_and_submodules(self):
        assert len(NAMES) == 61
        assert len(benfordkit.__all__) == len(set(benfordkit.__all__))
        assert set(benfordkit.__all__) == NAMES | MODULES

    @pytest.mark.parametrize("module, name", sorted(
        (module, name) for module, names in EXPORTS.items() for name in names))
    def test_name_resolves_to_its_submodules_object(self, module, name):
        assert getattr(benfordkit, name) is getattr(
            importlib.import_module(f"benfordkit.{module}"), name)

    @pytest.mark.parametrize("name, module", sorted(REMOVED.items()))
    def test_removed_name_is_gone(self, name, module):
        for owner in (benfordkit, importlib.import_module(f"benfordkit.{module}")):
            with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
                getattr(owner, name)

    @pytest.mark.parametrize("module", sorted(MODULES))
    def test_submodule_resolves(self, module):
        assert getattr(benfordkit, module) is importlib.import_module(f"benfordkit.{module}")

    def test_dir_lists_every_name(self):
        assert NAMES | MODULES <= set(dir(benfordkit))
        assert "__version__" in dir(benfordkit)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from benfordkit import *", namespace)
        assert set(namespace) - {"__builtins__"} == NAMES | MODULES

    @pytest.mark.parametrize("module", [benfordkit, cli])
    def test_unknown_name_raises_attribute_error(self, module):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no "
                                                 "attribute 'no_such_name'"):
            module.no_such_name

    @pytest.mark.parametrize("name", ["convergence_curve", "curve_as_csv"])
    def test_cli_serves_the_simulate_names_the_probe_wraps(self, name):
        # perfbench/probe.py wraps these on `cli` by name.
        assert getattr(cli, name) is getattr(simulate, name)


# concurrent.futures is the simulator's alone (its draw thread).
_REPORT = ("\nprint('loaded:', *(m for m in ('numpy', 'mpmath', 'concurrent.futures')"
           " if m in sys.modules))")
# Runs the command line on the arguments and prints its exit status alone.
_MAIN = """import contextlib, io, sys
from benfordkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        status = cli.main(sys.argv[1:])
    except SystemExit as exc:
        status = exc.code
print('status:', status)"""


def _child(code: str, *argv: str) -> list[str]:
    """The stdout lines of a fresh interpreter that runs `code` and then
    names which of numpy, mpmath and concurrent.futures it loaded."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code + _REPORT, *argv], cwd=ROOT,
                            env=env, capture_output=True, text=True, timeout=120, check=True)
    return result.stdout.splitlines()


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    (tmp / "prose.txt").write_text("Paid 1,234.50 on 12 May; 7 items, 300 km, 4.5e6 J, 19 and 88.\n")
    (tmp / "table.csv").write_text("name,value\na,12\nb,7\nc,300\nd,45\ne,19.5\n")
    return tmp


@pytest.mark.parametrize("module", ["benfordkit", "benfordkit.cli"])
def test_import_loads_neither(module):
    assert _child(f"import sys, {module}") == ["loaded:"]


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], ""),
    (["expected", "--table", "probs"], ""),
    (["expected", "--table", "moments"], ""),
    (["generate", "fibonacci", "--terms", "200", "--census"], ""),
    # The exact integer and rational series count their digits without numpy,
    # whose import would cost more than these whole runs.
    *[(["generate", *kind, "--census", "--base", base], "")
      for kind in (["factorial", "--n", "300"], ["power-n", "--k", "5", "--n", "300"],
                   ["power-alpha", "--alpha", "1.007", "--n", "300"])
      for base in ("10", "16")],
    *[(["analyze", name, "--format", fmt, "--base", base], "")
      for name in ("prose.txt", "table.csv")
      for fmt in ("text", "json", "csv") for base in ("10", "16")],
    # The commands that need the libraries load them when they run.
    (["simulate", "--walkers", "20", "--steps", "3"], " numpy concurrent.futures"),
    # Every walker of this run is flagged and resolved exactly.
    (["simulate", "--walkers", "20", "--steps", "3", "--noise", "constant:10"],
     " numpy concurrent.futures"),
    (["generate", "primes", "--below", "100", "--census"], " numpy"),
    (["generate", "pascal", "--rows", "50", "--census"], " numpy"),
    (["expected", "--table", "corr"], " numpy"),
    # The deep-position law is standard-library arithmetic.
    (["analyze", "prose.txt", "--position", "2"], ""),
    (["expected", "--table", "moments", "--k", "1..8"], ""),
    (["expected", "--table", "tvd", "--k", "2..18"], ""),
])
def test_command_loads_only_what_it_needs(datasets, argv, loaded):
    argv = [str(datasets / arg) if arg.endswith((".txt", ".csv")) else arg for arg in argv]
    assert _child(_MAIN, *argv) == ["status: 0", f"loaded:{loaded}"]
