"""benfordkit: the significant-digit law, end to end.

Exact digit extraction in any base, the first-digit and joint digit laws
with their derived statistics, three goodness-of-fit tests, exact series
generators, a multiplicative-process ensemble simulator, and numeric-token
ingestion from text and tables.

Every public name is imported from its submodule on first use (PEP 562),
so importing the package, or one submodule, does not load numpy, the one
runtime dependency, until a function that needs it runs.
"""

__version__ = "0.1.0"

import importlib

_NAMES_BY_MODULE = {
    "datasets": (),
    "errors": (
        "BenfordError", "DomainError", "EmptyCensus", "EncodingError", "FormatError",
        "InvalidNoise", "MalformedToken", "MissingColumn", "ZeroValue",
    ),
    "gof": (
        "CHI2_CRITICAL_1PCT", "CHI2_CRITICAL_5PCT", "DEGREES_OF_FREEDOM", "DigitCensus",
        "GofReport", "build_census", "full_report", "tvd_benford",
    ),
    "ingest": (
        "NumberToken", "ScanPolicy", "census_from_table", "census_from_text",
        "census_from_tokens", "dump_tokens_csv", "read_table", "scan_text",
    ),
    "law": (
        "DigitDistribution", "digit_correlation", "first_digit_distribution",
        "first_digit_prob", "joint_prob", "marginal_distribution", "moments",
        "tvd_from_uniform",
    ),
    "report": ("ReportDocument", "build_report", "render"),
    "sequences": (
        "SequenceSpec", "alpha_power_digits", "alpha_power_values", "factorial_digits",
        "factorial_values", "fibonacci_digits", "fibonacci_values", "n_power_digits",
        "n_power_values", "pascal_digits", "pascal_values", "prime_digits", "prime_values",
    ),
    "significand": (
        "ExactDecimal", "SignificantDigits", "digit_at", "extract_digits",
        "extract_digits_bigint", "extract_digits_rational", "first_digit", "parse_token",
    ),
    "simulate": (
        "NoiseSpec", "ProcessSpec", "convergence_curve", "curve_as_csv", "curve_as_json",
        "run_ensemble",
    ),
}
# Each public name, the submodules included, mapped to the submodule it lives in.
_MODULE_OF = {name: module for module, names in _NAMES_BY_MODULE.items()
              for name in (module, *names)}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        module_name = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    return module if name == module_name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
