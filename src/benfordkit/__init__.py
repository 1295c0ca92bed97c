"""benfordkit: the significant-digit law, end to end.

Exact digit extraction in any base, the first-digit and joint digit laws
with their derived statistics, three goodness-of-fit tests, exact series
generators, a multiplicative-process ensemble simulator, and numeric-token
ingestion from text and tables.
"""

__version__ = "0.1.0"

from . import datasets
from .errors import (
    BenfordError,
    DomainError,
    EmptyCensus,
    EncodingError,
    FormatError,
    InvalidNoise,
    MalformedToken,
    MissingColumn,
    ZeroValue,
)
from .gof import (
    CHI2_CRITICAL_1PCT,
    CHI2_CRITICAL_5PCT,
    DEGREES_OF_FREEDOM,
    DigitCensus,
    GofReport,
    build_census,
    chi_square,
    full_report,
    max_deviation,
    tvd_benford,
)
from .ingest import (
    NumberToken,
    ScanPolicy,
    census_from_table,
    census_from_text,
    census_from_tokens,
    dump_tokens_csv,
    read_table,
    scan_text,
)
from .law import (
    DigitDistribution,
    digit_correlation,
    expected_counts,
    first_digit_distribution,
    first_digit_prob,
    joint_prob,
    marginal_distribution,
    moments,
    tvd_from_uniform,
)
from .report import ReportDocument, build_report, render, verify_report
from .sequences import (
    SequenceSpec,
    alpha_power_digits,
    alpha_power_values,
    factorial_digits,
    factorial_values,
    fibonacci_digits,
    fibonacci_values,
    n_power_digits,
    n_power_values,
    pascal_digits,
    pascal_values,
    prime_digits,
    prime_values,
)
from .significand import (
    ExactDecimal,
    SignificantDigits,
    digit_at,
    extract_digits,
    extract_digits_bigint,
    extract_digits_rational,
    first_digit,
    format_token,
    parse_token,
)
from .simulate import (
    NoiseSpec,
    ProcessSpec,
    convergence_curve,
    curve_as_csv,
    curve_as_json,
    run_ensemble,
    run_ensemble_partitioned,
)
