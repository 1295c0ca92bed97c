"""The significant-digit law and its derived statistics.

First-digit probabilities generalize to any base as log_b(1 + 1/d). The
joint law over the first k decimal digits is log10(1 + 1/m), with m the
integer spelled by the digits; marginals, moments, distances to uniform,
and inter-digit correlations all derive from it.

Position-k marginals are that law summed over prefixes, telescoped into
lnGamma differences and evaluated at extended precision (Hill, "The
Significant-Digit Phenomenon", Amer. Math. Monthly 102, 1995).
Correlations sum centred conditional means over the prefixes of the
deeper position, with the means and variances taken from the marginals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError
from .significand import MAX_EXTRACT_DIGITS, check_base, check_position, digit_slot, digit_support

if TYPE_CHECKING:
    import numpy as np

# Deepest position with a marginal: the deepest that digit extraction
# supports.
MAX_POSITION = MAX_EXTRACT_DIGITS
# Correlations sum over the 9 * 10**(j-2) prefixes of j - 1 digits; up to
# j = 6 the integer products (10m + b)(10m + 10 - b) stay below 10**12.
MAX_CORRELATION_POSITION = 6

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class DigitDistribution:
    """Distribution of the digit at one significant position."""

    position: int
    support: tuple[int, ...]
    probabilities: tuple[float, ...]

    def prob(self, digit: int) -> float:
        # The support ends at base - 1.
        return self.probabilities[digit_slot(digit, self.position, self.support[-1] + 1)]

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.probabilities)


def first_digit_prob(d: int, base: int = 10) -> float:
    """P(first significant digit = d) in ``base``: log_base(1 + 1/d)."""
    check_base(base)
    digit_slot(d, 1, base)
    return math.log1p(1.0 / operator.index(d)) / math.log(base)


def first_digit_distribution(base: int = 10) -> DigitDistribution:
    """The full first-digit law over {1, ..., base-1}."""
    support = digit_support(1, base)
    ln_base = math.log(base)
    probs = tuple(math.log1p(1.0 / d) / ln_base for d in support)
    return DigitDistribution(position=1, support=support, probabilities=probs)


def joint_prob(digits: Sequence[int]) -> float:
    """Probability that the first k decimal digits are exactly ``digits``.

    Equals log10(1 + 1/m) where m is the integer with decimal expansion
    d1 d2 ... dk. For k = 1 this reduces to the first-digit law in base 10.
    """
    digits = tuple(digits)
    if not digits:
        raise DomainError("at least one digit required")
    m = 0
    for position, d in enumerate(digits, 1):
        digit_slot(d, position, 10)
        m = 10 * m + operator.index(d)
    return math.log1p(1.0 / m) / _LN10


def _closed_form(k: int) -> tuple[tuple[float, ...], float]:
    """P_k(d), d = 0..9, and its distance to uniform, for k >= 2.

    Over the prefixes m in [lo, hi), lo = 10**(k-2) and hi = 10**(k-1), the
    product of (10m + d + 1) / (10m + d) telescopes to Gamma ratios, so with
    g(x) = lnG(hi + x) - lnG(lo + x), P_k(d) = [g((d+1)/10) - g(d/10)] / ln 10.
    The terms nearly cancel and P_k(d) - 1/10 shrinks like 10**-k, so both
    results are rounded to doubles only at the end.
    """
    import mpmath

    lo, hi = 10 ** (k - 2), 10 ** (k - 1)
    with mpmath.workdps(20 + 2 * k):
        xs = [mpmath.mpf(n) / 10 for n in range(11)]
        g = [mpmath.loggamma(hi + x) - mpmath.loggamma(lo + x) for x in xs]
        probs = [(g[d + 1] - g[d]) / mpmath.ln10 for d in range(10)]
        tvd = mpmath.fsum(abs(p - mpmath.mpf(1) / 10) for p in probs) / 2
        return tuple(float(p) for p in probs), float(tvd)


@lru_cache(maxsize=None)
def marginal_distribution(k: int, base: int = 10) -> DigitDistribution:
    """Distribution of the k-th significant digit in ``base``.

    Position 1 is the first-digit law of any base; deeper positions are
    decimal only and come from the closed form in lnGamma differences.
    """
    if k == 1:
        return first_digit_distribution(base)
    if base != 10:
        raise DomainError("deep-position tables are base 10 only")
    return DigitDistribution(k, digit_support(k, 10), _closed_form(k)[0])


def moments(k: int) -> tuple[float, float]:
    """Mean and variance of the k-th significant digit under the law."""
    dist = marginal_distribution(k)
    mean = math.fsum(d * p for d, p in zip(dist.support, dist.probabilities))
    second = math.fsum(d * d * p for d, p in zip(dist.support, dist.probabilities))
    return mean, second - mean * mean


def tvd_from_uniform(k: int) -> float:
    """Total variation distance of the position-k law from uniform.

    The uniform reference is 1/9 on {1..9} at position 1 and 1/10 on
    {0..9} deeper in; convergence to uniform is geometric in k.
    """
    check_position(k)
    if k == 1:
        probs = first_digit_distribution(10).probabilities
        return 0.5 * math.fsum(abs(p - 1.0 / 9) for p in probs)
    return _closed_form(k)[1]


@lru_cache(maxsize=None)
def digit_correlation(i: int, j: int) -> float:
    """Correlation of the digits at positions i < j, from the exact joint law.

    Sums centred conditional means over the (j-1)-digit prefixes m. With
    h(m) = ln 10 * P(m) * (E[D_j | m] - mu_j), the covariance is the sum of
    (d_i(m) - mu_i) * h(m), over ln 10. Means and variances come from moments.
    """
    if not (1 <= i < j):
        raise DomainError(f"need 1 <= i < j, got ({i}, {j})")
    if j > MAX_CORRELATION_POSITION:
        raise DomainError(f"position j must lie in [2, {MAX_CORRELATION_POSITION}], got {j}")
    import numpy as np

    (mean_i, var_i), (mean_j, var_j) = moments(i), moments(j)
    m = np.arange(10 ** (j - 2), 10 ** (j - 1), dtype=np.int64)
    # Pairing digit b with 9 - b makes each difference of two logs one log1p
    # of a ratio of exact integers, so h has no cancellation.
    h = sum((b - 4.5) * np.log1p((9 - 2 * b) / ((10 * m + b) * (10 * m + 10 - b)))
            for b in range(5)) - (mean_j - 4.5) * np.log1p(1.0 / m)
    d_i = (m // 10 ** (j - 1 - i)) % 10
    return math.fsum(((d_i - mean_i) * h).tolist()) / _LN10 / math.sqrt(var_i * var_j)


def expected_counts(k: int, sample_size: int) -> np.ndarray:
    """Expected digit counts at position k for a sample of the given size."""
    if sample_size < 1:
        raise DomainError(f"sample_size must be >= 1, got {sample_size}")
    return marginal_distribution(k).as_array() * sample_size
