"""The significant-digit law and its derived statistics.

First-digit probabilities generalize to any base as log_b(1 + 1/d). The
joint law over the first k decimal digits is log10(1 + 1/m), with m the
integer spelled by the digits; marginals, moments, distances to uniform,
and inter-digit correlations all derive from it.

Position-k marginals are that law summed over prefixes, telescoped into
lnGamma differences (Hill, "The Significant-Digit Phenomenon", Amer. Math.
Monthly 102, 1995) and evaluated in ``decimal`` with a Bernoulli-polynomial tail.
Correlations sum centred conditional means over the prefixes of the
deeper position, with the means and variances taken from the marginals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import lru_cache
from typing import Sequence

from .errors import DomainError
from .significand import check_base, check_position, digit_slot, digit_support

# Correlations sum over the 9 * 10**(j-2) prefixes of j - 1 digits; up to
# j = 6 the integer products (10m + b)(10m + 10 - b) stay below 10**12.
MAX_CORRELATION_POSITION = 6

_LN10 = math.log(10.0)
_TAIL = 12  # the last m kept in the Bernoulli-polynomial tail; see _closed_form
# The Bernoulli numbers B_0..B_12 (B_1 = -1/2, DLMF Table 24.2.1) times 30030,
# their least common denominator.
_BERNOULLI = (30030, -15015, 5005, 0, -1001, 0, 715, 0, -1001, 0, 2275, 0, -7601)


@dataclass(frozen=True)
class DigitDistribution:
    """Distribution of the digit at one significant position."""

    position: int
    support: tuple[int, ...]
    probabilities: tuple[float, ...]

    def prob(self, digit: int) -> float:
        # The support ends at base - 1.
        return self.probabilities[digit_slot(digit, self.position, self.support[-1] + 1)]


def first_digit_prob(d: int, base: int = 10) -> float:
    """P(first significant digit = d) in ``base``: log_base(1 + 1/d)."""
    check_base(base)
    digit_slot(d, 1, base)
    return math.log1p(1.0 / operator.index(d)) / math.log(base)


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


@lru_cache(maxsize=None)
def _tail_table() -> tuple[tuple[int, ...], ...]:
    """For each d, (-1)**m L 10**m (B_m((d+1)/10) - B_m(d/10)), m = 2.._TAIL,
    L = _BERNOULLI[0]. These are integers: L 10**m B_m(n/10) is the sum over
    j <= m of C(m, j) (L B_j) 10**j n**(m-j) (DLMF 24.2.5)."""
    at = [[sum(math.comb(m, j) * b * 10**j * n ** (m - j) for j, b in enumerate(_BERNOULLI[:m + 1]))
           for n in range(11)] for m in range(_TAIL + 1)]
    return tuple(tuple((-1) ** m * (at[m][d + 1] - at[m][d]) for m in range(2, _TAIL + 1))
                 for d in range(10))


def _closed_form(k: int) -> tuple[tuple[float, ...], float]:
    """P_k(d), d = 0..9, and its distance to uniform, for k >= 2.

    ln 10 * P_k(d) sums ln((10m + d + 1) / (10m + d)) over lo <= m < hi,
    lo = 10**(k-2), hi = 10**(k-1): one ln of an exact ratio for k <= 3.
    Beyond, it is lnG(hi + b) - lnG(lo + b) - lnG(hi + a) + lnG(lo + a),
    a = d/10, b = a + 1/10, and lnG(N + h) expands in Bernoulli polynomials
    (DLMF 5.11.8). As hi = 10 lo, the ln N terms leave ln 10 / 10, and
    P_k(d) - 1/10 = (R(hi) - R(lo)) / ln 10, R(N) the sum over 2 <= m <= _TAIL
    of (-1)**m (B_m(b) - B_m(a)) / (m(m-1) N**(m-1)). The distance to uniform
    comes from these deviations at 20 + 2k digits, before any is a double.

    The remainder after m = M (DLMF 5.11(ii)), by the Euler-Maclaurin sum of
    ln t over t = lo + h, ..., hi - 1 + h, is at most sup|B_M| / (M(M-1)
    lo**(M-1)) for each h. At M = 12, sup|B_12| = 691/2730 on [0, 1] (DLMF
    24.9.1), so at lo >= 100 each P_k(d) is within 2 * 691/2730 / (132 *
    100**11 * ln 10) < 1.7e-25, and the distance within 8.4e-25: under 1e-5
    ulp of either at k = 4, the worst case.
    """
    lo, hi = 10 ** (k - 2), 10 ** (k - 1)
    with localcontext(Context(prec=20 + 2 * k)):
        ln10 = Decimal(10).ln()
        if hi <= 100:
            devs = [(Decimal(math.prod(10 * m + d + 1 for m in range(lo, hi)))
                     / math.prod(10 * m + d for m in range(lo, hi))).ln() / ln10 - Decimal("0.1")
                    for d in range(10)]
        else:
            scale = [(Decimal(hi) ** (1 - m) - Decimal(lo) ** (1 - m)) / (m * (m - 1) * 10**m)
                     / _BERNOULLI[0] for m in range(2, _TAIL + 1)]
            devs = [sum(map(operator.mul, row, scale)) / ln10 for row in _tail_table()]
        return tuple(float(dev + Decimal("0.1")) for dev in devs), float(sum(map(abs, devs)) / 2)


# Bounded, as a law at base 100,000 holds 7 MB; one command reads at most 18 keys.
@lru_cache(maxsize=32)
def marginal_distribution(k: int, base: int = 10) -> DigitDistribution:
    """Distribution of the k-th significant digit in ``base``.

    Position 1 is the first-digit law of any base; deeper positions are
    decimal only and come from the closed form in lnGamma differences.
    """
    if k == 1:
        support = digit_support(1, base)
        ln_base = math.log(base)
        return DigitDistribution(1, support, tuple(math.log1p(1.0 / d) / ln_base for d in support))
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
        probs = marginal_distribution(1).probabilities
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
