"""Invariant suites shared by the property tests and the acceptance gate.

Each check raises AssertionError on violation and returns a short summary
string on success.
"""

import math
import random
from dataclasses import replace

import numpy as np

from benfordkit.gof import DigitCensus, build_census, full_report, tvd_benford
from benfordkit.law import first_digit_prob, joint_prob
from benfordkit.significand import extract_digits_rational, parse_token


def check_normalization(bases=range(2, 65), tol=1e-12) -> str:
    """First-digit probabilities sum to one in every base."""
    worst = 0.0
    for base in bases:
        total = math.fsum(first_digit_prob(d, base) for d in range(1, base))
        worst = max(worst, abs(total - 1.0))
        assert abs(total - 1.0) < tol, f"base {base}: sum deviates by {total - 1.0}"
    return f"max |sum-1| = {worst:.2e} over bases {bases[0]}..{bases[-1]}"


def check_marginal_consistency(tol=1e-12) -> str:
    """Summing the joint law over the last digit reproduces the prefix."""
    worst = 0.0
    for k in (2, 3, 4):
        for prefix in range(10 ** (k - 2), 10 ** (k - 1)):
            digits = [int(c) for c in str(prefix)]
            total = math.fsum(joint_prob(digits + [d]) for d in range(10))
            gap = abs(total - joint_prob(digits))
            worst = max(worst, gap)
            assert gap < tol, f"prefix {prefix}: gap {gap}"
    return f"max consistency gap = {worst:.2e} for k in 2..4"


def check_census_merge_pooled(seed=2024) -> str:
    """Merging partial censuses equals the census of the pooled stream."""
    rng = random.Random(seed)
    for trial in range(20):
        chunks = [
            [rng.randrange(1, 10**9) for _ in range(rng.randrange(0, 200))]
            for _ in range(rng.randrange(2, 5))
        ]
        merged = DigitCensus.empty()
        for chunk in chunks:
            merged = merged.merge(build_census(chunk))
        pooled = build_census([v for chunk in chunks for v in chunk])
        assert merged == pooled, f"trial {trial}: merge != pooled"
        if pooled.sample_size:
            assert full_report(merged) == full_report(pooled)
    return "20 random partitions pooled exactly"


def check_scale_shift_invariance(seed=5150) -> str:
    """Digits are unchanged when values scale by powers of the base."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(150):
        base = rng.choice([2, 8, 10, 16])
        n = rng.randrange(1, 10**12)
        k = rng.randrange(1, 6)
        sig = extract_digits_rational(n, 1, k, base)
        for m in (1, 4, 13):
            shifted = extract_digits_rational(n * base**m, 1, k, base)
            assert shifted.digits == sig.digits
            assert shifted.exponent == sig.exponent + m
            checked += 1
    # Decimal tokens shift by adjusting the exponent field.
    for _ in range(100):
        token = parse_token(f"{rng.randrange(1, 10**6)}.{rng.randrange(10**4)}")
        census = build_census([token])
        for m in (-9, 6):
            shifted = replace(token, exponent=token.exponent + m)
            assert build_census([shifted]).counts == census.counts
            checked += 1
    return f"{checked} scale shifts preserved digits"


def check_deviation_inequalities(trials=1000, seed=31337) -> str:
    """d_max <= 2*d1 <= 9*d_max on random censuses."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        counts = rng.multinomial(
            int(rng.integers(1, 2000)), rng.dirichlet(np.ones(9) * rng.uniform(0.2, 5))
        )
        if counts.sum() == 0:
            continue
        census = DigitCensus(1, 10, tuple(int(c) for c in counts))
        d1 = tvd_benford(census)
        d_max = full_report(census).d_max
        assert d_max <= 2 * d1 + 1e-15, f"trial {trial}: d_max > 2*d1"
        assert 2 * d1 <= 9 * d_max + 1e-15, f"trial {trial}: 2*d1 > 9*d_max"
    return f"{trials} random censuses satisfy d_max <= 2*d1 <= 9*d_max"
