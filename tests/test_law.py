import math
from fractions import Fraction

import mpmath
import pytest

from benfordkit import law
from benfordkit.errors import DomainError
from benfordkit.law import (
    MAX_POSITION,
    digit_correlation,
    first_digit_distribution,
    first_digit_prob,
    joint_prob,
    marginal_distribution,
    moments,
    tvd_from_uniform,
)

# Reference values for the digit-law statistics, verified independently
# by brute-force summation before being frozen here.
MOMENTS_REFERENCE = {
    1: (3.44023696712, 6.0565126313757),
    2: (4.18738970693, 8.2537786232732),
    3: (4.46776565097, 8.2500943647286),
    4: (4.49677537552, 8.2500009523513),
    5: (4.49967753636, 8.2500000095245),
    6: (4.49996775363, 8.2500000000953),
    7: (4.49999677536, 8.2500000000016),
}
TVD_REFERENCE = {
    1: 0.26872666,
    2: 0.04702863,
    3: 0.00488356,
    4: 0.00048858,
    5: 0.00004886,
    6: 0.00000489,
    7: 0.00000049,
}
CORRELATION_REFERENCE = {
    (1, 2): 0.0560563,
    (1, 3): 0.0059126,
    (1, 4): 0.0005916,
    (1, 5): 0.0000591,
    (2, 3): 0.0020566,
    (2, 4): 0.0002059,
    (2, 5): 0.0000205,
    (3, 4): 0.0000228,
    (3, 5): 0.0000022,
    (4, 5): 0.0000002,
}
# The 15 correlations to position 6 from an exact enumeration of the joint
# law of the first six digits at 40 digits (tests/correlation_reference.py).
CORRELATION_40_DIGITS = {
    (1, 2): 5.6056340363102888e-2,
    (1, 3): 5.9126004227475746e-3,
    (1, 4): 5.9164221977022715e-4,
    (1, 5): 5.9164605339241685e-5,
    (1, 6): 5.9164609172983239e-6,
    (2, 3): 2.0566677257202314e-3,
    (2, 4): 2.0591047036794398e-4,
    (2, 5): 2.059129177746554e-5,
    (2, 6): 2.0591294224977478e-6,
    (3, 4): 2.2835263034212895e-5,
    (3, 5): 2.2835574735842487e-6,
    (3, 6): 2.2835577853016239e-7,
    (4, 5): 2.286670595361262e-7,
    (4, 6): 2.2866709082471902e-8,
    (5, 6): 2.2867021964456784e-9,
}


class TestFirstDigitProb:
    def test_reference_row(self):
        assert first_digit_prob(1, 10) == pytest.approx(0.3010, abs=5e-5)
        assert first_digit_prob(9, 10) == pytest.approx(0.0458, abs=5e-5)

    def test_binary_base_is_certain(self):
        assert first_digit_prob(1, 2) == 1.0

    @pytest.mark.parametrize("d,base", [(0, 10), (10, 10), (-1, 10), (2, 2)])
    def test_domain(self, d, base):
        with pytest.raises(DomainError):
            first_digit_prob(d, base)

    def test_normalization_all_bases(self):
        for base in range(2, 65):
            total = math.fsum(first_digit_prob(d, base) for d in range(1, base))
            assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("base", [1, 0, -3])
    def test_distribution_rejects_base_below_two(self, base):
        with pytest.raises(DomainError, match=f"^base must be >= 2, got {base}$"):
            first_digit_distribution(base)


class TestJointProb:
    def test_worked_example(self):
        assert joint_prob((1, 2, 9)) == pytest.approx(0.00335, abs=5e-6)

    def test_single_digit_reduces_to_first_digit_law(self):
        for d in range(1, 10):
            assert joint_prob((d,)) == pytest.approx(first_digit_prob(d, 10), abs=0)

    def test_two_nines(self):
        assert joint_prob((9, 9)) == pytest.approx(math.log10(1 + 1 / 99), abs=1e-15)

    @pytest.mark.parametrize("digits", [(), (0,), (0, 1), (1, 10), (1, -1)])
    def test_domain(self, digits):
        with pytest.raises(DomainError):
            joint_prob(digits)

    def test_marginal_consistency(self):
        # Summing out the last digit reproduces the prefix probability.
        for k in (2, 3, 4):
            for prefix in range(10 ** (k - 2), 10 ** (k - 1)):
                digits = [int(c) for c in str(prefix)]
                total = math.fsum(joint_prob(digits + [d]) for d in range(10))
                assert abs(total - joint_prob(digits)) < 1e-12


class TestMarginal:
    def test_position_one_is_first_digit_law(self):
        dist = marginal_distribution(1)
        assert dist.support == tuple(range(1, 10))
        for d, p in zip(dist.support, dist.probabilities):
            assert p == first_digit_prob(d, 10)

    def test_position_two_digit_zero_against_loop_oracle(self):
        oracle = math.fsum(math.log10(1 + 1 / (10 * d)) for d in range(1, 10))
        assert marginal_distribution(2).prob(0) == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize("k", range(1, MAX_POSITION + 1))
    def test_sums_to_one(self, k):
        total = math.fsum(marginal_distribution(k).probabilities)
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("k", range(2, 6))
    def test_closed_form_against_direct_enumeration(self, k):
        # P_k(d) is the joint law log10(1 + 1/(10m + d)) summed over every
        # (k-1)-digit prefix m; log1p keeps each term's low digits.
        prefixes = range(10 ** (k - 2), 10 ** (k - 1))
        dist = marginal_distribution(k)
        for d in range(10):
            direct = math.fsum(math.log1p(1 / (10 * m + d)) for m in prefixes)
            assert abs(dist.prob(d) - direct / math.log(10)) <= 1e-16

    def test_domain(self):
        with pytest.raises(DomainError):
            marginal_distribution(0)
        with pytest.raises(DomainError):
            marginal_distribution(MAX_POSITION + 1)

    def test_position_one_in_any_base_is_first_digit_law(self):
        for base in range(2, 65):
            assert marginal_distribution(1, base) == first_digit_distribution(base)

    @pytest.mark.parametrize("k, base", [(2, 16), (3, 2), (MAX_POSITION, 7), (0, 16),
                                         (MAX_POSITION + 1, 16), (2, 1)])
    def test_deep_positions_are_base_ten_only(self, k, base):
        # Checked before the position and the base themselves.
        with pytest.raises(DomainError, match="^deep-position tables are base 10 only$"):
            marginal_distribution(k, base)

    def test_distribution_prob_lookup(self):
        dist = marginal_distribution(2)
        with pytest.raises(DomainError):
            dist.prob(10)


class TestMoments:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_reference_values(self, k):
        mean, variance = moments(k)
        ref_mean, ref_var = MOMENTS_REFERENCE[k]
        assert abs(mean - ref_mean) < 1e-9
        assert abs(variance - ref_var) < 1e-9

    def test_approaches_uniform_limit(self):
        mean, variance = moments(7)
        assert abs(mean - 4.5) < 1e-5
        assert abs(variance - 8.25) < 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_agrees_with_direct_joint_summation(self, k):
        # Independent route: enumerate the full joint support.
        lo, hi = 10 ** (k - 1), 10**k
        terms_m, terms_v = [], []
        for m in range(lo, hi):
            p = math.log10(1 + 1 / m)
            d = m % 10
            terms_m.append(d * p)
            terms_v.append(d * d * p)
        mean = math.fsum(terms_m)
        var = math.fsum(terms_v) - mean * mean
        got_mean, got_var = moments(k)
        assert abs(got_mean - mean) < 1e-12
        assert abs(got_var - var) < 1e-12


def _law_60_digits(k):
    """Position-k marginal, its mean, variance and distance to uniform, at 60
    digits from the four-lnGamma form of the closed-form law."""
    lo, hi = 10 ** (k - 2), 10 ** (k - 1)
    with mpmath.workdps(60):
        g = mpmath.loggamma
        probs = [
            (g(hi + b) - g(lo + b) - g(hi + a) + g(lo + a)) / mpmath.log(10)
            for a, b in ((mpmath.mpf(d) / 10, mpmath.mpf(d + 1) / 10) for d in range(10))
        ]
        mean = mpmath.fsum(d * p for d, p in enumerate(probs))
        var = mpmath.fsum(d * d * p for d, p in enumerate(probs)) - mean**2
        tvd = mpmath.fsum(abs(p - mpmath.mpf(1) / 10) for p in probs) / 2
        return [float(p) for p in probs], float(mean), float(var), float(tvd)


class TestDeepPositionsAgainst60Digits:
    # Past k = 8 every P_k(d) is within 1e-8 of 1/10, so the distance to
    # uniform must be taken before the probabilities are rounded to doubles.
    @pytest.mark.parametrize("k", range(2, MAX_POSITION + 1))
    def test_marginal_moments_and_tvd(self, k):
        probs, mean, var, tvd = _law_60_digits(k)
        assert marginal_distribution(k).probabilities == tuple(probs)
        got_mean, got_var = moments(k)
        assert got_mean == pytest.approx(mean, rel=1e-13, abs=0)
        assert got_var == pytest.approx(var, rel=1e-13, abs=0)
        assert tvd_from_uniform(k) == tvd

    def test_bernoulli_table(self):
        # The tail's coefficients come from this table, scaled by B_0's entry.
        assert len(law._BERNOULLI) > law._TAIL
        assert [Fraction(b, law._BERNOULLI[0]) for b in law._BERNOULLI] == [
            Fraction(*mpmath.bernfrac(j)) for j in range(len(law._BERNOULLI))]


class TestTvdFromUniform:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_reference_values(self, k):
        assert abs(tvd_from_uniform(k) - TVD_REFERENCE[k]) < 1e-7

    def test_monotone_decrease(self):
        values = [tvd_from_uniform(k) for k in range(1, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_geometric_ratio_beyond_two(self):
        values = {k: tvd_from_uniform(k) for k in range(3, 8)}
        for k in range(3, 7):
            ratio = values[k + 1] / values[k]
            assert abs(ratio - 0.1) <= 0.002


class TestCorrelation:
    @pytest.mark.parametrize("pair", sorted(CORRELATION_REFERENCE))
    def test_reference_values(self, pair):
        assert abs(digit_correlation(*pair) - CORRELATION_REFERENCE[pair]) < 1e-6

    @pytest.mark.parametrize("pair", sorted(CORRELATION_40_DIGITS))
    def test_every_digit_against_40_digit_enumeration(self, pair):
        want = CORRELATION_40_DIGITS[pair]
        assert abs(digit_correlation(*pair) - want) <= 2e-15 * want

    def test_decay_with_distance(self):
        for i in (1, 2, 3):
            row = [digit_correlation(i, j) for j in range(i + 1, 6)]
            assert all(b < a for a, b in zip(row, row[1:]))

    def test_values_open_unit_interval(self):
        for (i, j) in CORRELATION_REFERENCE:
            assert 0.0 < digit_correlation(i, j) < 1.0

    @pytest.mark.parametrize("i,j", [(0, 2), (2, 2), (3, 2), (1, 7)])
    def test_domain(self, i, j):
        with pytest.raises(DomainError):
            digit_correlation(i, j)


class TestDeepPosition:
    def test_position_eight_supported_and_near_uniform(self):
        dist = marginal_distribution(8)
        assert abs(math.fsum(dist.probabilities) - 1.0) < 1e-12
        mean, variance = moments(8)
        assert abs(mean - 4.5) < 1e-6
        assert abs(variance - 8.25) < 1e-9
        assert tvd_from_uniform(8) < tvd_from_uniform(7)
