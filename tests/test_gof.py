import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from benfordkit.errors import DomainError, EmptyCensus
from benfordkit.gof import (
    CHI2_CRITICAL_1PCT,
    CHI2_CRITICAL_5PCT,
    DigitCensus,
    GofReport,
    build_census,
    compare_to_law,
    digit_support,
    full_report,
    tvd_benford,
)
from benfordkit.law import marginal_distribution
from benfordkit.significand import parse_token
from benfordkit.simulate import NoiseSpec, ProcessSpec, run_ensemble

TABLE4_COUNTS = (63, 37, 18, 15, 15, 13, 7, 7, 8)


def census(counts, position=1, base=10, exclusions=0):
    return DigitCensus(position, base, tuple(counts), exclusions)


class TestCensusType:
    def test_support_and_size(self):
        c = census(TABLE4_COUNTS)
        assert c.support == tuple(range(1, 10))
        assert c.sample_size == 183
        assert c.count_of(1) == 63

    def test_position_two_support_includes_zero(self):
        c = DigitCensus.empty(2, 10)
        assert c.support == tuple(range(10))

    def test_count_length_validation(self):
        with pytest.raises(ValueError):
            DigitCensus(1, 10, (1, 2, 3))
        with pytest.raises(ValueError):
            DigitCensus(1, 10, (-1,) + (0,) * 8)

    @pytest.mark.parametrize("position, base, counts, error, message", [
        (0, 1, (), DomainError, "base must be >= 2, got 1"),
        (19, 100_001, (0,) * 3, DomainError, "base must be <= 100000, got 100001"),
        (0, 10, (), DomainError, "position must be >= 1, got 0"),
        (19, 10, (0,) * 10, DomainError, "position must be <= 18, got 19"),
        (1, 10, (0,) * 10, ValueError,
         "counts must have 9 entries for position 1 base 10, got 10"),
        (2, 100_000, (0,) * 99_999, ValueError,
         "counts must have 100000 entries for position 2 base 100000, got 99999"),
    ])
    def test_base_then_position_then_length(self, position, base, counts, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            DigitCensus(position, base, counts)

    def test_merge_commutative_associative(self):
        rng = random.Random(5)
        a = census([rng.randrange(50) for _ in range(9)], exclusions=2)
        b = census([rng.randrange(50) for _ in range(9)], exclusions=1)
        c = census([rng.randrange(50) for _ in range(9)])
        assert a.merge(b) == b.merge(a)
        assert (a + b) + c == a + (b + c)
        assert (a + b).exclusions == 3

    def test_merge_mismatch(self):
        with pytest.raises(DomainError):
            census(TABLE4_COUNTS).merge(DigitCensus.empty(2, 10))

    def test_from_digits(self):
        c = DigitCensus.from_digits([1, 1, 2, 9], 1, 10)
        assert c.counts == (2, 1, 0, 0, 0, 0, 0, 0, 1)
        with pytest.raises(DomainError):
            DigitCensus.from_digits([0], 1, 10)
        # Position 2 accepts zeros.
        c2 = DigitCensus.from_digits([0, 5], 2, 10)
        assert c2.counts[0] == 1


class TestBuildCensus:
    def test_single_digits_one_through_nine(self):
        c = build_census(range(1, 10))
        assert c.counts == (1,) * 9

    def test_mixed_value_kinds(self):
        c = build_census([parse_token("0.150"), 129])
        assert c.count_of(1) == 2

    def test_empty_stream(self):
        c = build_census([])
        assert c.sample_size == 0

    def test_zeros_are_excluded_and_counted(self):
        c = build_census(["0", 0, 0.0, "0.00", 7])
        assert c.sample_size == 1
        assert c.exclusions == 4

    def test_deeper_position(self):
        c = build_census([129, "0.150"], position=2)
        assert c.count_of(2), c.count_of(5) == (1, 1)

    @pytest.mark.parametrize("array", [
        np.array([0.5, 123.0, 7e-3, 0.0]),
        np.array([5, -30, 0, 812, 2**40], dtype=np.int64),
        np.array([255, 7], dtype=np.uint8),
        np.array([0.1, 2.5], dtype=np.float32),
    ])
    def test_numpy_array_counts_as_its_list(self, array):
        # numpy 2 scalars repr as np.float64(0.5), which is no numeric token.
        for position, base in [(1, 10), (2, 10), (1, 16)]:
            assert (build_census(array, position, base)
                    == build_census(array.tolist(), position, base))

    def test_string_tokens_with_separators(self):
        c = build_census(["2,300"], separators=True)
        assert c.count_of(2) == 1

    @pytest.mark.parametrize("position, base, message", [
        (1, 1, "base must be >= 2, got 1"),
        (1, 0, "base must be >= 2, got 0"),
        (2, -3, "base must be >= 2, got -3"),
        (0, 10, "position must be >= 1, got 0"),
        (-1, 16, "position must be >= 1, got -1"),
        (19, 10, "position must be <= 18, got 19"),
    ])
    def test_base_and_position_outside_domain(self, position, base, message):
        # Each entry point rejects them before counting, not with an IndexError.
        for build in (lambda: digit_support(position, base),
                      lambda: build_census([5], position, base),
                      lambda: build_census([], position, base),
                      lambda: DigitCensus.empty(position, base),
                      lambda: DigitCensus.from_digits([], position, base)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                build()


class TestStatistics:
    def test_reference_census(self):
        r = full_report(census(TABLE4_COUNTS))
        assert r.chi_square == pytest.approx(5.206, abs=0.01)
        assert r.d1 == pytest.approx(0.0762, abs=0.0005)
        assert r.d_max == pytest.approx(0.0432, abs=0.0005)
        assert r.d_max_digit == 1

    def test_near_exact_law_drives_all_statistics_to_zero(self):
        # Integer counts cannot hit the law exactly; at huge sample size the
        # nearest-integer census drives every statistic below 1e-8.
        size = 10**9
        counts = [round(p * size) for p in marginal_distribution(1).probabilities]
        r = full_report(census(counts))
        assert 0.0 <= r.chi_square < 1e-7
        assert 0.0 <= r.d1 < 1e-8
        assert 0.0 <= r.d_max < 1e-8

    def test_empty_census(self):
        for stat in (tvd_benford, full_report):
            with pytest.raises(EmptyCensus):
                stat(DigitCensus.empty())

    def test_only_first_digit_base_ten_testable(self):
        with pytest.raises(DomainError):
            full_report(DigitCensus(2, 10, (1,) * 10))
        with pytest.raises(DomainError):
            full_report(DigitCensus(1, 16, (1,) * 15))
        with pytest.raises(DomainError):
            tvd_benford(DigitCensus(2, 10, (1,) * 10))

    @pytest.mark.parametrize("base", [2, 8, 16])
    def test_tvd_any_base_matches_manual_formula(self, base):
        spec = ProcessSpec(kind="multiplicative",
                           noise=NoiseSpec("lognormal", (0.0, 1.0)),
                           steps=5, walkers=300, base=base, seed=4)
        _, census = run_ensemble(spec)[-1]
        freqs = np.asarray(census.counts) / census.sample_size
        expect = 0.5 * sum(
            abs(f - math.log(1 + 1 / d, base)) for d, f in zip(range(1, base), freqs)
        )
        assert tvd_benford(census) == pytest.approx(expect, abs=1e-15)

    def test_chi_square_matches_pearson_form(self):
        # The frequency form times S equals the classic count form.
        c = census(TABLE4_COUNTS)
        S = c.sample_size
        expected_counts = [p * S for p in marginal_distribution(1).probabilities]
        pearson = sum(
            (o - e) ** 2 / e for o, e in zip(c.counts, expected_counts)
        )
        assert full_report(c).chi_square == pytest.approx(pearson, rel=1e-12)


class TestFullReport:
    def test_fields_consistent(self):
        c = census(TABLE4_COUNTS)
        r = full_report(c)
        pairs = list(compare_to_law(c))
        assert r.verdict_5pct == "accept" and r.verdict_1pct == "accept"
        assert math.fsum(o for o, _ in pairs) == pytest.approx(1.0, abs=1e-12)
        assert r.d_max == max(abs(o - e) for o, e in pairs)
        assert r.d1 == tvd_benford(c)
        assert r.accepted(5) and r.accepted(1)

    def test_fields_are_the_statistics_and_verdicts(self):
        # The census and the law are not copied into the report.
        assert [f.name for f in fields(GofReport)] == [
            "chi_square", "d1", "d_max", "d_max_digit", "verdict_5pct", "verdict_1pct"]

    def test_accepted_reads_the_level_asked_for(self):
        # Chi-square 16.99 lies between the 5% and the 1% critical values.
        r = full_report(census((63, 37, 18, 15, 15, 13, 7, 7, 19)))
        assert r.chi_square == pytest.approx(16.992, abs=0.001)
        assert not r.accepted(5) and not r.accepted()
        assert r.accepted(1)

    @pytest.mark.parametrize("level", [0, 10, 2, -5])
    def test_accepted_rejects_other_levels(self, level):
        r = full_report(census(TABLE4_COUNTS))
        with pytest.raises(DomainError, match=f"^level must be 5 or 1, got {level}$"):
            r.accepted(level)

    def test_verdicts_track_thresholds(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            counts = rng.multinomial(rng.integers(9, 500), rng.dirichlet(np.ones(9)))
            if counts.sum() == 0:
                continue
            r = full_report(census(counts.tolist()))
            assert (r.verdict_5pct == "reject") == (r.chi_square > CHI2_CRITICAL_5PCT)
            assert (r.verdict_1pct == "reject") == (r.chi_square > CHI2_CRITICAL_1PCT)
            # Rejection at 1% implies rejection at 5%.
            if r.verdict_1pct == "reject":
                assert r.verdict_5pct == "reject"

    def test_max_deviation_tie_break_prefers_smaller_digit(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            counts = rng.multinomial(200, rng.dirichlet(np.ones(9)))
            c = census(counts.tolist())
            r = full_report(c)
            deviations = [abs(o - e) for o, e in compare_to_law(c)]
            ties = [d for d, dev in zip(c.support, deviations) if dev == r.d_max]
            assert r.d_max_digit == min(ties)


class TestPoolingAndScale:
    def test_merge_equals_pooled_stream(self):
        rng = random.Random(77)
        first = [rng.randrange(1, 10**9) for _ in range(400)]
        second = [rng.randrange(1, 10**9) for _ in range(300)]
        merged = build_census(first).merge(build_census(second))
        pooled = build_census(first + second)
        assert merged == pooled
        assert full_report(merged) == full_report(pooled)

    def test_statistics_invariant_under_power_of_ten_scaling(self):
        rng = random.Random(13)
        values = [parse_token(f"{rng.randrange(1, 10**6)}.{rng.randrange(10**4)}")
                  for _ in range(500)]
        base_census = build_census(values)
        for shift in (-6, 3, 11):
            scaled = build_census([replace(v, exponent=v.exponent + shift) for v in values])
            assert scaled.counts == base_census.counts
            assert full_report(scaled) == full_report(base_census)
