"""Differential tests of the simulator against the references in
`replay_oracle`: the exact running log-sums against replay, in bases 2, 10
and 16, for noise that puts walkers on or near digit boundaries; the
noise-family table's walks and exact integer terms against the
reference's per-family functions; the integer digit rule against the
reference's snap in value space; and the cell-table census against the
pow-and-gap classifier run on every walker, on states at and around digit
boundaries, guard bands and cell edges in bases 2-64, 300 and 100,000. The
float digit reader both the simulator and Pascal's digits use,
`significand._log_digits`, and its cell table are checked here too, under
both callers' bounds, against a 60-digit reading of each double. The
table's draws into the stream's own buffers are checked against numpy's
sized draws, and the census's 2**52 cap threshold against the division it
replaces."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest

import replay_oracle
from benfordkit import sequences, simulate
from benfordkit.significand import (
    _CELLS,
    MAX_BASE,
    _cell_table,
    _log_digits,
    extract_digits_rational,
)
from benfordkit.simulate import (
    _LOG_STATE_CAP,
    BOUNDARY_GUARD,
    NoiseSpec,
    ProcessSpec,
    _census,
    run_ensemble,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example


@st.composite
def _boundary_specs(draw):
    """Multiplicative runs whose per-step factor is base**(num/den), or a
    draw within a tiny spread of it: walkers sit on a digit boundary every
    den steps, first at a step after 1 when base**(1/den) is no boundary,
    and random ones wander in and out of the guard band."""
    base = draw(st.sampled_from([2, 10, 16]))
    center = float(base) ** (draw(st.integers(1, 3)) / draw(st.integers(1, 3)))
    spread = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 3e-12]))
    family = draw(st.sampled_from(["lognormal", "uniform", "constant"]))
    if family == "lognormal":
        noise = NoiseSpec("lognormal", (math.log(center), spread))
    elif family == "uniform":
        width = max(spread, 1e-15) * center
        noise = NoiseSpec("uniform", (center - width, center + width))
    else:
        noise = NoiseSpec("constant", (center,))
    steps = draw(st.integers(1, 14) | st.integers(101, 110))
    walkers = draw(st.integers(1, 3 if steps > 100 else 24))
    initial = draw(st.sampled_from([1.0, 0.5, 3.0, float(base)]))
    return ProcessSpec("multiplicative", noise, steps, walkers, initial, base,
                       draw(st.integers(0, 2**32 - 1)))


@st.composite
def _additive_specs(draw):
    family = draw(st.sampled_from(["lognormal", "normal", "uniform", "constant"]))
    params = {"lognormal": (0.0, 1.0), "normal": (1.0, 2.0),
              "uniform": (0.5, 2.0), "constant": (10.0,)}[family]
    steps = draw(st.integers(1, 14) | st.integers(101, 130))
    return ProcessSpec("additive", NoiseSpec(family, params), steps,
                       draw(st.integers(1, 50)), 1.0, draw(st.sampled_from([2, 10, 16])),
                       draw(st.integers(0, 2**32 - 1)))


class TestRunningSumsMatchReplay:
    @settings(max_examples=60, deadline=None)
    @given(_boundary_specs())
    @example(ProcessSpec("multiplicative", NoiseSpec("lognormal", (2.302585092994046, 0.0)),
                         12, 5, seed=1))
    @example(ProcessSpec("multiplicative", NoiseSpec("lognormal", (2.302585092994046, 3e-12)),
                         105, 3, seed=4))
    @example(ProcessSpec("multiplicative", NoiseSpec("constant", (16.0,)), 103, 2, base=16))
    # ln(x0) in doubles would put these walkers on digit 9 instead of 1.
    @example(ProcessSpec("multiplicative", NoiseSpec("constant", (10.0,)), 12, 3, 1000.0))
    @example(ProcessSpec("multiplicative", NoiseSpec("lognormal", (2.302585092994046, 3e-12)),
                         12, 4, 1e-5, seed=2))
    def test_multiplicative(self, spec):
        assert run_ensemble(spec) == replay_oracle.run_ensemble(spec)

    @settings(max_examples=30, deadline=None)
    @given(_additive_specs())
    def test_additive(self, spec):
        assert run_ensemble(spec) == replay_oracle.run_ensemble(spec)

    @pytest.mark.parametrize("base, noise", [
        (10, NoiseSpec("lognormal", (2.302585092994046 / 3, 1e-13))),
        (2, NoiseSpec("uniform", (2.0 - 6e-12, 2.0 + 6e-12))),
        (16, NoiseSpec("lognormal", (2.772588722239781, 3e-12))),
    ])
    def test_walkers_first_flagged_after_step_one(self, base, noise):
        spec = ProcessSpec("multiplicative", noise, 40, 30, base=base, seed=9)
        sums = replay_oracle.ReplaySums(spec)
        expect = replay_oracle.run_ensemble(spec, sums)
        first = {}
        for step, walkers in sorted(sums.flagged.items()):
            for i in walkers:
                first.setdefault(i, step)
        # The case is only a test if walkers join the tracked set late.
        assert any(step > 1 for step in first.values())
        assert run_ensemble(spec) == expect


_BASES = st.integers(2, 64) | st.sampled_from([300, 100_000])



class TestNoiseTableMatchesReference:
    """Each row of `simulate._NOISE` against the per-family functions
    written out in `replay_oracle`, bit for bit."""

    @pytest.mark.parametrize("kind, noise", [
        ("multiplicative", "lognormal:0.1,0.3"),
        ("multiplicative", "uniform:0.5,2"),
        ("multiplicative", "constant:3"),
        ("additive", "lognormal:0.1,0.3"),
        ("additive", "normal:-1,2"),
        ("additive", "uniform:-1,3"),
        ("additive", "constant:-0.7"),
    ])
    def test_states(self, kind, noise):
        spec = ProcessSpec(kind, NoiseSpec.parse(noise), 110, 64, 1.3, seed=11)
        for (t, got), (u, want) in zip(simulate.iterate_states(spec),
                                       replay_oracle.states(spec), strict=True):
            assert t == u
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("noise", [
        "lognormal:0.1,0.3", "lognormal:2.302585092994046,1e-12",
        "uniform:0.5,2", "uniform:9.99999999997,10.00000000003",
    ])
    def test_exact_terms(self, noise):
        # The integer term is the reference's ln(xi), taken at 90 digits, in
        # units of 2**-256 and rounded once: the two differ by at most 1.
        spec = NoiseSpec.parse(noise)
        term = simulate._NOISE[spec.family].ln_xi_fixed
        raw = replay_oracle._raw_step(replay_oracle._generator(3), spec, 200)
        with mpmath.workdps(90):
            for v in raw.tolist():
                want = replay_oracle._log_increment_mp(v, spec) * mpmath.mpf(2) ** 256
                assert abs(term(v, *spec.params) - want) <= 1


def _bits(values: np.ndarray) -> list[int]:
    return values.view(np.int64).tolist()


class TestDrawsIntoBuffers:
    """Each row's draw fills a buffer the stream owns; on the same Philox
    seed it gives numpy's own sized draw bit for bit, which
    `replay_oracle` takes as the reference."""

    @pytest.mark.parametrize("family", ["lognormal", "normal"])
    def test_standard_normal(self, family):
        out = np.empty(1000)
        simulate._NOISE[family].draw(simulate._generator(7), out, 0.5, 2.0)
        assert _bits(out) == _bits(simulate._generator(7).standard_normal(1000))

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-1e300, 1e300, -0.75, -5e-324]),
           ulps=st.integers(1, 6),
           width=st.none() | st.floats(min_value=5e-324, allow_infinity=False),
           seed=st.integers(0, 2**32))
    # |lo| near 1e300 with a finite range, and a range of a few ulps of lo.
    @example(lo=-1e300, ulps=1, width=1.5e300, seed=0)
    @example(lo=1e300, ulps=3, width=None, seed=0)
    @example(lo=-3.5, ulps=2, width=None, seed=0)
    def test_uniform(self, lo, ulps, width, seed):
        hi = lo + (ulps * math.ulp(lo) if width is None else width)
        hypothesis.assume(math.isfinite(hi) and 0 < hi - lo < math.inf)
        NoiseSpec("uniform", (lo, hi))  # the row's own rule admits (lo, hi)
        out = np.empty(257)
        simulate._NOISE["uniform"].draw(simulate._generator(seed), out, lo, hi)
        assert _bits(out) == _bits(simulate._generator(seed).uniform(lo, hi, 257))

    def test_a_step_stays_valid_until_the_second_next(self):
        draws = simulate._draws(ProcessSpec("additive", NoiseSpec("normal", (0.0, 1.0)),
                                            3, 50, seed=4))
        first = next(draws)
        kept = first.copy()
        second = next(draws)
        assert _bits(first) == _bits(kept)
        assert not np.shares_memory(first, second)
        # The third step refills the first step's buffer: no array per step.
        assert np.shares_memory(next(draws), first)


class TestStateCap:
    """The census's cap test, |s| < _state_cap(base), against the division
    it replaces, |s / ln base| < 2**52: at and next to the threshold, at
    +-0, nan and +-inf, and at any double, in bases 2 to MAX_BASE."""

    @settings(max_examples=400, deadline=None)
    @given(base=st.integers(2, MAX_BASE) | st.sampled_from([2, 10, MAX_BASE]),
           ulps=st.integers(-4, 4), other=st.floats())
    @example(base=10, ulps=0, other=0.0)
    def test_threshold_matches_division(self, base, ulps, other):
        cap, ln_base = simulate._state_cap(base), math.log(base)
        near = _nudge(cap, ulps)
        state = np.array([near, -near, other, 0.0, -0.0, math.nan, math.inf, -math.inf])
        with np.errstate(over="ignore"):
            divided = np.abs(state / ln_base) < _LOG_STATE_CAP
        assert (np.abs(state) < cap).tolist() == divided.tolist()
        # The threshold is the least double past the cap.
        assert cap / ln_base >= _LOG_STATE_CAP > math.nextafter(cap, 0.0) / ln_base


class TestExactDigitMatchesSnapRule:
    """The exact path's integer digit rule against the reference's snap in
    value space, on ln-totals n * ln(base) + ln(d) plus an offset: at a
    boundary, within the snap tolerance of 1e-38 in value, just past it,
    and at the guard band."""

    OFFSETS = ["0", "1e-40", "-1e-40", "1e-37", "-1e-37", "1e-30", "-1e-30",
               repr(BOUNDARY_GUARD), repr(-BOUNDARY_GUARD)]

    @settings(max_examples=400, deadline=None)
    @given(base=st.integers(2, 64) | st.just(100_000), pick=st.integers(0, 10**6),
           n=st.integers(-60, 60), offset=st.sampled_from(OFFSETS),
           units=st.integers(-4, 4))
    # The top digit of the largest base, just below a power of it.
    @example(base=100_000, pick=99_999, n=3, offset="-1e-40", units=0)
    def test_totals_at_and_near_boundaries(self, base, pick, n, offset, units):
        d = 1 + pick % base  # a digit 1..base; `units` are units of 2**-256
        with mpmath.workdps(120):
            total = n * mpmath.log(base) + mpmath.log(d) + mpmath.mpf(offset)
            fixed = int(mpmath.nint(total * mpmath.mpf(2) ** 256)) + units
        with mpmath.workdps(replay_oracle.EXACT_DPS):
            x = mpmath.mpf(fixed) / mpmath.mpf(2) ** 256 / mpmath.log(base)
            want = replay_oracle._digit_from_fraction_mp(x - mpmath.floor(x), base)
        spec = ProcessSpec("multiplicative", NoiseSpec("constant", (2.0,)), 1, 1, base=base)
        assert simulate._LogSums(spec)._digit(fixed) == want


def _nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@st.composite
def _states(draw, kind, base):
    """One walker state: an ln-value for a multiplicative run, the value
    for an additive one, placed by x = log_base(value) at a digit boundary
    k + log_base(d), BOUNDARY_GUARD to either side of one, or a cell edge,
    then moved a few ulps; or a special value; or any value."""
    ln_base = math.log(base)
    k = draw(st.integers(-6, 6))
    d = draw(st.integers(1, base))
    place = draw(st.sampled_from(["boundary", "guard", "edge", "special", "any"]))
    if place == "special":
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300, -5e-324]
        if kind == "multiplicative":
            # -tiny x has a frac that rounds to 1.0; the rest are at, near
            # or past the cap on log_base.
            specials += [-1e-17, (2.0**51 + 0.5) * ln_base, 2.0**52 * ln_base,
                         -(2.0**52) * ln_base, _LOG_STATE_CAP * 1e6, 1e308, -1e308]
        else:
            specials += [-1.0, 5e-324, 2.2250738585072014e-308, 1e308,
                         1.7976931348623157e308]
        return draw(st.sampled_from(specials))
    if place == "any":
        return draw(st.floats(-1e4, 1e4) if kind == "multiplicative"
                    else st.floats(-1e6, 1e300))
    if place == "boundary":
        x = k + math.log(d) / ln_base
    elif place == "guard":
        x = k + math.log(d) / ln_base + draw(st.sampled_from([-1, 1])) * BOUNDARY_GUARD
    else:
        x = k + draw(st.integers(0, _CELLS)) / _CELLS
    if kind == "multiplicative":
        value = math.log(d) + k * ln_base if place == "boundary" else x * ln_base
    else:
        value = d * float(base) ** k if place == "boundary" else float(base) ** x
    return _nudge(value, draw(st.integers(-4, 4)))


def _observed(census, module, state, spec, step):
    """A census, and what it resolved exactly: the walkers it asked `sums`
    for and the additive states it classified exactly."""
    sums = replay_oracle.ReplaySums(spec)
    exact = []

    def first_digit(num, den, position, base):
        exact.append((num, den))
        return extract_digits_rational(num, den, position, base)

    with mock.patch.object(module, "extract_digits_rational", first_digit):
        result = census(state.copy(), spec, step, sums)
    return result, sums.flagged, exact


def _assert_census_matches_reference(state, kind, base, step=2):
    spec = ProcessSpec(kind, NoiseSpec("constant", (2.0,)), 3, len(state), base=base)
    assert (_observed(_census, simulate, state, spec, step)
            == _observed(replay_oracle.census, replay_oracle, state, spec, step))


class TestCellCensusMatchesPowAndGap:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_states(self, data):
        base = data.draw(_BASES)
        kind = data.draw(st.sampled_from(["multiplicative", "additive"]))
        state = data.draw(st.lists(_states(kind, base), min_size=1, max_size=40))
        _assert_census_matches_reference(np.array(state), kind, base)

    @pytest.mark.parametrize("base", [2, 7, 10, 16, 300, 100_000])
    @pytest.mark.parametrize("kind", ["multiplicative", "additive"])
    def test_boundaries_and_specials(self, kind, base):
        ln_base = math.log(base)
        digits = sorted({1, 2, base // 2, base - 1, base})
        if kind == "multiplicative":
            exact = [math.log(d) + k * ln_base for d in digits for k in (-2, 0, 3)]
            special = [math.nan, math.inf, -math.inf, -1e-300, -1e-17, 0.0,
                       2.0**52 * ln_base, -(2.0**53) * ln_base, 1e308]
        else:
            exact = [d * float(base) ** k for d in digits for k in (-2, 0, 3)]
            special = [math.nan, math.inf, -math.inf, 0.0, -0.0, -2.5, 5e-324, 1e308]
        state = [_nudge(v, u) for v in exact for u in (-2, -1, 0, 1, 2)] + special
        _assert_census_matches_reference(np.array(state), kind, base)

    @pytest.mark.parametrize("kind, noise, walkers", [
        ("multiplicative", "lognormal:0,1", 2000),
        ("additive", "uniform:0.5,2", 2000),
        ("multiplicative", "lognormal:2.302585092994046,0", 20),
        ("multiplicative", "constant:10", 300),
    ])
    def test_benchmark_runs_flag_the_same_walkers_each_step(self, kind, noise, walkers):
        spec = ProcessSpec(kind, NoiseSpec.parse(noise), 50, walkers, seed=84)
        for step, state in replay_oracle.states(spec):
            assert (_observed(_census, simulate, state, spec, step)
                    == _observed(replay_oracle.census, replay_oracle, state, spec, step))


def _pascal_guard(rows: int, base: int) -> float:
    """The bound E that Pascal's digits pass to `_log_digits`."""
    seen = []

    def spy(x, base, guard):
        seen.append(guard)
        return _log_digits(x, base, guard)

    with mock.patch.object(sequences, "_log_digits", spy):
        next(sequences.pascal_digits(rows, base))
    return seen[0]


# The two bounds `_log_digits` is called with: the simulator's, and Pascal's
# E at 1000 rows in base 10 (about 1.7e-9).
_PASCAL_GUARD = _pascal_guard(1000, 10)
_GUARDS = [pytest.param(BOUNDARY_GUARD, id="simulate"),
           pytest.param(_PASCAL_GUARD, id="pascal")]


class TestCellTable:
    @pytest.mark.parametrize("guard", _GUARDS)
    @pytest.mark.parametrize("base", [300, 100_000])
    def test_shape_and_dtype(self, base, guard):
        bounds, table = _cell_table(base, guard)
        assert len(bounds) == base and len(table) == _CELLS + 1
        assert np.iinfo(table.dtype).max >= base - 1
        # Cell 0 touches the boundary at 0; the extra entry is frac == 1.0.
        assert table[0] == 0 and table[_CELLS] == 0

    def test_pascal_guard(self):
        assert 1e-9 < _PASCAL_GUARD < 3e-9

    @pytest.mark.parametrize("guard", _GUARDS)
    def test_digit_cells_keep_clear_of_every_bound(self, guard):
        # Exhaustive over every cell of bases 2-64: a cell with a digit has
        # that digit, by the pow-and-gap test's floor(base**frac), at both
        # of its edges, and both edges are `guard` or more from every
        # boundary.
        for base in range(2, 65):
            bounds, table = _cell_table(base, guard)
            cells = np.flatnonzero(table)
            assert len(cells) > 0.99 * _CELLS
            for edge in (cells / _CELLS, (cells + 1) / _CELLS):
                digit = np.clip(np.floor(float(base) ** edge), 1, base - 1)
                assert np.array_equal(digit, table[cells]), base
                after = np.searchsorted(bounds, edge)
                nearest = np.minimum(edge - bounds[np.maximum(after - 1, 0)],
                                     bounds[np.minimum(after, base - 1)] - edge)
                assert (np.abs(nearest) >= guard).all(), base


def _exact_digit(x: float, base: int) -> tuple[int, mpmath.mpf]:
    """The first digit of base**x for a finite double x, read at 60 digits
    from x's exact value, and the distance from x's fractional part to the
    nearer boundary of that digit's interval."""
    with mpmath.workdps(60):
        f = mpmath.mpf(x) - mpmath.floor(mpmath.mpf(x))  # exact
        ln_base = mpmath.log(base)

        def bound(k):
            return mpmath.log(k) / ln_base

        d = min(max(int(mpmath.floor(mpmath.exp(f * ln_base))), 1), base - 1)
        while d > 1 and f < bound(d):
            d -= 1
        while d < base - 1 and f >= bound(d + 1):
            d += 1
        return d, min(f - bound(d), bound(d + 1) - f)


# Slack for the reader's own rounding: of f below 1, and of the boundaries.
_ULPS = 16 * 2.0**-52


@st.composite
def _reader_inputs(draw, base, guard):
    """One double for `_log_digits`: a boundary k + log_b(d), `guard` to
    either side of one, a cell edge, just below an integer, any double up
    to 2**52 in magnitude, or a special value; then moved a few ulps."""
    place = draw(st.sampled_from(["boundary", "guard", "edge", "integer", "any", "special"]))
    k = draw(st.integers(-6, 6) | st.integers(-2**52, 2**52))
    if place == "special":
        return draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if place == "any":
        return draw(st.floats(-2.0**52, 2.0**52))
    if place == "integer":
        return math.nextafter(float(draw(st.integers(-2**52, 2**52))), -math.inf)
    if place == "edge":
        x = k + draw(st.integers(0, _CELLS)) / _CELLS
    else:
        d = draw(st.integers(1, base))
        x = k + math.log(d) / math.log(base)
        if place == "guard":
            x += draw(st.sampled_from([-1, 1])) * guard
    return _nudge(x, draw(st.integers(-4, 4)))


class TestLogDigits:
    """`significand._log_digits` against a 60-digit reading of each double:
    every digit it gives is the exact one, with `guard` to spare, every
    value clear of both boundaries of its digit by guard plus a few ulps
    gets one, and `unsure` is exactly the places of the zeros."""

    @staticmethod
    def _check(x, base, guard):
        digits, unsure = _log_digits(np.array(x, dtype=np.float64), base, guard)
        assert len(digits) == len(x)
        np.testing.assert_array_equal(unsure, np.flatnonzero(digits == 0))
        for value, digit in zip(x, digits.tolist()):
            if not math.isfinite(value):
                assert digit == 0, value
                continue
            exact, gap = _exact_digit(value, base)
            if digit:
                # The exact digit, with `guard` to spare on both sides.
                assert digit == exact and gap >= guard - _ULPS, (value, digit, exact)
            if gap >= guard + _ULPS:
                assert digit == exact, (value, float(gap))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_digits_are_exact_and_unsure_is_the_zeros(self, data):
        base = data.draw(st.integers(2, 64) | st.integers(65, MAX_BASE), label="base")
        guard = data.draw(st.sampled_from([BOUNDARY_GUARD, _PASCAL_GUARD]), label="guard")
        self._check(data.draw(st.lists(_reader_inputs(base, guard), max_size=30), label="x"),
                    base, guard)

    @pytest.mark.parametrize("guard", _GUARDS)
    @pytest.mark.parametrize("base", [2, 4, 10, 16, 64, MAX_BASE])
    def test_boundaries_edges_and_specials(self, base, guard):
        # log_4(2) = 0.5 is a boundary that a double holds exactly.
        ln_base = math.log(base)
        boundaries = [k + math.log(d) / ln_base for d in (1, 2, base - 1) for k in (0, 3, -5)]
        x = [_nudge(v + s * guard, u) for v in boundaries for s in (-1, 0, 1) for u in (-2, 0, 2)]
        x += [j / _CELLS for j in (0, 1, _CELLS // 2, _CELLS - 1, _CELLS)]
        x += [math.nextafter(k, -math.inf) for k in (0.0, 1.0, -1.0, 2.0**40, 2.0**52)]
        x += [2.0**52, -(2.0**52), 2.0**52 - 0.5, -1e-17, math.nan, math.inf, -math.inf]
        self._check(x, base, guard)
        self._check([], base, guard)
