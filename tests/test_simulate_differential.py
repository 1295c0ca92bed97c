"""Differential tests of the simulator against the references in
`replay_oracle`: the exact running log-sums against replay, in bases 2, 10
and 16, for noise that puts walkers on or near digit boundaries; and the
cell-table census against the pow-and-gap classifier run on every walker,
on states at and around digit boundaries, guard bands and cell edges in
bases 2-64, 300 and 100,000."""

import math
from unittest import mock

import numpy as np
import pytest

import replay_oracle
from benfordkit import simulate
from benfordkit.significand import extract_digits_rational
from benfordkit.simulate import (
    _CELLS,
    _LOG_STATE_CAP,
    BOUNDARY_GUARD,
    NoiseSpec,
    ProcessSpec,
    _cell_table,
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


class TestCellTable:
    @pytest.mark.parametrize("base", [300, 100_000])
    def test_shape_and_dtype(self, base):
        bounds, table = _cell_table(base)
        assert len(bounds) == base and len(table) == _CELLS + 1
        assert np.iinfo(table.dtype).max >= base - 1
        # Cell 0 touches the boundary at 0; the extra entry is frac == 1.0.
        assert table[0] == 0 and table[_CELLS] == 0

    def test_digit_cells_keep_clear_of_every_bound(self):
        # Exhaustive over every cell of bases 2-64: a cell with a digit has
        # that digit, by the pow-and-gap test's floor(base**frac), at both
        # of its edges, and both edges are BOUNDARY_GUARD or more from every
        # boundary.
        for base in range(2, 65):
            bounds, table = _cell_table(base)
            cells = np.flatnonzero(table)
            assert len(cells) > 0.99 * _CELLS
            for edge in (cells / _CELLS, (cells + 1) / _CELLS):
                digit = np.clip(np.floor(float(base) ** edge), 1, base - 1)
                assert np.array_equal(digit, table[cells]), base
                after = np.searchsorted(bounds, edge)
                nearest = np.minimum(edge - bounds[np.maximum(after - 1, 0)],
                                     bounds[np.minimum(after, base - 1)] - edge)
                assert (np.abs(nearest) >= BOUNDARY_GUARD).all(), base
