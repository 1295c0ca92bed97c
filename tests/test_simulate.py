import json
import math
import threading
import time

import numpy as np
import pytest
import replay_oracle

from benfordkit import cli, simulate
from benfordkit.errors import DomainError, InvalidNoise
from benfordkit.gof import tvd_benford
from benfordkit.significand import MAX_BASE
from benfordkit.simulate import (
    NoiseSpec,
    ProcessSpec,
    _census,
    _LogSums,
    convergence_curve,
    curve_as_csv,
    curve_as_json,
    iterate_states,
    recorded_steps,
    run_ensemble,
)


def mult_spec(**kw):
    defaults = dict(
        kind="multiplicative",
        noise=NoiseSpec("lognormal", (0.0, 1.0)),
        steps=10,
        walkers=200,
        seed=1,
    )
    defaults.update(kw)
    return ProcessSpec(**defaults)


class TestNoiseSpec:
    def test_parse(self):
        assert NoiseSpec.parse("lognormal:0,1") == NoiseSpec("lognormal", (0.0, 1.0))
        assert NoiseSpec.parse("uniform:0.5,2") == NoiseSpec("uniform", (0.5, 2.0))
        assert NoiseSpec.parse("constant:10") == NoiseSpec("constant", (10.0,))

    def test_unknown_family(self):
        with pytest.raises(InvalidNoise):
            NoiseSpec.parse("cauchy:0,1")

    @pytest.mark.parametrize("text, field", [
        ("lognormal:0,,1", "parameter 2 is not a number: ''"),
        ("lognormal:0,1,", "parameter 3 is not a number: ''"),
        ("lognormal:a,1", "parameter 1 is not a number: 'a'"),
        ("constant: ", "parameter 1 is not a number: ' '"),
    ])
    def test_every_field_must_be_a_number(self, text, field):
        with pytest.raises(InvalidNoise, match=f"^noise {text!r}: {field}$"):
            NoiseSpec.parse(text)

    def test_param_count(self):
        with pytest.raises(InvalidNoise):
            NoiseSpec("lognormal", (0.0,))

    def test_uniform_ordering(self):
        with pytest.raises(InvalidNoise):
            NoiseSpec("uniform", (2.0, 1.0))

    @pytest.mark.parametrize("text", [
        "lognormal:0,nan", "lognormal:nan,1", "normal:inf,1", "normal:0,-inf",
        "uniform:0.5,inf", "uniform:-inf,1", "constant:inf", "constant:nan",
    ])
    def test_non_finite_parameters(self, text):
        with pytest.raises(InvalidNoise):
            NoiseSpec.parse(text)

    def test_uniform_width_must_be_finite(self):
        # Both ends are finite but hi - lo overflows numpy's uniform draw.
        with pytest.raises(InvalidNoise):
            NoiseSpec("uniform", (-1e308, 1e308))

    def test_positivity(self):
        assert NoiseSpec("lognormal", (0.0, 1.0)).strictly_positive
        assert NoiseSpec("uniform", (0.5, 2.0)).strictly_positive
        assert not NoiseSpec("uniform", (0.0, 1.0)).strictly_positive
        assert not NoiseSpec("normal", (5.0, 0.1)).strictly_positive
        assert NoiseSpec("constant", (10.0,)).strictly_positive


class TestProcessSpec:
    def test_multiplicative_needs_positive_noise(self):
        with pytest.raises(InvalidNoise):
            mult_spec(noise=NoiseSpec("normal", (0.0, 1.0)))
        with pytest.raises(InvalidNoise):
            mult_spec(noise=NoiseSpec("uniform", (0.0, 1.0)))
        with pytest.raises(InvalidNoise):
            mult_spec(noise=NoiseSpec("constant", (-2.0,)))
        with pytest.raises(InvalidNoise):
            mult_spec(noise=NoiseSpec("constant", (0.0,)))

    def test_additive_accepts_signed_noise(self):
        spec = ProcessSpec(
            kind="additive",
            noise=NoiseSpec("normal", (0.0, 1.0)),
            steps=5,
            walkers=10,
        )
        assert len(run_ensemble(spec)) == 5

    @pytest.mark.parametrize("kind", ["multiplicative", "additive"])
    @pytest.mark.parametrize("initial", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_value(self, kind, initial):
        with pytest.raises(DomainError):
            ProcessSpec(kind=kind, noise=NoiseSpec("constant", (2.0,)), steps=3,
                        walkers=4, initial_value=initial)

    def test_additive_overflow_is_excluded(self):
        spec = ProcessSpec(kind="additive", noise=NoiseSpec("constant", (1e308,)),
                           steps=3, walkers=4)
        with np.errstate(over="ignore"):
            series = run_ensemble(spec)
            curve = convergence_curve(spec)
        # Step 1 holds 1 + 1e308; from step 2 on every state is inf.
        assert series[0][1].counts[0] == 4
        for _, census in series[1:]:
            assert census.sample_size == 0
            assert census.exclusions == 4
        assert [t for t, _ in curve] == [1]

    def test_validation(self):
        with pytest.raises(DomainError):
            mult_spec(steps=0)
        with pytest.raises(DomainError):
            mult_spec(walkers=0)
        with pytest.raises(DomainError):
            mult_spec(base=1)
        with pytest.raises(DomainError):
            mult_spec(initial_value=0.0)
        with pytest.raises(DomainError):
            mult_spec(kind="geometric")

    def test_metadata_pins_prng(self):
        meta = mult_spec().metadata()
        assert "Philox" in meta["prng"]
        assert meta["numpy_version"] == np.__version__
        assert meta["seed"] == 1


class TestRecordedSteps:
    def test_short_runs_record_every_step(self):
        assert recorded_steps(mult_spec(steps=5)) == [1, 2, 3, 4, 5]
        assert len(recorded_steps(mult_spec(steps=100))) == 100

    def test_long_runs_use_checkpoints(self):
        marks = recorded_steps(mult_spec(steps=5000))
        assert len(marks) == 100
        assert marks[0] == 1 and marks[-1] == 5000
        assert marks == sorted(marks)


class TestDeterminism:
    def test_identical_seeds_identical_series(self):
        a = run_ensemble(mult_spec(steps=20, walkers=500, seed=42))
        b = run_ensemble(mult_spec(steps=20, walkers=500, seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        a = run_ensemble(mult_spec(steps=20, walkers=500, seed=1))
        b = run_ensemble(mult_spec(steps=20, walkers=500, seed=2))
        assert a != b


class TestConstantNoise:
    def test_constant_base_multiplier_keeps_digit_one(self):
        # xi = 10 exactly: the value stays a power of ten; the log-space
        # fractional part sits on the digit boundary every step and must be
        # resolved by the extended-precision path, not float rounding.
        spec = mult_spec(noise=NoiseSpec("constant", (10.0,)), steps=12, walkers=50)
        for _, census in run_ensemble(spec):
            assert census.counts == (50,) + (0,) * 8

    @pytest.mark.parametrize("base, steps", [(2, 12), (16, 12), (2, 150), (10, 150),
                                             (16, 150)])
    def test_constant_base_multiplier_other_bases_and_checkpoints(self, base, steps):
        spec = mult_spec(noise=NoiseSpec("constant", (float(base),)), steps=steps,
                         walkers=7, base=base)
        for _, census in run_ensemble(spec):
            assert census.counts == (7,) + (0,) * (base - 2)

    def test_point_mass_curve_value(self):
        # All mass on digit 1 gives d1 = 1 - log10(2) by direct evaluation.
        spec = mult_spec(noise=NoiseSpec("constant", (10.0,)), steps=6, walkers=20)
        expect = 1.0 - math.log10(2.0)
        for _, d1 in convergence_curve(spec):
            assert d1 == pytest.approx(expect, abs=1e-12)

    def test_binary_base_curve_is_zero(self):
        spec = mult_spec(steps=8, walkers=100, base=2)
        for _, d1 in convergence_curve(spec):
            assert d1 == 0.0


class TestLogSpaceEquivalence:
    def test_multiplicative_equals_additive_in_log_space(self):
        # Same seed, same draw pattern: ln(lognormal walk from 1) must be
        # bitwise the normal walk from 0.
        mult = ProcessSpec(
            kind="multiplicative",
            noise=NoiseSpec("lognormal", (0.3, 0.7)),
            steps=25,
            walkers=300,
            initial_value=1.0,
            seed=11,
        )
        add = ProcessSpec(
            kind="additive",
            noise=NoiseSpec("normal", (0.3, 0.7)),
            steps=25,
            walkers=300,
            initial_value=0.0,
            seed=11,
        )
        for (t1, logs), (t2, values) in zip(iterate_states(mult), iterate_states(add)):
            assert t1 == t2
            assert np.array_equal(logs, values)


class TestAdditive:
    def test_nonpositive_walkers_are_excluded(self):
        spec = ProcessSpec(
            kind="additive",
            noise=NoiseSpec("normal", (-5.0, 1.0)),
            steps=10,
            walkers=100,
            initial_value=1.0,
            seed=3,
        )
        series = run_ensemble(spec)
        final = series[-1][1]
        assert final.exclusions == 100
        assert final.sample_size == 0

    def test_curve_skips_empty_censuses(self):
        spec = ProcessSpec(
            kind="additive",
            noise=NoiseSpec("normal", (-5.0, 1.0)),
            steps=10,
            walkers=50,
            seed=3,
        )
        curve = convergence_curve(spec)
        assert all(step <= 3 for step, _ in curve)


class TestReplay:
    def test_replay_agrees_with_float_path_off_boundary(self):
        spec = mult_spec(
            noise=NoiseSpec("uniform", (0.5, 2.0)), steps=4, walkers=16, seed=5
        )
        series = dict(run_ensemble(spec))
        # Recompute every walker's digit by the extended-precision route.
        states = dict(iterate_states(spec))
        for step in (1, 4):
            exact = replay_oracle.exact_digits_from_replay(spec, step, np.arange(16))
            counts = [0] * 9
            for d in exact.values():
                counts[d - 1] += 1
            assert tuple(counts) == series[step].counts
            # And the float path agrees with the exact path walker by walker.
            float_census = _census(states[step], spec, step, _LogSums(spec))
            assert float_census == series[step]

    def test_replay_empty_index_set(self):
        assert replay_oracle.exact_digits_from_replay(
            mult_spec(), 3, np.array([], dtype=int)) == {}


class TestBoundaryRegressions:
    def test_sigma_zero_lognormal_at_ln_ten(self, capsys):
        assert cli.main(["simulate", "--noise", "lognormal:2.302585092994046,0",
                         "--steps", "50", "--walkers", "50", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = lines[lines.index("step,d1") + 1:]
        assert rows == [f"{t},0.698970004336" for t in range(1, 51)]

    def test_identical_seeds_bit_identical_near_boundary(self):
        noise = NoiseSpec("lognormal", (2.302585092994046, 1e-12))
        spec = mult_spec(noise=noise, steps=120, walkers=12, seed=3)
        a = run_ensemble(spec)
        assert a == run_ensemble(mult_spec(noise=noise, steps=120, walkers=12, seed=3))
        assert a == replay_oracle.run_ensemble(spec)


class TestBoundaryCost:
    """The exact path costs one catch-up replay per recorded step with newly
    flagged walkers, and one ln(xi) term per tracked walker per step."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(simulate, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulate, name, counted)
        return calls

    @staticmethod
    def _count_terms(monkeypatch, family):
        """Count the exact integer ln(xi) terms of `family`'s table row."""
        calls = []
        row = simulate._NOISE[family]

        def counted(*args):
            calls.append(args)
            return row.ln_xi_fixed(*args)

        monkeypatch.setitem(simulate._NOISE, family, row._replace(ln_xi_fixed=counted))
        return calls

    @pytest.mark.parametrize("noise, steps", [
        (NoiseSpec("lognormal", (2.302585092994046 / 3, 3e-12)), 40),
        (NoiseSpec("lognormal", (2.302585092994046, 3e-12)), 160),
        (NoiseSpec("uniform", (10.0 - 3e-11, 10.0 + 3e-11)), 60),
    ])
    def test_catch_ups_and_terms(self, noise, steps, monkeypatch):
        spec = mult_spec(noise=noise, steps=steps, walkers=30, seed=9)
        replay = replay_oracle.ReplaySums(spec)
        expect = replay_oracle.run_ensemble(spec, replay)
        first: dict[int, int] = {}
        for step, walkers in sorted(replay.flagged.items()):
            for i in walkers:
                first.setdefault(i, step)
        new_steps = set(first.values())
        assert len(new_steps) >= 2

        generators = self._count(monkeypatch, "_generator")
        terms = self._count_terms(monkeypatch, noise.family)
        assert run_ensemble(spec) == expect
        # One generator for the walk, at most one per step with new walkers.
        assert len(generators) - 1 <= len(new_steps)
        # Each tracked walker gets each step's term once: linear in steps.
        assert len(terms) == len(first) * spec.steps

    @pytest.mark.parametrize("noise", ["constant:100000", "lognormal:11.512925464970229,1e-14"])
    def test_max_base_takes_a_handful_of_logs(self, noise, monkeypatch):
        # Every walker is flagged at every step, yet the exact digits take
        # ln(x0), ln(base) and the few boundaries next to the walkers: no
        # log for each of the base's digits.
        spec = mult_spec(noise=NoiseSpec.parse(noise), steps=12, walkers=20, base=MAX_BASE)
        expect = replay_oracle.run_ensemble(spec)
        logs = self._count(monkeypatch, "_ln")
        assert run_ensemble(spec) == expect
        assert 0 < len(logs) <= 8

    def test_constant_noise_replays_nothing(self, monkeypatch):
        generators = self._count(monkeypatch, "_generator")
        terms = self._count_terms(monkeypatch, "constant")
        spec = mult_spec(noise=NoiseSpec("constant", (10.0,)), steps=150, walkers=30)
        assert all(c.counts[0] == 30 for _, c in run_ensemble(spec))
        assert len(generators) == 1
        assert terms == []


class TestHelperThread:
    """A drawing family's next step is drawn on one helper thread, which
    every way out of a run ends; a draw-free family starts none."""

    def test_full_run_ends_the_thread(self):
        baseline = threading.active_count()
        run_ensemble(mult_spec())
        assert threading.active_count() == baseline

    def test_closing_after_the_first_step_ends_the_thread(self):
        baseline = threading.active_count()
        states = iterate_states(mult_spec())
        next(states)
        assert threading.active_count() == baseline + 1
        states.close()
        assert threading.active_count() == baseline

    def test_draw_error_reaches_the_caller(self, monkeypatch):
        class DrawError(Exception):
            pass

        row = simulate._NOISE["lognormal"]
        calls = []

        def draw(rng, out, *params):
            calls.append(len(out))
            if len(calls) == 3:
                raise DrawError("step 3")
            row.draw(rng, out, *params)

        monkeypatch.setitem(simulate._NOISE, "lognormal", row._replace(draw=draw))
        baseline = threading.active_count()
        with pytest.raises(DrawError, match="step 3"):
            run_ensemble(mult_spec())
        assert len(calls) == 3
        assert threading.active_count() == baseline

    def test_error_in_the_walk_ends_the_thread(self):
        # The thread ends at once, while the traceback still holds the walk.
        def fail(raw):
            raise ArithmeticError("update")

        baseline = threading.active_count()
        with pytest.raises(ArithmeticError, match="update") as error:
            list(simulate._walk(mult_spec(), fail))
        assert error.tb is not None
        assert threading.active_count() == baseline

    def test_a_slow_step_keeps_its_draws(self, monkeypatch):
        # Each update waits before it reads its step's draws, long enough
        # for the helper to draw the next step: that draw must go to the
        # other buffer. The oracle draws its own stream.
        row = simulate._NOISE["normal"]

        def slow_xi(raw, *params):
            time.sleep(0.002)
            return row.xi(raw, *params)

        monkeypatch.setitem(simulate._NOISE, "normal", row._replace(xi=slow_xi))
        spec = ProcessSpec("additive", NoiseSpec("normal", (0.5, 2.0)), 12, 1000, seed=6)
        for (t, state), (u, want) in zip(iterate_states(spec), replay_oracle.states(spec),
                                         strict=True):
            assert t == u
            assert state.tobytes() == want.tobytes()

    def test_constant_run_starts_no_thread(self):
        baseline = threading.active_count()
        spec = mult_spec(noise=NoiseSpec("constant", (10.0,)))
        for _ in iterate_states(spec):
            assert threading.active_count() == baseline


class TestAdditiveFromNonPositiveStart:
    """An additive run may start at 0 or below, where ln(x0) does not
    exist; the exact path's logs belong to multiplicative runs alone."""

    @pytest.mark.parametrize("initial", [0.0, -1.0])
    def test_run_ensemble(self, initial):
        spec = ProcessSpec("additive", NoiseSpec("normal", (0.0, 1.0)), 120, 40, initial,
                           seed=5)
        assert run_ensemble(spec) == replay_oracle.run_ensemble(spec)

    @pytest.mark.parametrize("initial", ["0", "-1"])
    def test_cli(self, initial, capsys):
        assert cli.main(["simulate", "--kind", "add", "--noise", "normal:0,1", "--initial",
                         initial, "--steps", "6", "--walkers", "40", "--seed", "5"]) == 0
        spec = ProcessSpec("additive", NoiseSpec("normal", (0.0, 1.0)), 6, 40,
                           float(initial), seed=5)
        rows = [(t, tvd_benford(c)) for t, c in replay_oracle.run_ensemble(spec)]
        assert capsys.readouterr().out == curve_as_csv(spec, rows)


class TestHugeStates:
    @pytest.mark.parametrize("mu", [1e300, 1e308])
    def test_huge_multiplicative_states_are_excluded(self, mu):
        spec = mult_spec(noise=NoiseSpec("lognormal", (mu, 0.0)), steps=3, walkers=5)
        for _, census in run_ensemble(spec):
            assert census.sample_size == 0
            assert census.exclusions == 5
        assert convergence_curve(spec) == []

    def test_state_past_the_largest_double_times_ln_2_warns_nothing(self):
        # Its x = state / ln 2 overflows; the census excludes it silently.
        spec = mult_spec(noise=NoiseSpec("lognormal", (1.5e308, 0.0)), steps=1, walkers=5,
                         base=2)
        assert run_ensemble(spec)[0][1].exclusions == 5

    def test_cap_on_log_base_state(self):
        spec = mult_spec(walkers=6)
        ln10 = math.log(10)
        # log10 states: 2**51 + 0.5 and -(2**51) + 0.25 keep their
        # fractional bits; 2**52, -(2**53), inf and nan do not.
        state = np.array([(2.0**51 + 0.5) * ln10, (-(2.0**51) + 0.25) * ln10,
                          2.0**52 * ln10, -(2.0**53) * ln10, math.inf, math.nan])
        census = _census(state, spec, 1, _LogSums(spec))
        assert census.sample_size == 2
        assert census.exclusions == 4


class TestSerialization:
    def test_csv_and_json_curves_carry_identical_values(self):
        spec = mult_spec(steps=6, walkers=100, seed=12)
        curve = convergence_curve(spec)
        csv_text = curve_as_csv(spec, curve)
        payload = json.loads(curve_as_json(spec, curve))
        assert payload["meta"]["seed"] == 12
        rows = [
            line for line in csv_text.splitlines()
            if line and not line.startswith("#") and line != "step,d1"
        ]
        assert len(rows) == len(payload["curve"]) == 6
        for row, entry in zip(rows, payload["curve"]):
            step, d1 = row.split(",")
            assert int(step) == entry["step"]
            assert float(d1) == entry["d1"]

    def test_csv_header_pins_seed_and_prng(self):
        spec = mult_spec(seed=99)
        text = curve_as_csv(spec, convergence_curve(spec))
        assert "# seed=99" in text
        assert "Philox" in text


class TestStatisticalShape:
    def test_d1_non_increasing_beyond_mixing_within_noise(self):
        # Past ~10 steps the walk is fully mixed and d1 fluctuates at the
        # multinomial noise floor (sigma of a windowed mean ~0.001 at 10**4
        # walkers). The late-run level must not rise above the
        # early-mixed level beyond a 2-sigma allowance.
        for seed in (3, 29, 36):
            spec = mult_spec(steps=50, walkers=10**4, seed=seed)
            curve = dict(convergence_curve(spec))
            early = sum(curve[t] for t in range(10, 21)) / 11
            late = sum(curve[t] for t in range(40, 51)) / 11
            assert late <= early + 0.002, (
                f"seed {seed}: d1 level rose from {early} to {late}"
            )
            # And the pre-mixing transient really does decrease into it.
            assert curve[1] > early


class TestD1:
    def test_d1_matches_manual_formula(self):
        series = run_ensemble(mult_spec(steps=5, walkers=300, seed=4))
        _, census = series[-1]
        freqs = np.asarray(census.counts) / census.sample_size
        expect = 0.5 * sum(
            abs(f - math.log10(1 + 1 / d)) for d, f in zip(range(1, 10), freqs)
        )
        assert tvd_benford(census) == pytest.approx(expect, abs=1e-15)
