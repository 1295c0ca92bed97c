"""Differential tests of the simulator's exact running log-sums against the
replay oracle in `replay_oracle`: same censuses, step for step, in bases
2, 10 and 16, for noise that puts walkers on or near digit boundaries."""

import math

import pytest

import replay_oracle
from benfordkit.simulate import NoiseSpec, ProcessSpec, run_ensemble

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
