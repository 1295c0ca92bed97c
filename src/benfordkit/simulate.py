"""Ensemble simulation of multiplicative vs additive random processes.

A multiplicative walk N(t+1) = xi * N(t) is a Brownian walk in log space,
so its leading-digit census drifts toward log_b(1 + 1/n) in any base; an
additive walk N(t+1) = xi + N(t) does not. Walker state is kept in log
space to survive long multiplicative runs without overflow.

One classifier takes every census: it reads the leading digit off the
fractional part of log_base(N) and flags walkers whose fractional part
falls within a small guard band of a digit boundary. Flagged walkers are
re-derived exactly, so boundary cases like a constant noise of exactly
the base classify correctly instead of flapping on float rounding: a
multiplicative walker by replaying its noise stream in 50-digit
arithmetic, an additive walker from its stored double. Additive states
that are not positive and finite have no leading digit and count as
exclusions.

Runs are deterministic per seed. The generator is counter-based
(numpy's Philox, 4x64 with 10 rounds) and its name and the numpy version
are pinned into run metadata for cross-platform reproducibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
import numpy as np

from .errors import DomainError, EmptyCensus, InvalidNoise
from .gof import DigitCensus, tvd_benford
from .significand import extract_digits_rational

PRNG_NAME = "numpy.random.Philox (4x64, 10 rounds)"
BOUNDARY_GUARD = 1e-12
_EXACT_DPS = 50
_SNAP = mpmath.mpf("1e-38")

_FAMILIES = {"lognormal": 2, "normal": 2, "uniform": 2, "constant": 1}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family plus parameters: lognormal(mu, sigma), normal(mu, sigma),
    uniform(lo, hi), or constant(c)."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InvalidNoise(f"unknown noise family {self.family!r}")
        if len(self.params) != _FAMILIES[self.family]:
            raise InvalidNoise(
                f"{self.family} takes {_FAMILIES[self.family]} parameters, "
                f"got {len(self.params)}"
            )
        if not all(math.isfinite(p) for p in self.params):
            raise InvalidNoise(f"{self.family} parameters must be finite")
        if self.family == "uniform":
            lo, hi = self.params
            if not 0 < hi - lo < math.inf:
                raise InvalidNoise(
                    "uniform noise requires lo < hi and a finite hi - lo"
                )
        if self.family == "lognormal" and self.params[1] < 0:
            raise InvalidNoise("lognormal sigma must be >= 0")

    @property
    def strictly_positive(self) -> bool:
        if self.family == "lognormal":
            return True
        if self.family == "uniform":
            return self.params[0] > 0
        if self.family == "constant":
            return self.params[0] > 0
        return False

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Parse 'family:p1,p2' as used on the command line."""
        family, _, rest = text.partition(":")
        params = tuple(float(p) for p in rest.split(",") if p.strip()) if rest else ()
        return cls(family.strip(), params)

    def describe(self) -> str:
        return f"{self.family}({', '.join(repr(p) for p in self.params)})"


@dataclass(frozen=True)
class ProcessSpec:
    """One ensemble run: process kind, noise, horizon, size, base, seed."""

    kind: str
    noise: NoiseSpec
    steps: int
    walkers: int
    initial_value: float = 1.0
    base: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("multiplicative", "additive"):
            raise DomainError(f"kind must be multiplicative or additive, got {self.kind!r}")
        if self.steps < 1 or self.walkers < 1:
            raise DomainError("steps and walkers must be >= 1")
        if self.base < 2:
            raise DomainError("base must be >= 2")
        if not math.isfinite(self.initial_value):
            raise DomainError("initial_value must be finite")
        if self.kind == "multiplicative":
            if not self.noise.strictly_positive:
                raise InvalidNoise(
                    f"{self.noise.describe()} can emit values <= 0; "
                    "multiplicative processes need strictly positive noise"
                )
            if self.initial_value <= 0:
                raise DomainError("multiplicative runs need initial_value > 0")

    def metadata(self) -> dict:
        return {
            "kind": self.kind,
            "noise": self.describe_noise(),
            "steps": self.steps,
            "walkers": self.walkers,
            "initial_value": self.initial_value,
            "base": self.base,
            "seed": self.seed,
            "prng": PRNG_NAME,
            "numpy_version": np.__version__,
        }

    def describe_noise(self) -> str:
        return self.noise.describe()


def recorded_steps(spec: ProcessSpec) -> list[int]:
    """Steps at which censuses are taken: every step up to 100, then 100
    evenly spaced checkpoints."""
    if spec.steps <= 100:
        return list(range(1, spec.steps + 1))
    marks = np.linspace(1, spec.steps, 100)
    return sorted(set(int(round(m)) for m in marks))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _raw_step(rng: np.random.Generator, noise: NoiseSpec, size: int):
    """One step's underlying draws (None for draw-free constant noise)."""
    if noise.family in ("lognormal", "normal"):
        return rng.standard_normal(size)
    if noise.family == "uniform":
        lo, hi = noise.params
        return rng.uniform(lo, hi, size)
    return None


def _log_increments(raw, noise: NoiseSpec, size: int) -> np.ndarray:
    """ln(xi) per walker for the multiplicative update."""
    if noise.family == "lognormal":
        mu, sigma = noise.params
        return mu + sigma * raw
    if noise.family == "uniform":
        return np.log(raw)
    c = noise.params[0]
    return np.full(size, math.log(c))


def _increments(raw, noise: NoiseSpec, size: int) -> np.ndarray:
    """xi per walker for the additive update."""
    if noise.family == "lognormal":
        mu, sigma = noise.params
        return np.exp(mu + sigma * raw)
    if noise.family == "normal":
        mu, sigma = noise.params
        return mu + sigma * raw
    if noise.family == "uniform":
        return raw
    return np.full(size, noise.params[0])


def _log_increment_mp(raw_value, noise: NoiseSpec):
    """ln(xi) for one draw, at extended precision."""
    if noise.family == "lognormal":
        mu, sigma = noise.params
        return mpmath.mpf(mu) + mpmath.mpf(sigma) * mpmath.mpf(float(raw_value))
    if noise.family == "uniform":
        return mpmath.log(mpmath.mpf(float(raw_value)))
    return mpmath.log(mpmath.mpf(noise.params[0]))


def _digit_from_fraction_mp(frac, base: int) -> int:
    """Leading digit from an extended-precision fractional log, snapping
    values within the snap tolerance of a boundary onto it."""
    v = mpmath.power(base, frac)
    nearest = int(mpmath.nint(v))
    if 1 <= nearest <= base and abs(v - nearest) < _SNAP:
        return 1 if nearest == base else nearest
    d = int(mpmath.floor(v))
    return min(max(d, 1), base - 1)


def _exact_digits_from_replay(
    spec: ProcessSpec, step: int, indices: np.ndarray
) -> dict[int, int]:
    """Recompute flagged walkers' digits by replaying their noise stream
    and summing ln(xi) at 50-digit precision."""
    out: dict[int, int] = {}
    if len(indices) == 0:
        return out
    with mpmath.workdps(_EXACT_DPS):
        log_base = mpmath.log(spec.base)
        if spec.noise.family == "constant":
            # Every walker shares the same increment; no stream to replay.
            total = (
                mpmath.log(spec.initial_value)
                + step * mpmath.log(mpmath.mpf(spec.noise.params[0]))
            )
            x = total / log_base
            digit = _digit_from_fraction_mp(x - mpmath.floor(x), spec.base)
            return {int(i): digit for i in indices}

        rng = _generator(spec.seed)
        draws: dict[int, list] = {int(i): [] for i in indices}
        for _ in range(step):
            raw = _raw_step(rng, spec.noise, spec.walkers)
            for i in draws:
                draws[i].append(raw[i])
        for i, values in draws.items():
            total = mpmath.log(spec.initial_value) + mpmath.fsum(
                _log_increment_mp(v, spec.noise) for v in values
            )
            x = total / log_base
            out[i] = _digit_from_fraction_mp(x - mpmath.floor(x), spec.base)
    return out


def _census(state: np.ndarray, spec: ProcessSpec, step: int) -> DigitCensus:
    """First-digit census of the walkers' states at one recorded step.

    Multiplicative states are ln-values; additive states are the values,
    of which those that are not positive and finite are excluded. Digits
    come from the fractional part of log_base; a walker within
    BOUNDARY_GUARD of a digit boundary is resolved exactly: by replaying
    its noise for a multiplicative run, from its stored double for an
    additive one.
    """
    base = spec.base
    multiplicative = spec.kind == "multiplicative"
    if multiplicative:
        x = state / math.log(base)
    else:
        state = state[(state > 0) & (state < np.inf)]
        x = np.log(state) / math.log(base)
    frac = x - np.floor(x)
    digits = np.floor(base**frac).astype(np.int64)
    np.clip(digits, 1, base - 1, out=digits)

    # Distance from frac to the log-boundaries enclosing its digit.
    bounds = np.log(np.arange(1, base + 1)) / math.log(base)
    lo_gap = frac - bounds[digits - 1]
    hi_gap = bounds[digits] - frac
    flagged = np.nonzero((lo_gap < BOUNDARY_GUARD) | (hi_gap < BOUNDARY_GUARD))[0]
    if multiplicative:
        for i, d in _exact_digits_from_replay(spec, step, flagged).items():
            digits[i] = d
    else:
        for i in flagged:
            # The stored double is the exact state here; classify it exactly.
            num, den = float(state[i]).as_integer_ratio()
            digits[i] = extract_digits_rational(num, den, 1, base).first

    counts = np.bincount(digits, minlength=base)[1:base]
    excluded = spec.walkers - len(state)
    return DigitCensus(1, base, tuple(int(c) for c in counts), excluded)


def iterate_states(spec: ProcessSpec) -> Iterable[tuple[int, np.ndarray]]:
    """Yield (step, state vector) at each recorded step.

    Multiplicative states are ln-values; additive states are the values
    themselves. With identical seeds, a multiplicative run's states equal
    an additive run's states driven by ln(xi) walker-for-walker.
    """
    record = set(recorded_steps(spec))
    rng = _generator(spec.seed)
    multiplicative = spec.kind == "multiplicative"
    if multiplicative:
        state = np.full(spec.walkers, math.log(spec.initial_value))
    else:
        state = np.full(spec.walkers, float(spec.initial_value))
    for t in range(1, spec.steps + 1):
        raw = _raw_step(rng, spec.noise, spec.walkers)
        if multiplicative:
            state = state + _log_increments(raw, spec.noise, spec.walkers)
        else:
            state = state + _increments(raw, spec.noise, spec.walkers)
        if t in record:
            yield t, state


def run_ensemble(spec: ProcessSpec) -> list[tuple[int, DigitCensus]]:
    """Simulate the ensemble, returning the first-digit census at each
    recorded step. Identical specs (seed included) give identical output."""
    return [(t, _census(state, spec, t)) for t, state in iterate_states(spec)]


def run_ensemble_partitioned(
    spec: ProcessSpec, partitions: int
) -> list[tuple[int, DigitCensus]]:
    """Run the ensemble as independent partitions and merge the censuses.

    Partition sub-seeds derive deterministically from the master seed, so
    a given (spec, partitions) pair is reproducible; the draws differ from
    the single-stream run, the merge contract does not.
    """
    if partitions < 1:
        raise DomainError("partitions must be >= 1")
    if partitions == 1:
        return run_ensemble(spec)
    children = np.random.SeedSequence(spec.seed).spawn(partitions)
    share = [spec.walkers // partitions] * partitions
    for i in range(spec.walkers % partitions):
        share[i] += 1
    merged: dict[int, DigitCensus] = {}
    for child, walkers in zip(children, share):
        if walkers == 0:
            continue
        sub = ProcessSpec(
            kind=spec.kind,
            noise=spec.noise,
            steps=spec.steps,
            walkers=walkers,
            initial_value=spec.initial_value,
            base=spec.base,
            seed=int(child.generate_state(1)[0]),
        )
        for t, census in run_ensemble(sub):
            merged[t] = merged[t].merge(census) if t in merged else census
    return sorted(merged.items())


def convergence_curve(spec: ProcessSpec) -> list[tuple[int, float]]:
    """(step, d1-to-law) rows across the run, ready for plotting.

    Defined for both kinds so additive contrast runs chart on the same
    axes; empty censuses (every walker excluded) are skipped.
    """
    curve = []
    for t, census in run_ensemble(spec):
        try:
            curve.append((t, tvd_benford(census)))
        except EmptyCensus:
            continue
    return curve


def curve_as_csv(spec: ProcessSpec, curve: Sequence[tuple[int, float]]) -> str:
    """CSV rendering with the run metadata (seed, PRNG) in header comments."""
    lines = [f"# {key}={value}" for key, value in spec.metadata().items()]
    lines.append("step,d1")
    lines.extend(f"{step},{d1:.12g}" for step, d1 in curve)
    return "\n".join(lines) + "\n"


def curve_as_json(spec: ProcessSpec, curve: Sequence[tuple[int, float]]) -> str:
    """JSON rendering carrying the same metadata and rows as the CSV form."""
    payload = {
        "meta": spec.metadata(),
        "curve": [{"step": step, "d1": float(f"{d1:.12g}")} for step, d1 in curve],
    }
    return json.dumps(payload, indent=2)
