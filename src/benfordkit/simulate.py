"""Ensemble simulation of multiplicative vs additive random processes.

A multiplicative walk N(t+1) = xi * N(t) is a Brownian walk in log space,
so its leading-digit census drifts toward log_b(1 + 1/n) in any base; an
additive walk N(t+1) = xi + N(t) does not. Walker state is kept in log
space to survive long multiplicative runs without overflow.

One classifier takes every census. It splits [0, 1] into 2**16 equal
cells and reads each walker's leading digit from a per-base table at the
fractional part of log_base(N). A cell that comes within twice the guard
band of a digit boundary is "near" and has no digit; only walkers in near
cells take the pow-and-gap test, which computes the digit with a power and
flags walkers whose fractional part falls within a small guard band of a
digit boundary. Flagged walkers are re-derived exactly, so boundary cases
like a constant noise of exactly the base classify correctly instead of
flapping on float rounding. A
multiplicative walker carries an exact sum of its ln(xi) from the step
it is first flagged on (one replay of the stream catches it up), rounded
once to 50 digits when read, so the cost stays linear in steps; an
additive walker is read from its stored double. Additive states that are
not positive and finite, and multiplicative states at or past 2**52 in
log_base, have no exact leading digit and count as exclusions.

Runs are deterministic per seed. The generator is counter-based
(numpy's Philox, 4x64 with 10 rounds) and its name and the numpy version
are pinned into run metadata for cross-platform reproducibility.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import mpmath
import numpy as np
from mpmath.libmp import fzero, mpf_add

from .errors import DomainError, EmptyCensus, InvalidNoise
from .gof import DigitCensus, tvd_benford
from .significand import extract_digits_rational

PRNG_NAME = "numpy.random.Philox (4x64, 10 rounds)"
BOUNDARY_GUARD = 1e-12
_EXACT_DPS = 50
_SNAP = mpmath.mpf("1e-38")
_LOG_STATE_CAP = 2.0**52
_CELLS = 2**16

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


def _log_increments(raw, noise: NoiseSpec):
    """ln(xi) per walker for the multiplicative update; one shared value
    for constant noise."""
    if noise.family == "lognormal":
        mu, sigma = noise.params
        return mu + sigma * raw
    if noise.family == "uniform":
        return np.log(raw)
    return math.log(noise.params[0])


def _increments(raw, noise: NoiseSpec):
    """xi per walker for the additive update; one shared value for
    constant noise."""
    if noise.family == "lognormal":
        mu, sigma = noise.params
        return np.exp(mu + sigma * raw)
    if noise.family == "normal":
        mu, sigma = noise.params
        return mu + sigma * raw
    if noise.family == "uniform":
        return raw
    return noise.params[0]


def _log_increment_mp(raw_value, noise: NoiseSpec):
    """ln(xi) for one draw, at extended precision."""
    if noise.family == "lognormal":
        mu, sigma = noise.params
        return mpmath.mpf(mu) + mpmath.mpf(sigma) * mpmath.mpf(float(raw_value))
    if noise.family == "uniform":
        return mpmath.log(mpmath.mpf(float(raw_value)))
    return mpmath.log(mpmath.mpf(noise.params[0]))


def _digit_from_log_mp(total, log_base, base: int) -> int:
    """Leading digit of e**total from its extended-precision ln-value,
    snapping values within the snap tolerance of a boundary onto it."""
    x = total / log_base
    v = mpmath.power(base, x - mpmath.floor(x))
    nearest = int(mpmath.nint(v))
    if 1 <= nearest <= base and abs(v - nearest) < _SNAP:
        return 1 if nearest == base else nearest
    d = int(mpmath.floor(v))
    return min(max(d, 1), base - 1)


class _LogSums:
    """Exact running sums of ln(xi) for the flagged walkers of one
    multiplicative run.

    A sum is exact (libmp's add at precision 0 never rounds), so a
    walker's total, ln(x0) plus its sum rounded once at _EXACT_DPS, is
    what mpmath.fsum over its whole noise stream gives. `advance` adds
    each step's term to every walker tracked so far; walkers flagged for
    the first time at a step are caught up together by one replay of the
    stream. Constant noise needs no sums: every total is ln(x0) + step * ln(c).
    """

    def __init__(self, spec: ProcessSpec) -> None:
        self.spec = spec
        self.sums: dict[int, tuple] = {}

    def _add(self, sums: Iterable[tuple], raw: np.ndarray) -> list[tuple]:
        noise = self.spec.noise
        with mpmath.workdps(_EXACT_DPS):
            return [mpf_add(s, _log_increment_mp(v, noise)._mpf_, 0)
                    for s, v in zip(sums, raw.tolist())]

    def advance(self, raw) -> None:
        """Add one step's ln(xi) to every tracked walker's sum."""
        if self.sums:
            walkers = list(self.sums)
            self.sums = dict(zip(walkers, self._add(self.sums.values(), raw[walkers])))

    def _catch_up(self, walkers: list[int], step: int) -> None:
        rng = _generator(self.spec.seed)
        sums = [fzero] * len(walkers)
        for _ in range(step):
            raw = _raw_step(rng, self.spec.noise, self.spec.walkers)
            sums = self._add(sums, raw[walkers])
        self.sums.update(zip(walkers, sums))

    def digits(self, walkers: np.ndarray, step: int):
        """Exact leading digits of `walkers` at `step`: one digit shared by
        all of them for constant noise, else one per walker."""
        spec = self.spec
        with mpmath.workdps(_EXACT_DPS):
            log_x0 = mpmath.log(spec.initial_value)
            log_base = mpmath.log(spec.base)
            if spec.noise.family == "constant":
                total = log_x0 + step * mpmath.log(mpmath.mpf(spec.noise.params[0]))
                return _digit_from_log_mp(total, log_base, spec.base)
            walkers = walkers.tolist()
            new = [i for i in walkers if i not in self.sums]
            if new:
                self._catch_up(new, step)
            return [_digit_from_log_mp(log_x0 + mpmath.mpf(self.sums[i]), log_base,
                                       spec.base) for i in walkers]


@functools.lru_cache(maxsize=8)
def _cell_table(base: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit boundaries log_base(1..base) and the cell table of `base`.

    [0, 1] is split into _CELLS equal cells. A cell's entry is its digit
    when the whole cell lies in one digit interval with at least
    2 * BOUNDARY_GUARD to spare on both sides, else 0 ("near"). One more
    entry, also 0, is the cell of frac == 1.0.
    """
    bounds = np.log(np.arange(1, base + 1)) / math.log(base)
    lo = np.arange(_CELLS) / _CELLS
    hi = lo + 1 / _CELLS
    digits = np.minimum(np.searchsorted(bounds, lo, side="right"), base - 1)
    inside = ((lo - bounds[digits - 1] >= 2 * BOUNDARY_GUARD)
              & (bounds[digits] - hi >= 2 * BOUNDARY_GUARD))
    table = np.zeros(_CELLS + 1, dtype=np.intp)
    table[:_CELLS][inside] = digits[inside]
    # Every caller shares the cached arrays.
    bounds.flags.writeable = table.flags.writeable = False
    return bounds, table


def _census(
    state: np.ndarray, spec: ProcessSpec, step: int, sums: _LogSums
) -> DigitCensus:
    """First-digit census of the walkers' states at one recorded step.

    Multiplicative states are ln-values; additive states are the values.
    Each walker's digit is one read of the cell table at frac, the
    fractional part of log_base(state). Only walkers in near cells take
    the pow-and-gap test: the digit is floor(base**frac), and a walker
    whose frac lies within BOUNDARY_GUARD of a boundary of that digit is
    resolved exactly: from its exact log-sum in `sums` for a
    multiplicative run, from its stored double for an additive one. A cell
    with a digit keeps 2 * BOUNDARY_GUARD from every boundary, so the test
    would give its walkers that digit and flag none of them: every walker
    within the guard band lies in a near cell. Walkers without a
    resolvable digit are excluded: additive states that are not positive
    and finite, and multiplicative states whose log_base is not finite or
    is at least 2**52 in magnitude. Past that cap a double keeps no
    fractional bits of log_base, and the 50-digit total keeps too few for
    the boundary snap, so no digit would be exact.
    """
    base = spec.base
    bounds, table = _cell_table(base)
    multiplicative = spec.kind == "multiplicative"
    if multiplicative:
        frac = state / math.log(base)
    else:
        state = state[(state > 0) & (state < np.inf)]
        frac = np.log(state)
        frac /= math.log(base)
    # frac = x - floor(x), in place, and the cell index is frac * _CELLS
    # cast down, read through the table in place. An infinite or nan state
    # gives a nan frac, whose index clips to an end cell, which is near.
    # `digits` is allocated once the floor's temporary is freed, so that
    # it can take the temporary's memory.
    with np.errstate(invalid="ignore"):
        frac -= np.floor(frac)
        digits = np.empty(len(frac), dtype=np.intp)
        np.multiply(frac, _CELLS, out=digits, casting="unsafe")
    table.take(digits, mode="clip", out=digits)

    # The near walkers; when every walker is near, the arrays serve
    # uncopied.
    near = np.flatnonzero(digits == 0)
    subset = slice(None) if len(near) == len(digits) else near
    frac = frac[subset]
    near_digits = np.empty(len(near), dtype=np.intp)
    with np.errstate(invalid="ignore"):
        # base**frac is at least 1, so the cast floors it.
        np.power(base, frac, out=near_digits, casting="unsafe")
    np.clip(near_digits, 1, base - 1, out=near_digits)

    # Distance from frac to the log-boundaries enclosing its digit; a nan
    # distance counts as inside the guard band.
    gap = bounds.take(near_digits - 1, mode="clip")
    np.subtract(frac, gap, out=gap)
    clear = gap >= BOUNDARY_GUARD
    bounds.take(near_digits, mode="clip", out=gap)
    gap -= frac
    clear &= gap >= BOUNDARY_GUARD
    resolve = ~clear
    if multiplicative:
        # A state past the cap has frac 0 or nan, which puts it in the
        # guard band, so only such walkers take the cap test. One past the
        # cap is excluded, not resolved: its digit becomes 0, which the
        # count below drops.
        maybe = np.flatnonzero(~(frac > 0))
        x = state[near[maybe]] / math.log(base)
        past_cap = maybe[~(np.abs(x) < _LOG_STATE_CAP)]
        near_digits[past_cap] = 0
        resolve[past_cap] = False
        flagged = near[resolve]
        if len(flagged):
            near_digits[resolve] = sums.digits(flagged, step)
    else:
        for i in np.flatnonzero(resolve):
            # The stored double is the exact state here; classify it exactly.
            num, den = float(state[near[i]]).as_integer_ratio()
            near_digits[i] = extract_digits_rational(num, den, 1, base).first
    digits[subset] = near_digits

    counts = tuple(int(c) for c in np.bincount(digits, minlength=base)[1:base])
    return DigitCensus(1, base, counts, spec.walkers - sum(counts))


def _walk(spec: ProcessSpec, each_step: Callable) -> Iterator[tuple[int, np.ndarray]]:
    """The one walk loop: hands every step's raw draws to `each_step` and
    yields (step, state vector) at each recorded step."""
    record = set(recorded_steps(spec))
    rng = _generator(spec.seed)
    if spec.kind == "multiplicative":
        update = _log_increments
        state = np.full(spec.walkers, math.log(spec.initial_value))
    else:
        update = _increments
        state = np.full(spec.walkers, float(spec.initial_value))
    for t in range(1, spec.steps + 1):
        raw = _raw_step(rng, spec.noise, spec.walkers)
        # Overflowing states become inf or nan; the census excludes them.
        with np.errstate(over="ignore", invalid="ignore"):
            state = state + update(raw, spec.noise)
        each_step(raw)
        if t in record:
            yield t, state


def iterate_states(spec: ProcessSpec) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (step, state vector) at each recorded step.

    Multiplicative states are ln-values; additive states are the values
    themselves. With identical seeds, a multiplicative run's states equal
    an additive run's states driven by ln(xi) walker-for-walker.
    """
    return _walk(spec, lambda raw: None)


def run_ensemble(spec: ProcessSpec) -> list[tuple[int, DigitCensus]]:
    """Simulate the ensemble, returning the first-digit census at each
    recorded step. Identical specs (seed included) give identical output."""
    sums = _LogSums(spec)
    return [(t, _census(state, spec, t, sums))
            for t, state in _walk(spec, sums.advance)]


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
