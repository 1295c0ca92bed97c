"""References for the simulator's census, for differential tests.

`census` is the pow-and-gap classifier applied to every walker: the
digit is floor(base**frac) of the fractional part of log_base, and a
walker within BOUNDARY_GUARD of a digit boundary is flagged and resolved
exactly. `benfordkit.simulate._census` reads most digits from a cell
table instead and must give the same digits and flag the same walkers.

Each flagged walker's noise stream is replayed from step 0 and its ln(xi)
summed with mpmath.fsum at 50 digits, at every recorded step; the walk
is a plain loop over the documented Philox stream. Each noise family's
draws and increments are written out here, not read from the family
table `simulate._NOISE`. The cost is quadratic in steps.
`benfordkit.simulate` carries exact running sums instead and must give
the same digits.
"""

import math

import mpmath
import numpy as np

from benfordkit.gof import DigitCensus
from benfordkit.significand import extract_digits_rational
from benfordkit.simulate import (
    BOUNDARY_GUARD,
    _LOG_STATE_CAP,
    NoiseSpec,
    ProcessSpec,
    _census,
    recorded_steps,
)

EXACT_DPS = 50
SNAP = mpmath.mpf("1e-38")


def census(state: np.ndarray, spec: ProcessSpec, step: int, sums) -> DigitCensus:
    """`simulate._census` with the pow-and-gap test run on every walker."""
    base = spec.base
    multiplicative = spec.kind == "multiplicative"
    if multiplicative:
        x = state / math.log(base)
    else:
        state = state[(state > 0) & (state < np.inf)]
        x = np.log(state) / math.log(base)
    # An infinite or nan state gives a nan frac and a meaningless digit.
    with np.errstate(invalid="ignore"):
        frac = x - np.floor(x)
        digits = np.floor(base**frac).astype(np.int64)
    np.clip(digits, 1, base - 1, out=digits)

    # Distance from frac to the log-boundaries enclosing its digit; a nan
    # distance counts as inside the guard band.
    bounds = np.log(np.arange(1, base + 1)) / math.log(base)
    lo_gap = frac - bounds[digits - 1]
    hi_gap = bounds[digits] - frac
    flagged = np.nonzero(~((lo_gap >= BOUNDARY_GUARD) & (hi_gap >= BOUNDARY_GUARD)))[0]
    if multiplicative:
        # A state past the cap has frac 0 or nan, so it is flagged; its
        # digit becomes 0, which the count below drops.
        past_cap = ~(np.abs(x[flagged]) < _LOG_STATE_CAP)
        digits[flagged[past_cap]] = 0
        flagged = flagged[~past_cap]
        if len(flagged):
            digits[flagged] = sums.digits(flagged, step)
    else:
        for i in flagged:
            # The stored double is the exact state here; classify it exactly.
            num, den = float(state[i]).as_integer_ratio()
            digits[i] = extract_digits_rational(num, den, 1, base).first

    counts = tuple(int(c) for c in np.bincount(digits, minlength=base)[1:base])
    return DigitCensus(1, base, counts, spec.walkers - sum(counts))


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


def _log_increment_mp(raw_value, noise):
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
    if 1 <= nearest <= base and abs(v - nearest) < SNAP:
        return 1 if nearest == base else nearest
    d = int(mpmath.floor(v))
    return min(max(d, 1), base - 1)


def exact_digits_from_replay(
    spec: ProcessSpec, step: int, indices: np.ndarray
) -> dict[int, int]:
    """Digits of walkers `indices` at `step`, by replaying their noise
    stream and summing ln(xi) at 50-digit precision."""
    out: dict[int, int] = {}
    if len(indices) == 0:
        return out
    with mpmath.workdps(EXACT_DPS):
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


class ReplaySums:
    """Stands in for `simulate._LogSums` in `simulate._census`, resolving
    flagged walkers by replay. `flagged` records the walkers it was asked
    for at each step."""

    def __init__(self, spec: ProcessSpec) -> None:
        self.spec = spec
        self.flagged: dict[int, list[int]] = {}

    def digits(self, walkers: np.ndarray, step: int) -> list[int]:
        self.flagged[step] = [int(i) for i in walkers]
        exact = exact_digits_from_replay(self.spec, step, walkers)
        return [exact[i] for i in self.flagged[step]]


def states(spec: ProcessSpec):
    """(step, state vector) at each recorded step, from one loop over the
    Philox stream."""
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
            state = state + _log_increments(raw, spec.noise)
        else:
            state = state + _increments(raw, spec.noise)
        if t in record:
            yield t, state


def run_ensemble(spec: ProcessSpec, sums: ReplaySums | None = None):
    """Census at each recorded step, flagged walkers resolved by replay."""
    sums = sums or ReplaySums(spec)
    return [(t, _census(state, spec, t, sums)) for t, state in states(spec)]
