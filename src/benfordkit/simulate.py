"""Ensemble simulation of multiplicative vs additive random processes.

A multiplicative walk N(t+1) = xi * N(t) is a Brownian walk in log space,
so its leading-digit census drifts toward log_b(1 + 1/n) in any base; an
additive walk N(t+1) = xi + N(t) does not. Walker state is kept in log
space to survive long multiplicative runs without overflow. Each noise
family, with its rules, draw and increments, is one row of `_NOISE`.

Every census reads log_base(N) with `significand._log_digits` under
BOUNDARY_GUARD and re-derives exactly the walkers it leaves unsure, so
boundary cases like a constant noise of exactly the base classify
correctly instead of flapping on float rounding. A multiplicative walker
carries an exact integer sum of its ln(xi) from the step it is first
flagged on (one replay of the stream catches it up), so the cost stays
linear in steps; an additive walker is read from its stored double.
States with no exact leading digit count as exclusions (`_census` says
which).

Runs are deterministic per seed. The generator is counter-based
(numpy's Philox, 4x64 with 10 rounds) and its name and the numpy version
are pinned into run metadata for cross-platform reproducibility. While a
step is updated and counted, one helper thread draws the next step into
the other of two buffers; the draws come from the one generator in the
same order, so the stream and every output are those of a serial run.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from decimal import Context, Decimal
from itertools import cycle, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvalidNoise
from .gof import DigitCensus, tvd_benford
from .significand import _log_digits, check_base, extract_digits_rational

PRNG_NAME = "numpy.random.Philox (4x64, 10 rounds)"
BOUNDARY_GUARD = 1e-12
_LOG_STATE_CAP = 2.0**52
_SCALE = 256  # exact log-sums are integers in units of 2**-_SCALE
_SNAP = (1 << _SCALE) // 10**38  # an exact digit snaps onto a boundary within 1e-38
_LN_CONTEXT = Context(prec=100)  # read by _ln alone


def _ln(x: float) -> int:
    """ln(x) of a positive double in units of 2**-_SCALE, to nearest: the
    simulator's one high-precision log. Its two roundings to 100 digits
    move the result by less than 1e-19 of a unit."""
    ctx = _LN_CONTEXT
    return int(ctx.to_integral_value(ctx.multiply(ctx.ln(Decimal(x)), 1 << _SCALE)))


def _lognormal_term(v: float, mu: float, sigma: float) -> int:
    """The exact rational mu + sigma * v in units of 2**-_SCALE, to nearest."""
    (a, b), (c, d), (e, f) = (x.as_integer_ratio() for x in (mu, sigma, v))
    return (((a * d * f + c * e * b) << (_SCALE + 1)) // (b * d * f) + 1) >> 1


def _uniform(rng: np.random.Generator, out: np.ndarray, lo: float, hi: float) -> None:
    """rng.uniform(lo, hi, len(out)) into `out`: numpy's lo + (hi - lo) * u
    from the same doubles u, so the two agree bit for bit."""
    rng.random(out=out)
    out *= hi - lo
    out += lo


class _Noise(NamedTuple):
    """One noise family. Each callable takes the arguments shown, then the
    family's parameters in the order of `params`."""

    params: tuple[str, ...]
    positive: Callable[..., bool]  # () -> every xi > 0, as multiplicative runs need
    draw: Callable | None  # (rng, out) fills `out` with one step's draws; None: one shared xi
    xi: Callable  # (raw) -> xi, the additive increment
    ln_xi: Callable | None = None  # (raw) -> ln(xi), the multiplicative increment
    ln_xi_fixed: Callable | None = None  # (one draw) -> ln(xi) in units of 2**-_SCALE
    rule: Callable[..., str | None] = lambda *params: None  # () -> error or None


_NOISE = {
    "lognormal": _Noise(
        ("mu", "sigma"),
        rule=lambda mu, sigma: "lognormal sigma must be >= 0" if sigma < 0 else None,
        positive=lambda mu, sigma: True,
        draw=lambda rng, out, mu, sigma: rng.standard_normal(out=out),
        xi=lambda raw, mu, sigma: np.exp(mu + sigma * raw),
        ln_xi=lambda raw, mu, sigma: mu + sigma * raw,
        ln_xi_fixed=_lognormal_term,
    ),
    "normal": _Noise(
        ("mu", "sigma"),
        positive=lambda mu, sigma: False,
        draw=lambda rng, out, mu, sigma: rng.standard_normal(out=out),
        xi=lambda raw, mu, sigma: mu + sigma * raw,
    ),
    "uniform": _Noise(
        ("lo", "hi"),
        rule=lambda lo, hi: None if 0 < hi - lo < math.inf
        else "uniform noise requires lo < hi and a finite hi - lo",
        positive=lambda lo, hi: lo > 0,
        draw=_uniform,
        xi=lambda raw, lo, hi: raw,
        ln_xi=lambda raw, lo, hi: np.log(raw),
        ln_xi_fixed=lambda v, lo, hi: _ln(v),
    ),
    "constant": _Noise(
        ("c",),
        positive=lambda c: c > 0,
        draw=None,
        xi=lambda raw, c: c,
        ln_xi=lambda raw, c: math.log(c),
    ),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family plus parameters; the families and what their
    parameters mean are the rows of the family table `_NOISE`."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        row = _NOISE.get(self.family)
        if row is None:
            raise InvalidNoise(f"unknown noise family {self.family!r}")
        if len(self.params) != len(row.params):
            raise InvalidNoise(f"{self.family} takes {len(row.params)} parameters, "
                               f"got {len(self.params)}")
        if not all(math.isfinite(p) for p in self.params):
            raise InvalidNoise(f"{self.family} parameters must be finite")
        problem = row.rule(*self.params)
        if problem:
            raise InvalidNoise(problem)

    @property
    def strictly_positive(self) -> bool:
        return _NOISE[self.family].positive(*self.params)

    @classmethod
    def parse(cls, text: str) -> "NoiseSpec":
        """Parse 'family:p1,p2' as used on the command line; every
        comma-separated field must be a number."""
        family, _, rest = text.partition(":")
        params = []
        for i, field in enumerate(rest.split(",") if rest else [], start=1):
            try:
                params.append(float(field))
            except ValueError:
                raise InvalidNoise(
                    f"noise {text!r}: parameter {i} is not a number: {field!r}") from None
        return cls(family.strip(), tuple(params))

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
        check_base(self.base)
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
            "noise": self.noise.describe(),
            "steps": self.steps,
            "walkers": self.walkers,
            "initial_value": self.initial_value,
            "base": self.base,
            "seed": self.seed,
            "prng": PRNG_NAME,
            "numpy_version": np.__version__,
        }


def recorded_steps(spec: ProcessSpec) -> list[int]:
    """Steps at which censuses are taken: every step up to 100, then 100
    evenly spaced checkpoints."""
    if spec.steps <= 100:
        return list(range(1, spec.steps + 1))
    marks = np.linspace(1, spec.steps, 100)
    return sorted(set(int(round(m)) for m in marks))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _draws(spec: ProcessSpec) -> Iterator[np.ndarray | None]:
    """Each step's raw draws, in step order and without end, from a new
    generator on the run's seed; None at every step of a draw-free family.
    The walk and every catch-up replay read this one stream. It fills two
    (walkers,) buffers of its own in turn, so a yielded array stays valid
    until the second `next()` after it."""
    rng = _generator(spec.seed)
    family, params = _NOISE[spec.noise.family], spec.noise.params
    if family.draw is None:
        yield from repeat(None)
    for out in cycle(np.empty((2, spec.walkers))):
        family.draw(rng, out, *params)
        yield out


def _draws_ahead(spec: ProcessSpec) -> Iterator[np.ndarray | None]:
    """The first `spec.steps` items of `_draws(spec)`. For a drawing family,
    one helper thread draws step t + 1 while the caller works on step t, so
    the draw overlaps numpy passes that release the GIL too. Step t + 2
    refills step t's buffer only once the caller has asked for step t + 1,
    and so is done with step t. A draw-free family starts no thread."""
    draws = _draws(spec)
    if _NOISE[spec.noise.family].draw is None:
        yield from islice(draws, spec.steps)
        return
    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(next, draws)
        for t in range(1, spec.steps + 1):
            raw = pending.result()  # re-raises a draw's own exception
            if t < spec.steps:
                pending = helper.submit(next, draws)
            yield raw


class _LogSums:
    """Exact running sums of ln(xi) for the flagged walkers of one
    multiplicative run, as integers in units of 2**-_SCALE.

    Each term is rounded once and the sums are exact. `advance` adds each
    step's term to every walker tracked so far; walkers flagged for the
    first time at a step are caught up together by one replay of the
    stream. A draw-free family needs no sums: its one xi is shared, and
    every total is ln(x0) + step * ln(xi).
    """

    def __init__(self, spec: ProcessSpec) -> None:
        self.spec = spec
        self.family = _NOISE[spec.noise.family]
        self.sums: dict[int, int] = {}
        self.bounds: dict[int, int] = {}  # d -> ln d - 1e-38 / d, on demand
        if spec.kind == "multiplicative":  # an additive run's x0 may be <= 0
            self.log_x0, self.log_base = _ln(spec.initial_value), _ln(spec.base)
            self.shared_log = None if self.family.draw else _ln(
                self.family.xi(None, *spec.noise.params))

    def _add(self, sums: Iterable[int], raw: np.ndarray) -> list[int]:
        term, params = self.family.ln_xi_fixed, self.spec.noise.params
        return [s + term(v, *params) for s, v in zip(sums, raw.tolist())]

    def advance(self, raw) -> None:
        """Add one step's ln(xi) to every tracked walker's sum."""
        if self.sums:
            walkers = list(self.sums)
            self.sums = dict(zip(walkers, self._add(self.sums.values(), raw[walkers])))

    def _catch_up(self, walkers: list[int], step: int) -> None:
        sums = [0] * len(walkers)
        for raw in islice(_draws(self.spec), step):
            sums = self._add(sums, raw[walkers])
        self.sums.update(zip(walkers, sums))

    def _bound(self, d: int) -> int:
        if d not in self.bounds:
            self.bounds[d] = _ln(d) - _SNAP // d
        return self.bounds[d]

    def _digit(self, total: int) -> int:
        """Leading digit of e**total: d when bound(d) <= r < bound(d + 1) for
        r = total mod ln(base) and bound(d) = ln d - 1e-38 / d, so a value
        within 1e-38 of d reads d; d = base reads 1. The float digit of r
        starts the search."""
        base = self.spec.base
        r = total % self.log_base
        d = min(max(int(math.exp(r / (1 << _SCALE))), 1), base - 1)
        while r < self._bound(d):
            d -= 1
        while d < base and r >= self._bound(d + 1):
            d += 1
        return 1 if d == base else d

    def digits(self, walkers: np.ndarray, step: int):
        """Exact leading digits of `walkers` at `step`: one digit shared by
        all of them for a draw-free family, else one per walker."""
        if self.shared_log is not None:
            return self._digit(self.log_x0 + step * self.shared_log)
        walkers = walkers.tolist()
        new = [i for i in walkers if i not in self.sums]
        if new:
            self._catch_up(new, step)
        return [self._digit(self.log_x0 + self.sums[i]) for i in walkers]


@functools.lru_cache(maxsize=8)
def _state_cap(base: int) -> float:
    """The least double s with fl(s / ln base) >= _LOG_STATE_CAP. As
    fl(s / ln base) grows with s, |s| < it exactly when |s / ln base| <
    _LOG_STATE_CAP, and the census tests that with no division."""
    ln_base = math.log(base)
    s = _LOG_STATE_CAP * ln_base
    while s / ln_base >= _LOG_STATE_CAP:
        s = math.nextafter(s, 0.0)
    while s / ln_base < _LOG_STATE_CAP:
        s = math.nextafter(s, math.inf)
    return s


def _census(
    state: np.ndarray, spec: ProcessSpec, step: int, sums: _LogSums
) -> DigitCensus:
    """First-digit census of the walkers' states at one recorded step.

    Multiplicative states are ln-values; additive states are the values.
    `_log_digits` reads x = log_base(state) under BOUNDARY_GUARD; unsure
    walkers are resolved exactly, from `sums` or from the stored double.
    Excluded are additive states that are not positive and finite, and
    multiplicative states whose x is not finite or reaches 2**52 in
    magnitude, where a double keeps no fractional bits to place them by.
    """
    base, ln_base = spec.base, math.log(spec.base)
    if spec.kind == "multiplicative":
        # A state past the largest double times ln 2 overflows to an infinite
        # x in base 2, which the cap below excludes.
        with np.errstate(over="ignore"):
            x = state / ln_base
        digits, unsure = _log_digits(x, base, BOUNDARY_GUARD)
        # Only unsure walkers can be past the cap (their f is 0 or nan); one
        # past it keeps the digit 0, which the count below drops.
        unsure = unsure[np.abs(state[unsure]) < _state_cap(base)]
        if len(unsure):
            digits[unsure] = sums.digits(unsure, step)
    else:
        # A state that is not positive and finite has a nan or infinite x,
        # which `_log_digits` never certifies: it keeps the digit 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.log(state)
        x /= ln_base
        digits, unsure = _log_digits(x, base, BOUNDARY_GUARD)
        kept = state[unsure]
        for i in unsure[(kept > 0) & (kept < np.inf)].tolist():
            # The stored double is the exact state here; classify it exactly.
            num, den = float(state[i]).as_integer_ratio()
            digits[i] = extract_digits_rational(num, den, 1, base).first

    counts = tuple(np.bincount(digits, minlength=base)[1:base].tolist())
    return DigitCensus(1, base, counts, spec.walkers - sum(counts))


def _walk(spec: ProcessSpec, each_step: Callable) -> Iterator[tuple[int, np.ndarray]]:
    """The one walk loop: hands every step's raw draws to `each_step` and
    yields (step, state vector) at each recorded step."""
    record = set(recorded_steps(spec))
    family, params = _NOISE[spec.noise.family], spec.noise.params
    multiplicative = spec.kind == "multiplicative"
    update = family.ln_xi if multiplicative else family.xi
    x0 = math.log(spec.initial_value) if multiplicative else float(spec.initial_value)
    state = np.full(spec.walkers, x0)
    # closing() ends the helper thread as soon as the walk ends, also when
    # the caller closes it early.
    with closing(_draws_ahead(spec)) as raws:
        for t, raw in enumerate(raws, 1):
            # Overflowing states become inf or nan; the census excludes them.
            with np.errstate(over="ignore", invalid="ignore"):
                state = state + update(raw, *params)
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


def convergence_curve(spec: ProcessSpec) -> list[tuple[int, float]]:
    """(step, d1-to-law) rows across the run, ready for plotting.

    Defined for both kinds so additive contrast runs chart on the same
    axes; empty censuses (every walker excluded) are skipped.
    """
    return [(t, tvd_benford(census)) for t, census in run_ensemble(spec)
            if census.sample_size]


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
