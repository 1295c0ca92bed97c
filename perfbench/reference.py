"""Reference outputs computed without the program under test.

Each function returns the expectation the checker compares an op's exit
status and stdout against. None of them imports benfordkit: leading digits
come from integer arithmetic, Decimal or mpmath, the digit law from its
Gamma-function closed form, and the simulator drift from a separate
re-implementation of the walk over the same documented Philox stream.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np

CHI2_P05 = 15.51
CHI2_P01 = 20.09
_LOG10_2 = math.log10(2)


def benford(base: int = 10) -> list[float]:
    return [math.log(1 + 1 / d) / math.log(base) for d in range(1, base)]


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def analyze_doc(counts: list[int], exclusions: int, meta: dict) -> dict:
    """Expected `analyze --format json` fields and exit status (level 5)."""
    size = sum(counts)
    freqs = [c / size for c in counts]
    law = benford()
    chi2 = size * math.fsum((p - f) ** 2 / p for p, f in zip(law, freqs))
    devs = [abs(f - p) for f, p in zip(freqs, law)]
    d_max = max(devs)
    return {
        "kind": "analyze",
        "exit": 0 if chi2 <= CHI2_P05 else 2,
        "doc": {
            "meta": {**meta, "seed": None, "position": 1, "base": 10,
                     "digits": list(range(1, 10))},
            "counts": counts,
            "exclusions": exclusions,
            "observed": [_round12(f) for f in freqs],
            "expected": [_round12(p) for p in law],
            "chi_square": _round12(chi2),
            "df": 8,
            "critical": {"p05": CHI2_P05, "p01": CHI2_P01},
            "d1": _round12(0.5 * math.fsum(devs)),
            "d_max": _round12(d_max),
            "d_max_digit": devs.index(d_max) + 1,
            "verdict": {"p05": "accept" if chi2 <= CHI2_P05 else "reject",
                        "p01": "accept" if chi2 <= CHI2_P01 else "reject"},
        },
    }


def rows_expect(header: str, rows: list[list], exit_code: int = 0,
                meta: dict | None = None) -> dict:
    return {"kind": "rows", "exit": exit_code, "header": header, "rows": rows,
            "meta": meta or {}}


# ---------------------------------------------------------------- series

def decimal_exponent(v: int, pow10=lambda k: 10**k) -> int:
    """k with 10**k <= v < 10**(k+1), for v > 0, from the bit length."""
    k = int((v.bit_length() - 1) * _LOG10_2)
    while pow10(k + 1) <= v:
        k += 1
    while pow10(k) > v:
        k -= 1
    return k


class LeadingDigit:
    """Leading digit of a positive integer without str(): base 16 by shift,
    base 10 by one division by a cached power of ten."""

    def __init__(self, base: int):
        self.base = base
        self._pow10: dict[int, int] = {}

    def __call__(self, v: int) -> int:
        if self.base == 16:
            return v >> (4 * ((v.bit_length() - 1) // 4))
        return v // self._pow(decimal_exponent(v, self._pow))

    def _pow(self, k: int) -> int:
        p = self._pow10.get(k)
        if p is None:
            p = self._pow10[k] = 10**k
        return p


def _fibonacci(a1: int, a2: int, terms: int):
    x, y = a1, a2
    for _ in range(terms):
        yield x
        x, y = y, x + y


def _factorials(n: int):
    f = 1
    for i in range(1, n + 1):
        f *= i
        yield f


def _pascal(rows: int):
    for n in range(rows):
        row = [1]
        for r in range(n):
            row.append(row[-1] * (n - r) // (r + 1))
        yield from row


def _prime_digit_counts(below: int, base: int) -> np.ndarray:
    sieve = np.ones(below, dtype=bool)
    sieve[:2] = False
    sieve[4::2] = False
    for p in range(3, math.isqrt(below - 1) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = False
    lead = np.flatnonzero(sieve)
    while (lead >= base).any():
        lead = np.where(lead >= base, lead // base, lead)
    return np.bincount(lead, minlength=base)[1:]


def _alpha_digits(ratio: Fraction, n: int, base: int):
    """Leading digits of ratio**1..n from n*log_b(ratio) at 60 digits.

    The fractional part is compared with the thresholds log_b(d); a term
    closer than 1e-40 to one would be resolved exactly, which no term of
    the workload needs.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        ln_b = Decimal(base).ln()
        step = (Decimal(ratio.numerator).ln() - Decimal(ratio.denominator).ln()) / ln_b
        bounds = [Decimal(d).ln() / ln_b for d in range(1, base)]
        x = Decimal(0)
        for k in range(1, n + 1):
            x += step
            frac = x - int(x)
            if min(abs(frac - b) for b in bounds) < Decimal("1e-40"):
                num, den = ratio.numerator**k, ratio.denominator**k
                yield LeadingDigit(base)(num // den)
                continue
            yield sum(1 for b in bounds if b <= frac)


def series_census(kind: str, params: dict, base: int) -> list[int]:
    """First-digit counts over 1..base-1 of one `generate` op."""
    counts = [0] * (base - 1)
    if kind == "primes":
        return [int(c) for c in _prime_digit_counts(params["below"], base)]
    lead = LeadingDigit(base)
    if kind == "fibonacci":
        digits = map(lead, _fibonacci(params["a1"], params["a2"], params["terms"]))
    elif kind == "factorial":
        digits = map(lead, _factorials(params["n"]))
    elif kind == "power-n":
        digits = (lead(i ** params["k"]) for i in range(1, params["n"] + 1))
    elif kind == "pascal":
        digits = map(lead, _pascal(params["rows"]))
    elif kind == "power-alpha":
        digits = _alpha_digits(Fraction(params["alpha"]), params["n"], base)
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    for d in digits:
        counts[d - 1] += 1
    return counts


# -------------------------------------------------------------- simulate

_LOG10_DIGITS = np.log10(np.arange(1, 11))


def digits_and_gaps(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading digits of 10**x, and each one's distance in log10 to the
    nearer boundary of its digit."""
    frac = x - np.floor(x)
    digits = np.clip(np.floor(10.0**frac).astype(np.int64), 1, 9)
    gap = np.minimum(frac - _LOG10_DIGITS[digits - 1], _LOG10_DIGITS[digits] - frac)
    return digits, gap


def _d1_rows(counts_per_step: list[np.ndarray], base: int) -> list[list]:
    law = benford(base)
    rows = []
    for step, counts in enumerate(counts_per_step, start=1):
        size = int(counts.sum())
        d1 = 0.5 * math.fsum(abs(c / size - p) for c, p in zip(counts.tolist(), law))
        rows.append([step, d1])
    return rows


def drift_curve(kind: str, noise: str, walkers: int, steps: int, seed: int) -> list[list]:
    """(step, d1) rows of a base-10 drift run with initial value 1:
    `mult` with lognormal noise or `add` with uniform noise.

    Draws follow the program's documented stream: one Philox(seed)
    generator, one vector of `walkers` draws per step. Digits come from
    the fractional part of log10; a walker within 1e-9 of a digit boundary
    is resolved exactly instead.
    """
    family, _, args = noise.partition(":")
    a, b = (float(x) for x in args.split(","))
    if (kind, family) not in (("mult", "lognormal"), ("add", "uniform")):
        raise ValueError(f"unsupported drift {kind} {noise!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    state = np.zeros(walkers) if kind == "mult" else np.ones(walkers)
    per_step = []
    for t in range(1, steps + 1):
        if kind == "mult":
            state = state + (a + b * rng.standard_normal(walkers))
            x = state / math.log(10)
        else:
            state = state + rng.uniform(a, b, walkers)
            x = np.log10(state)
        digits, gap = digits_and_gaps(x)
        for i in np.flatnonzero(gap < 1e-9):
            if kind == "mult":
                digits[i] = _replayed_digit(seed, walkers, t, i, a, b)
            else:
                # An additive state is the stored double itself, and >= 1.
                digits[i] = LeadingDigit(10)(int(state[i]))
        per_step.append(np.bincount(digits, minlength=10)[1:])
    return _d1_rows(per_step, 10)


def _replayed_digit(seed: int, walkers: int, t: int, i: int, mu: float, sigma: float) -> int:
    """Digit of lognormal walker i after t steps, from its draws summed at
    50 digits."""
    rng = np.random.Generator(np.random.Philox(seed))
    raws = [rng.standard_normal(walkers)[i] for _ in range(t)]
    with mpmath.workdps(50):
        total = mpmath.fsum(mpmath.mpf(mu) + mpmath.mpf(sigma) * mpmath.mpf(float(r))
                            for r in raws)
        x = total / mpmath.log(10)
        return int(mpmath.floor(mpmath.power(10, x - mpmath.floor(x))))


def boundary_curve(noise: str, walkers: int, steps: int) -> list[list]:
    """(step, d1) rows of a multiplicative run whose every walker takes
    the same factor each step: `constant:c`, or `lognormal:mu,0`.

    A rational constant is powered exactly; exp(mu*t) is resolved at 50
    digits, where its distance to the nearest digit boundary is many
    orders of magnitude above the working precision.
    """
    family, _, args = noise.partition(":")
    params = [float(x) for x in args.split(",")]
    lead = LeadingDigit(10)
    per_step = []
    for t in range(1, steps + 1):
        if family == "constant" and params[0] >= 1:
            # The leading digit of a value >= 1 is that of its integer part.
            digit = lead(int(Fraction(params[0]) ** t))
        elif family == "lognormal" and params[1] == 0:
            with mpmath.workdps(50):
                x = t * mpmath.mpf(params[0]) / mpmath.log(10)
                digit = int(mpmath.floor(mpmath.power(10, x - mpmath.floor(x))))
        else:
            raise ValueError(f"unsupported boundary noise {noise!r}")
        counts = np.zeros(9, dtype=np.int64)
        counts[digit - 1] = walkers
        per_step.append(counts)
    return _d1_rows(per_step, 10)


# ------------------------------------------------------------------- law

def marginal(k: int) -> list[float]:
    """P(digit at position k = d), d = 0..9 (1..9 at k = 1).

    Products over the arithmetic progression of prefixes telescope into
    Gamma ratios: with lo = 10**(k-2) and hi = 10**(k-1),
    P_k(d) = [lnG(hi+(d+1)/10) - lnG(lo+(d+1)/10) - lnG(hi+d/10) + lnG(lo+d/10)] / ln 10.
    """
    if k == 1:
        return benford()
    lo, hi = 10 ** (k - 2), 10 ** (k - 1)
    with mpmath.workdps(20 + 3 * k):
        g = mpmath.loggamma
        out = []
        for d in range(10):
            a, b = mpmath.mpf(d) / 10, mpmath.mpf(d + 1) / 10
            p = (g(hi + b) - g(lo + b) - g(hi + a) + g(lo + a)) / mpmath.log(10)
            out.append(float(p))
    return out


def moments(k: int) -> tuple[float, float]:
    probs = marginal(k)
    digits = range(1, 10) if k == 1 else range(10)
    mean = math.fsum(d * p for d, p in zip(digits, probs))
    second = math.fsum(d * d * p for d, p in zip(digits, probs))
    return mean, second - mean * mean


def tvd(k: int) -> float:
    probs = marginal(k)
    u = 1 / len(probs)
    return 0.5 * math.fsum(abs(p - u) for p in probs)


def correlations(max_j: int) -> dict[tuple[int, int], float]:
    """Digit correlations for 1 <= i < j <= max_j, from the joint law of
    the first max_j digits enumerated in one pass."""
    m = np.arange(10 ** (max_j - 1), 10**max_j, dtype=np.int64)
    p = np.log1p(1.0 / m) / math.log(10)
    digit = {i: ((m // 10 ** (max_j - i)) % 10).astype(np.float64)
             for i in range(1, max_j + 1)}
    e = {i: math.fsum((p * digit[i]).tolist()) for i in digit}
    e2 = {i: math.fsum((p * digit[i] ** 2).tolist()) for i in digit}
    out = {}
    for i in range(1, max_j):
        for j in range(i + 1, max_j + 1):
            cov = math.fsum((p * digit[i] * digit[j]).tolist()) - e[i] * e[j]
            out[(i, j)] = cov / math.sqrt((e2[i] - e[i] ** 2) * (e2[j] - e[j] ** 2))
    return out
