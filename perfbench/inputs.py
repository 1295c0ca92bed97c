"""Seeded input generators for the `screen` workload.

Every generator takes the workload seed and returns the file's bytes plus
its ground truth: the leading digit of each value it wrote and how many
values the scanner must exclude. The ground truth is known by construction
(each number is written from a chosen leading digit), so the reference
census never goes through the program under test.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

PRNG_NAME = "random.Random (MT19937)"

_WORDS = (
    "the of and rate total report budget revenue cost growth units market "
    "share index quarter annual net gross margin volume price output level "
    "sample survey region figure table rose fell to from by with per about "
    "nearly over under estimate series value count population energy mass"
).split()
_NOTES = ("paid", "pending review", "n/a", "-", "", "refund issued", "late fee",
          "see memo", "ok", "disputed")
_YEAR_SHAPE = re.compile(r"\d{4}")
_BENFORD = [math.log10(1 + 1 / d) for d in range(1, 10)]


@dataclass
class GroundTruth:
    """Expected first-digit census of one generated input."""

    counts: list[int] = field(default_factory=lambda: [0] * 9)
    exclusions: int = 0
    items: int = 0  # values the op reads: tokens, or table cells

    def count(self, digit: int) -> None:
        self.counts[digit - 1] += 1
        self.items += 1

    def exclude(self) -> None:
        self.exclusions += 1
        self.items += 1


def _lead(rng: random.Random) -> int:
    return rng.choices(range(1, 10), weights=_BENFORD)[0]


def _digits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("0123456789") for _ in range(n))


def _mantissa(rng: random.Random, d: int, n: int, exp: int) -> str:
    """`d.` and n more digits. Exact negative powers of ten (1.00e-25) are
    left to the `powers` op, which isolates the defect they trigger."""
    tail = _digits(rng, n)
    if exp < 0 and d == 1 and not tail.strip("0"):
        tail = tail[:-1] + str(rng.randrange(1, 10))
    return f"{d}.{tail}"


def _number(rng: random.Random) -> tuple[str, int]:
    """A numeric token and its leading significant digit (0 for a zero)."""
    d = _lead(rng)
    kind = rng.random()
    if kind < 0.05:
        return rng.choice(("0", "0.0", "0.00", "0e5", "-0.0")), 0
    if kind < 0.30:
        n = rng.choice((0, 1, 2, 4, 5, 6))
        text = f"{d}{_digits(rng, n)}"
    elif kind < 0.55:
        if rng.random() < 0.4:
            text = f"0.{'0' * rng.randrange(3)}{d}{_digits(rng, rng.randrange(1, 4))}"
        else:
            text = f"{d}{_digits(rng, rng.randrange(3))}.{_digits(rng, rng.randrange(1, 4))}"
    elif kind < 0.75:
        exp = rng.randrange(-99, 100)
        sign = rng.choice(("", "+")) if exp >= 0 else ""
        text = f"{_mantissa(rng, d, rng.randrange(1, 4), exp)}{rng.choice('eE')}{sign}{exp}"
    else:
        groups = ",".join(_digits(rng, 3) for _ in range(rng.randrange(1, 3)))
        text = f"{d}{_digits(rng, rng.randrange(3))},{groups}"
        if rng.random() < 0.3:
            text += f".{_digits(rng, 2)}"
    if rng.random() < 0.1:
        text = "-" + text
    return text, d


def text_corpus(seed: int, target_bytes: int) -> tuple[bytes, GroundTruth]:
    """Prose with numbers, for `analyze --separators --skip-shape '\\d{4}'`.

    Besides plain, scientific and comma-grouped numbers it holds 4-digit
    years (excluded by the skip shape), zeros (excluded, no leading digit)
    and tokens glued to letters: `v2.0` and `A4` are not numbers, while in
    `x-5` only the sign touches the word, so `5` still counts.
    """
    rng = random.Random(seed)
    truth = GroundTruth()
    lines: list[str] = []
    size = 0
    while size < target_bytes:
        parts = []
        for _ in range(rng.randrange(8, 16)):
            r = rng.random()
            if r < 0.62:
                parts.append(rng.choice(_WORDS))
            elif r < 0.66:
                year = str(rng.randrange(1900, 2030))
                parts.append(year)
                truth.exclude()
            elif r < 0.70:
                glued = rng.choice(("v{}.0", "A{}", "rev{}.1", "{}D"))
                parts.append(glued.format(rng.randrange(1, 10)))
            elif r < 0.72:
                d = rng.randrange(1, 10)
                parts.append(f"x-{d}")
                truth.count(d)
            else:
                text, d = _number(rng)
                if d == 0 or _YEAR_SHAPE.fullmatch(text):
                    truth.exclude()
                else:
                    truth.count(d)
                punct = rng.random()
                if punct < 0.1:
                    text = f"({text})"
                elif punct < 0.25:
                    text += rng.choice((",", ".", ";"))
                parts.append(text)
        line = " ".join(parts)
        lines.append(line)
        size += len(line) + 1
    return ("\n".join(lines) + "\n").encode(), truth


def table_csv(seed: int, rows: int) -> tuple[bytes, GroundTruth]:
    """CSV read through columns `amount`, `rate` and the non-numeric `note`."""
    rng = random.Random(seed)
    truth = GroundTruth()
    out = ["id,amount,rate,note,region"]
    for i in range(1, rows + 1):
        if rng.random() < 0.03:
            amount = "0.00"
            truth.exclude()
        else:
            d = _lead(rng)
            amount = f"{d}{_digits(rng, rng.randrange(6))}.{_digits(rng, 2)}"
            truth.count(d)
        d = _lead(rng)
        if rng.random() < 0.5:
            rate = f"0.{'0' * rng.randrange(3)}{d}{_digits(rng, 3)}"
        else:
            rate = f"{d}.{_digits(rng, 2)}e-{rng.randrange(1, 5)}"
        truth.count(d)
        out.append(f"{i},{amount},{rate},{rng.choice(_NOTES)},r{rng.randrange(50)}")
        truth.exclude()  # the note cell is never numeric
    return ("\n".join(out) + "\n").encode(), truth


# Exponents of the `extremes` tokens. Fixed, so that every seed costs the
# same: extraction time grows superlinearly with the exponent.
EXTREME_EXPONENTS = (1000, 10_000, 100_000, 300_000, 1_000_000)


def extremes_text(seed: int) -> tuple[bytes, GroundTruth]:
    """Tokens with exponents up to 1e6, plus ordinary ones around them.

    Their leading digit is the mantissa's first digit, which is the
    independent reference.
    """
    rng = random.Random(seed)
    truth = GroundTruth()
    tokens = []
    for exp in EXTREME_EXPONENTS:
        d = _lead(rng)
        tokens.append(f"{d}.{_digits(rng, 3)}e{exp}")
        truth.count(d)
    for _ in range(40):
        d, exp = _lead(rng), rng.randrange(-200, 300)
        tokens.append(f"{_mantissa(rng, d, 2, exp)}e{exp}")
        truth.count(d)
    rng.shuffle(tokens)
    return (" ".join(tokens) + "\n").encode(), truth


def powers_text(seed: int) -> tuple[bytes, GroundTruth]:
    """Exact negative powers of ten, 1e-1 to 1e-300, in seeded order and
    spelling. Their leading digit is 1."""
    rng = random.Random(seed)
    truth = GroundTruth()
    tokens = []
    for n in range(1, 301):
        tokens.append(rng.choice(("1e-{}", "1.0e-{}", "1.00E-{}")).format(n))
        truth.count(1)
    rng.shuffle(tokens)
    return (" ".join(tokens) + "\n").encode(), truth


def tiny_text(seed: int) -> tuple[bytes, GroundTruth]:
    """Tokens below 1e-308, under the smallest double."""
    rng = random.Random(seed)
    truth = GroundTruth()
    tokens = []
    for _ in range(20):
        d = _lead(rng)
        tokens.append(f"{d}.{_digits(rng, 2)}e-{rng.randrange(320, 400)}")
        truth.count(d)
    return (" ".join(tokens) + "\n").encode(), truth
