"""Fixed kernels that measure how fast this machine runs right now.

On a shared machine the speed of a core moves by tens of percent within a
minute, and every op moves with it. The worker runs a kernel between ops
and divides each op's time by the kernel time around it, which cancels
most of that drift. Each workload uses one kernel (workloads.KERNEL):

- `python`: interpreted Python, that is object creation, dict updates,
  big-integer arithmetic and decimal conversion, and a regular-expression
  scan;
- `array`: numpy passes over float arrays of 2 MB,
  turned into Python floats and summed with `math.fsum`.

The kernels use nothing from benfordkit, so a change to the program
cannot move them.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_NUMBER = re.compile(r"[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_TEXT = " ".join(f"w{i % 97} {i * 7919 % 100003}.{i % 89} x{i}" for i in range(16000))


@dataclass(frozen=True)
class _Record:
    key: int
    text: str


def python_kernel() -> int:
    table: dict[int, int] = {}
    for i in range(80_000):
        table[i % 1024] = table.get(i % 1024, 0) + i
    records = [_Record(i, str(i)) for i in range(20_000)]
    acc = sum(Fraction(r.key + 1, 7).numerator for r in records[::5])
    f = 1
    for i in range(1, 1300):
        f *= i
    acc += len(str(f)) + sum(len(str(v**25)) for v in range(1, 8_000))
    return acc + sum(1 for _ in _NUMBER.finditer(_TEXT)) + len(table)


def array_kernel() -> float:
    total = 0.0
    for start in range(1, 1 + 6 * 2**18, 2**18):
        m = np.arange(start, start + 2**18, dtype=np.float64)
        total += math.fsum(np.log1p(1.0 / (10 * m + 3)).tolist())
    return total


KERNELS = {"python": python_kernel, "array": array_kernel}


class Calibration:
    """Runs of `kernel` between ops: one at the start, one before any op that
    follows at least `every_s` of op time since the last run, one at the
    end. An op is scaled by the mean of the kernel runs just before and
    just after it."""

    def __init__(self, kernel, every_s: float) -> None:
        self._kernel = kernel
        self._every_s = every_s
        self._since = 0.0
        self.samples: list[float] = []
        self._point()

    def _point(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def before_op(self) -> int:
        """Run the kernel if due; return the index of the last run."""
        if self._since >= self._every_s:
            self._point()
            self._since = 0.0
        return len(self.samples) - 1

    def after_op(self, seconds: float) -> None:
        self._since += seconds

    def close(self) -> None:
        self._point()

    def scale(self, index: int) -> float:
        return (self.samples[index] + self.samples[index + 1]) / 2
