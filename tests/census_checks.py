"""Eight command outputs checked against counts made with the standard library.

Each check runs one `benford` command through `benfordkit.cli.main` and
compares its stdout with the same census counted from exact integers
(math.comb, math.factorial, n**k, a bytearray sieve) and a plain search
over powers of the base, or, for the simulator, with the census that a
constant multiplier of 16 in base 16 must give. The digits under test come
from float paths that depend on the platform's numpy and libm: Pascal's
float read, whose uncertain terms are read by math.comb; the float log2
bound that starts each power-of-the-base search; the float root that seeds
each jump over a run of n**k; the segmented sieve's run counts, in base 7
and in base 100000, where every prime starts its own run; and the
simulator's near-cell routing in significand._log_digits.

Run from outside the checkout, it checks the installed package; it needs
nothing beyond the package and the standard library:

    cd /tmp && python /path/to/tests/census_checks.py

It exits 0 when every output matches and otherwise names each that differs.
`tests/test_census_checks.py` runs the same checks on the source tree.
"""

import contextlib
import io
import math
import sys
from collections import Counter

from benfordkit import cli


def _leading(v: int, base: int) -> int:
    """The first digit of v > 0, by a plain search over powers of the base."""
    power = 1
    while power * base <= v:
        power *= base
    return v // power


def _census_csv(values, base: int) -> str:
    """What `generate --census` prints for these values' first digits."""
    counts = Counter(_leading(v, base) for v in values)
    return "digit,count\n" + "".join(f"{d},{counts[d]}\n" for d in range(1, base))


def _primes_below(n: int):
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return (v for v in range(n) if sieve[v])


def _pascal(rows: int):
    return (math.comb(n, r) for n in range(rows) for r in range(n + 1))


# Each check: the command's arguments and the stdout it must print.
CHECKS = {
    "primes-base-7": (
        ["generate", "primes", "--below", "100000", "--base", "7", "--census"],
        lambda: _census_csv(_primes_below(100000), 7)),
    "primes-base-100000": (
        ["generate", "primes", "--below", "100000", "--base", "100000", "--census"],
        lambda: _census_csv(_primes_below(100000), 100000)),
    "power-alpha-base-7": (
        ["generate", "power-alpha", "--alpha", "1007/1000", "--n", "2000", "--base", "7",
         "--census"],
        lambda: _census_csv((1007**n // 1000**n for n in range(1, 2001)), 7)),
    "factorial-base-7": (
        ["generate", "factorial", "--n", "300", "--base", "7", "--census"],
        lambda: _census_csv(map(math.factorial, range(1, 301)), 7)),
    "power-n-base-7": (
        ["generate", "power-n", "--k", "7", "--n", "3000", "--base", "7", "--census"],
        lambda: _census_csv((n**7 for n in range(1, 3001)), 7)),
    "pascal-base-16": (
        ["generate", "pascal", "--rows", "300", "--base", "16", "--census"],
        lambda: _census_csv(_pascal(300), 16)),
    "pascal-base-100000": (
        ["generate", "pascal", "--rows", "200", "--base", "100000", "--census"],
        lambda: _census_csv(_pascal(200), 100000)),
    # Every walker sits on a digit boundary at every step, so each step's
    # census is all 1s: d1 = 1 - log_16(2) = 0.75.
    "simulate-constant-16": (
        ["simulate", "--noise", "constant:16", "--base", "16", "--walkers", "100",
         "--steps", "3"],
        lambda: "step,d1\n1,0.75\n2,0.75\n3,0.75\n"),
}


def check(name: str) -> str | None:
    """None when the command prints what check ``name`` expects, else why not."""
    argv, expected = CHECKS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        return f"benford {' '.join(argv)} exited {status}"
    # The simulator's metadata lines start with '#'.
    printed = "".join(line for line in out.getvalue().splitlines(True)
                      if not line.startswith("#"))
    if printed != expected():
        return f"benford {' '.join(argv)} differs from the standard library's count"
    return None


def main() -> int:
    failures = [message for message in map(check, CHECKS) if message is not None]
    for message in failures:
        print(message, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
