"""Reference correlations between the first six significant digits.

Enumerates every six-digit prefix m in [10**5, 10**6) with its probability
log10(1 + 1/m) under the joint law, evaluated with mpmath and held as an
integer multiple of 10**-40. The first and second moments of the six digits
are then summed exactly in integers, so the only rounding is in each
probability's last place. Prints the 15 correlations rho(i, j), i < j <= 6,
to 17 significant digits in the form tests/test_law.py embeds them.

Run from the repository root (about a minute):
    python tests/correlation_reference.py
"""

import mpmath

POSITIONS = 6
SCALE = 10**40


def main() -> None:
    mpmath.mp.dps = 50
    total = 0
    first = [0] * POSITIONS
    second = [[0] * POSITIONS for _ in range(POSITIONS)]
    for m in range(10 ** (POSITIONS - 1), 10**POSITIONS):
        p = int(mpmath.log1p(mpmath.mpf(1) / m) / mpmath.ln10 * SCALE)
        digits = [int(c) for c in str(m)]
        total += p
        for i, di in enumerate(digits):
            first[i] += p * di
            for j in range(i, POSITIONS):
                second[i][j] += p * di * digits[j]

    def cov(i: int, j: int) -> mpmath.mpf:
        return (mpmath.mpf(second[i][j]) / total
                - mpmath.mpf(first[i]) * first[j] / total**2)

    for i in range(POSITIONS):
        for j in range(i + 1, POSITIONS):
            rho = cov(i, j) / mpmath.sqrt(cov(i, i) * cov(j, j))
            print(f"    ({i + 1}, {j + 1}): "
                  f"{mpmath.nstr(rho, 17, min_fixed=1, max_fixed=0)},")


if __name__ == "__main__":
    main()
