"""Product formulas for alternating-sign-matrix symmetry class counts.

Each count is one exact rational product, taken by _integer_product over
its (numerator, denominator) factors; a nonunit denominator at the end
signals a transcription error, so the integrality assertion is a genuine
check rather than a formality.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

__all__ = ["asm_count", "asm_v", "n8", "asm_ht"]


def _integer_product(factors, what: str) -> int:
    """prod num/den over the (num, den) pairs, which must be an integer."""
    out = prod(Fraction(num, den) for num, den in factors)
    if out.denominator != 1:
        raise ArithmeticError(f"{what} did not resolve to an integer: {out}")
    return out.numerator


def asm_count(n: int) -> int:
    """Number of n x n alternating sign matrices, prod (3j+1)!/(n+j)!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _integer_product(
        ((factorial(3 * j + 1), factorial(n + j)) for j in range(n)), f"A({n})")


def asm_v(m: int) -> int:
    """Number of m x m vertically symmetric ASMs, m = 2n+1 odd:
    prod_{j=0}^{n-1} (3j+2) (2j+1)! (6j+3)! / ((4j+2)! (4j+3)!)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"A_V is defined for odd m >= 1, got {m}")
    return _integer_product(
        (((3 * j + 2) * factorial(2 * j + 1) * factorial(6 * j + 3),
          factorial(4 * j + 2) * factorial(4 * j + 3)) for j in range((m - 1) // 2)),
        f"A_V({m})")


def n8(m: int) -> int:
    """Number of cyclically symmetric transpose complement plane partitions
    of order m = 2n even: prod_{i=1}^{n-1} (3i+1) (2i)! (6i)! / ((4i)! (4i+1)!)."""
    if m < 2 or m % 2 == 1:
        raise ValueError(f"N_8 is defined for even m >= 2, got {m}")
    return _integer_product(
        (((3 * i + 1) * factorial(2 * i) * factorial(6 * i),
          factorial(4 * i) * factorial(4 * i + 1)) for i in range(1, m // 2)),
        f"N_8({m})")


def asm_ht(m: int) -> int:
    """Number of m x m half-turn symmetric ASMs, m = 2n+1 odd:
    A_n^2 prod_{k=1}^n (3/4) ((3k-1)/(2k-1))^2."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"A_HT is defined for odd m >= 1, got {m}")
    n = (m - 1) // 2
    return _integer_product(
        [(asm_count(n) ** 2, 1),
         *((3 * (3 * k - 1) ** 2, 4 * (2 * k - 1) ** 2) for k in range(1, n + 1))],
        f"A_HT({m})")
