"""Product formulas for alternating-sign-matrix symmetry class counts.

Each count is accumulated as an exact rational product; a nonunit
denominator at the end signals a transcription error, so the integrality
assertion is a genuine check rather than a formality.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

__all__ = ["asm_count", "asm_v", "n8", "asm_ht"]


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"{what} did not resolve to an integer: {x}")
    return x.numerator


def asm_count(n: int) -> int:
    """Number of n x n alternating sign matrices, prod (3j+1)!/(n+j)!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = Fraction(1)
    for j in range(n):
        out *= Fraction(factorial(3 * j + 1), factorial(n + j))
    return _as_int(out, f"A({n})")


def asm_v(m: int) -> int:
    """Number of m x m vertically symmetric ASMs, m = 2n+1 odd:
    prod_{j=0}^{n-1} (3j+2) (2j+1)! (6j+3)! / ((4j+2)! (4j+3)!)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"A_V is defined for odd m >= 1, got {m}")
    n = (m - 1) // 2
    out = Fraction(1)
    for j in range(n):
        out *= Fraction(
            (3 * j + 2) * factorial(2 * j + 1) * factorial(6 * j + 3),
            factorial(4 * j + 2) * factorial(4 * j + 3),
        )
    return _as_int(out, f"A_V({m})")


def n8(m: int) -> int:
    """Number of cyclically symmetric transpose complement plane partitions
    of order m = 2n even: prod_{i=1}^{n-1} (3i+1) (2i)! (6i)! / ((4i)! (4i+1)!)."""
    if m < 2 or m % 2 == 1:
        raise ValueError(f"N_8 is defined for even m >= 2, got {m}")
    n = m // 2
    out = Fraction(1)
    for i in range(1, n):
        out *= Fraction(
            (3 * i + 1) * factorial(2 * i) * factorial(6 * i),
            factorial(4 * i) * factorial(4 * i + 1),
        )
    return _as_int(out, f"N_8({m})")


def asm_ht(m: int) -> int:
    """Number of m x m half-turn symmetric ASMs, m = 2n+1 odd:
    A_n^2 prod_{k=1}^n (3/4) ((3k-1)/(2k-1))^2."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"A_HT is defined for odd m >= 1, got {m}")
    n = (m - 1) // 2
    out = Fraction(asm_count(n)) ** 2
    for k in range(1, n + 1):
        out *= Fraction(3, 4) * Fraction(3 * k - 1, 2 * k - 1) ** 2
    return _as_int(out, f"A_HT({m})")
