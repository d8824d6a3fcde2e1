"""Exact determinants, the lambda-determinant via Dodgson condensation, and
its alternating-sign-matrix sum expansion.

Matrices are plain lists of lists.  det_exact works over the rationals:
it clears denominators row by row and runs one fraction-free Bareiss
kernel on Python ints.  The lambda-determinant routines take entries from
any exact field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "det_exact",
    "lambda_det_dodgson",
    "lambda_det_asm_sum",
    "asm_enumerate",
    "ASMMatrix",
    "CondensationSingularError",
]

ASM_ENUM_MAX = 6


class CondensationSingularError(ArithmeticError):
    """An interior divisor vanished during Dodgson condensation."""


def _check_square(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def det_exact(m):
    """Exact determinant of a square matrix of ints and Fractions.

    Rows are scaled by the lcm of their denominators and eliminated in
    ints; the result is divided by the product of the scales (an all-int
    matrix gives an int).  Any other entry type raises TypeError.
    """
    n = _check_square(m)
    if n == 0:
        return 1
    bad = next((x for row in m for x in row if not isinstance(x, (int, Fraction))), None)
    if bad is not None:
        raise TypeError(f"det_exact works over the rationals, got {type(bad).__name__}")
    scales = [math.lcm(*(x.denominator for x in row)) for row in m]
    a = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(m, scales)]
    det = _bareiss(a)
    if any(isinstance(x, Fraction) for row in m for x in row):
        return Fraction(det, math.prod(scales))
    return det


def _bareiss(a):
    """Determinant of an int matrix by row-lazy Bareiss elimination, in place.

    Step k makes a[i][j], i, j > k, the minor on rows 0..k, i and columns
    0..k, j: a[i][j] = (a[i][j] p_k - a[i][k] a[k][j]) // p_(k-1), an exact
    division.  Where a[i][k] = 0 this only scales the row by p_k / p_(k-1);
    those factors telescope, so the row stays stale at step stamp[i]
    (piv[s] = p_(s-1)) until it is the pivot row, is next eliminated or is
    the last row.
    """
    n = len(a)
    piv = [1] * (n + 1)
    stamp = [0] * n
    sign = 1

    def current(i, k):
        s = stamp[i]
        if s != k:
            a[i][k:] = [x * piv[k] // piv[s] for x in a[i][k:]]
            stamp[i] = k
        return a[i]

    for k in range(n - 1):
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if r is None:
                return 0
            a[k], a[r] = a[r], a[k]
            stamp[k], stamp[r] = stamp[r], stamp[k]
            sign = -sign
        top = current(k, k)[k + 1:]
        p = piv[k + 1] = a[k][k]
        d = piv[k]
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            row = current(i, k)
            f = row[k]
            row[k + 1:] = [(x * p - f * y) // d for x, y in zip(row[k + 1:], top)]
            stamp[i] = k + 1
    return sign * current(n - 1, n - 1)[n - 1]


def lambda_det_dodgson(m, lam):
    """The lambda-determinant of a square matrix by Dodgson condensation.

    x[k][i][j] = (x[k-1][i][j] x[k-1][i+1][j+1]
                  + lam * x[k-1][i+1][j] x[k-1][i][j+1]) / y[k-1][i][j]
    with y the interior of the previous x.  For lam = -1 this is the
    ordinary determinant.  A vanishing interior divisor raises
    CondensationSingularError; callers fall back to the ASM sum (small n)
    or det_exact at lam = -1.
    """
    n = _check_square(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    x = [list(row) for row in m]
    y = [[1] * (n - 1) for _ in range(n - 1)]
    for k in range(2, n + 1):
        size = n - k + 1
        nx = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                div = y[i][j]
                if div == 0:
                    raise CondensationSingularError(
                        f"zero interior divisor at step {k}, position ({i}, {j})"
                    )
                num = x[i][j] * x[i + 1][j + 1] + lam * x[i + 1][j] * x[i][j + 1]
                nx[i][j] = num / div
        y = [[x[i + 1][j + 1] for j in range(size - 1)] for i in range(size - 1)]
        x = nx
    return x[0][0]


@dataclass(frozen=True)
class ASMMatrix:
    """An alternating sign matrix with its inversion and minus-one counts."""

    entries: tuple
    inversion_number: int
    num_neg: int

    @classmethod
    def from_entries(cls, entries) -> "ASMMatrix":
        entries = tuple(tuple(row) for row in entries)
        _validate_asm(entries)
        inv = sum(
            entries[i][j] * entries[k][l]
            for i in range(len(entries))
            for j in range(len(entries))
            if entries[i][j]
            for k in range(i + 1, len(entries))
            for l in range(j)
            if entries[k][l]
        )
        neg = sum(1 for row in entries for x in row if x == -1)
        return cls(entries, inv, neg)


def _validate_asm(entries):
    n = len(entries)
    for lines in (entries, tuple(zip(*entries))):
        for line in lines:
            if len(line) != n:
                raise ValueError("ASM must be square")
            nz = [x for x in line if x != 0]
            if sum(line) != 1 or not nz or nz[0] != 1 or nz[-1] != 1:
                raise ValueError(f"invalid ASM line {line}")
            if any(nz[i] == nz[i + 1] for i in range(len(nz) - 1)):
                raise ValueError(f"signs do not alternate in {line}")
            if any(x not in (-1, 0, 1) for x in line):
                raise ValueError(f"entries must be in -1, 0, 1: {line}")


def asm_enumerate(n: int):
    """All n x n alternating sign matrices, via monotone-triangle extension.

    The state after row i is the set of columns with partial sum 1; valid
    successive states interlace weakly.  Guarded at n <= 6 (7436 matrices).
    """
    if n > ASM_ENUM_MAX:
        raise ValueError(f"asm_enumerate supports n <= {ASM_ENUM_MAX}, got {n}")
    if n == 0:
        return []
    out = []
    rows = []

    def extend(prev):
        i = len(rows) + 1
        if i > n:
            out.append(ASMMatrix.from_entries(rows))
            return
        for nxt in _interlacing_supersets(prev, n):
            row = tuple((1 if c in nxt else 0) - (1 if c in prev else 0) for c in range(n))
            rows.append(row)
            extend(nxt)
            rows.pop()

    extend(frozenset())
    return out


def _interlacing_supersets(prev, n):
    """Sorted column sets b with |b| = |prev| + 1 weakly interlacing prev:
    b_1 <= a_1 <= b_2 <= a_2 <= ... <= b_{k+1}."""
    a = sorted(prev)
    k = len(a)

    def rec(j, lo, acc):
        if j == k + 1:
            yield frozenset(acc)
            return
        hi = a[j] if j < k else n - 1
        lo2 = max(lo, a[j - 1] if j > 0 else 0)
        for b in range(lo2, hi + 1):
            acc.append(b)
            yield from rec(j + 1, b + 1, acc)
            acc.pop()

    yield from rec(0, 0, [])


def lambda_det_asm_sum(m, lam):
    """lambda-determinant as a sum over alternating sign matrices:
    sum over A of lam^I(A) (1 + 1/lam)^N(A) prod m_ij^{a_ij}.

    Requires lam != 0 and invertible entries wherever a_ij = -1.
    """
    n = _check_square(m)
    if n == 0:
        return 1
    if lam == 0:
        raise ZeroDivisionError("lambda must be nonzero in the ASM expansion")
    one_plus = 1 + _invert(lam)
    total = 0
    for asm in asm_enumerate(n):
        term = lam**asm.inversion_number * one_plus**asm.num_neg
        for i in range(n):
            for j in range(n):
                a = asm.entries[i][j]
                if a == 1:
                    term = term * m[i][j]
                elif a == -1:
                    term = term * _invert(m[i][j])
        total = total + term
    return total


def _invert(x):
    if x == 0:
        raise ZeroDivisionError("entry raised to -1 is zero")
    if isinstance(x, int):
        return Fraction(1, x)
    return 1 / x
