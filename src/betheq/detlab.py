"""Exact determinants over the rationals.

Matrices are plain lists of lists.  det_exact clears denominators row by
row, runs one fraction-free Bareiss kernel on Python ints and returns a
Fraction for every input.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["det_exact"]


def _check_square(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def det_exact(m):
    """Exact determinant of a square matrix of ints and Fractions, as a
    Fraction (Fraction(1) for the empty matrix).

    Rows are scaled by the lcm of their denominators and eliminated in
    ints; the result is divided by the product of the scales.  Any other
    entry type raises TypeError.
    """
    n = _check_square(m)
    if n == 0:
        return Fraction(1)
    bad = next((x for row in m for x in row if not isinstance(x, (int, Fraction))), None)
    if bad is not None:
        raise TypeError(f"det_exact works over the rationals, got {type(bad).__name__}")
    scales = [math.lcm(*(x.denominator for x in row)) for row in m]
    a = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(m, scales)]
    return Fraction(_bareiss(a), math.prod(scales))


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
