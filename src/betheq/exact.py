"""Exact number systems: rationals, the field Q(q) with q a primitive sixth
root of unity, and generalized binomials.  Polynomials are plain int
coefficient lists where they are built (``qfunctions``).

All arithmetic here is exact and pure Python.  Rationals are
``fractions.Fraction`` (always in lowest terms, positive denominator).
``Cyclo`` elements are a + b*q with q^2 = q - 1, which is the minimal
polynomial of q = exp(i*pi/3).
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Cyclo",
    "QINV",
    "ExactDivisionError",
    "gen_binom",
    "int_binom",
    "falling_binom",
    "rat_to_str",
]


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def int_binom(a: int, k: int) -> int:
    """binom(a, k) for an integer top a, as an int; k < 0 gives 0.  The
    generalized binomial: (-1)^k comb(k - a - 1, k) for a < 0."""
    if k < 0:
        return 0
    return math.comb(a, k) if a >= 0 else (-1) ** k * math.comb(k - a - 1, k)


def falling_binom(a, k: int) -> Fraction:
    """binom(a, k) = a(a-1)...(a-k+1)/k! for every rational a, the classical
    generalized binomial; k < 0 gives 0, and an integer top is int_binom.
    The program calls it nowhere; it serves the tests' Fraction oracles and
    stays here because the benchmark counts its calls (``perfbench/spans.py``)."""
    a = Fraction(a)
    if a.denominator == 1:
        return Fraction(int_binom(a.numerator, k))
    if k < 0:
        return Fraction(0)
    p, d = a.numerator, a.denominator
    return Fraction(math.prod(p - i * d for i in range(k)), d**k * math.factorial(k))


def gen_binom(a, k: int) -> Fraction:
    """binom(a, k) with integer tops truncated below the diagonal.

    k < 0 gives 0.  For integer a the value is the standard binomial when
    a >= k and 0 otherwise, including negative a; for non-integer a it is
    falling_binom(a, k).  The truncation is the convention under which the
    paper's binomial sums for the e-values come out right (the reference
    formulas in ``tests/test_qfunctions.py``; see the n=1 twisted root
    w = 1/2).  The program calls neither it nor falling_binom, only
    int_binom; it serves the tests' reference sums and stays here because
    the benchmark counts its calls (``perfbench/spans.py``).
    """
    if k < 0:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    a = Fraction(a)
    if a.denominator == 1:
        n = a.numerator
        if n < k:
            return Fraction(0)
        return Fraction(math.comb(n, k))
    return falling_binom(a, k)


def rat_to_str(x) -> str:
    """Serialize a rational (or int) as "p/q", or "p" when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Cyclo:
    """Element a + b*q of Q(q), q = exp(i*pi/3), with q^2 = q - 1.

    Immutable.  q is a unit with q^-1 = 1 - q, q^3 = -1 and q^6 = 1;
    complex conjugation maps q to 1 - q.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *args):
        raise AttributeError("Cyclo is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo(x, 0)
        return None

    # -- ring/field operations -------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 q)(a2 + b2 q) with q^2 = q - 1
        return Cyclo(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a + self.b * o.b,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        # norm x * conj(x) = a^2 + a b + b^2 is rational and positive
        # for x != 0 since the form is positive definite.
        nrm = self.a * self.a + self.a * self.b + self.b * self.b
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return Cyclo((self.a + self.b) / nrm, -self.b / nrm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = Cyclo(1, 0)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"Cyclo({self.a!r}, {self.b!r})"

    def to_json(self) -> dict:
        return {"a": rat_to_str(self.a), "b": rat_to_str(self.b)}


QINV = Cyclo(1, -1)
