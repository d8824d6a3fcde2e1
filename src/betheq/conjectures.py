"""Verification of the product identities linking Bethe-root double
products to alternating-sign-matrix counts.

Periodic and twisted products reduce to exact Schur determinants over the
known e-values and are checked by exact equality.  The reflecting product
has no known e-value reduction and is checked numerically from certified
high-precision roots, with a tolerance tied to the working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from . import bethe
from .asmcounts import asm_count, asm_ht, asm_v, n8
from .detlab import det_exact
from .exact import QINV, Cyclo, rat_to_str
from .qfunctions import Boundary, QPolynomial, elem_periodic, elem_reflecting, elem_twisted

__all__ = [
    "VerificationReport",
    "groundstate_schur_det",
    "verify_periodic_product",
    "verify_twisted_product",
    "verify_reflecting_product",
    "verify_component_sums",
]


@dataclass(frozen=True)
class VerificationReport:
    """One verified identity: exact values compare by equality, numeric
    ones by |lhs - rhs| <= tolerance * |rhs|."""

    conjecture: str
    n: int
    lhs: object
    rhs: object
    equal: bool
    method: str
    precision_bits: int | None = None
    tolerance: object = None

    def to_json(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "n": self.n,
            "method": self.method,
            "lhs": _value_json(self.lhs, self.tolerance),
            "rhs": _value_json(self.rhs, self.tolerance),
            "equal": self.equal,
            "precision_bits": self.precision_bits,
            "tolerance": None if self.tolerance is None else mpmath.nstr(self.tolerance, 8),
        }


def _value_json(v, tolerance):
    """Exact values as strings; a numeric value to 30 digits, printed as
    its real part alone when its imaginary part is rounding noise
    (|im v| <= tolerance |v|)."""
    if isinstance(v, (tuple, list)):
        return [_value_json(x, tolerance) for x in v]
    if isinstance(v, Cyclo):
        return v.to_json()
    if isinstance(v, (int, Fraction)):
        return rat_to_str(v)
    if isinstance(v, mpmath.mpc) and tolerance is not None and abs(v.imag) <= tolerance * abs(v):
        v = v.real
    if isinstance(v, (mpmath.mpf, mpmath.mpc)):
        return mpmath.nstr(v, 30)
    return str(v)


def groundstate_schur_det(qp: QPolynomial) -> Fraction:
    """det(e_{n - floor((i+1)/2) - i + j}) of size 2(n-1) over the
    e-values of qp; this is the Schur function of the double-staircase
    partition (2(n-1), 2(n-2), ..., 2, 0) at the roots.  Shared by the
    periodic and twisted verifiers, which use the identical matrix shape.
    """
    n = qp.n
    size = 2 * (n - 1)
    if size <= 0:
        return Fraction(1)

    def e(l):
        if 0 <= l <= n:
            return qp.evalues[l]
        return Fraction(0)

    m = [
        [e(n - (i + 1) // 2 - i + j) for j in range(1, size + 1)]
        for i in range(1, size + 1)
    ]
    return det_exact(m)


def verify_periodic_product(n: int) -> VerificationReport:
    """prod_{i != j} (1 + z_i + z_i z_j) over the periodic groundstate
    roots equals A_n^3, via the exact prefactor-times-Schur reduction.

    The sqrt(3) in the per-factor prefactor appears to the power n(n-1),
    which is even, so the whole prefactor is rational with 3-exponent
    n(n-1)/2; that integrality is asserted structurally before computing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    assert (n * (n - 1)) % 2 == 0
    pref = Fraction(3) ** (n * (n - 1) // 2)
    per_factor = Fraction(1)
    for j in range(1, n + 1):
        per_factor *= Fraction(1, 4) * Fraction(3 * j - 1, 2 * j - 1) ** 2
    pref *= per_factor ** (n - 1)
    lhs = pref * groundstate_schur_det(elem_periodic(n))
    rhs = Fraction(asm_count(n)) ** 3
    return VerificationReport(
        conjecture="conj", n=n, lhs=lhs, rhs=rhs, equal=lhs == rhs, method="exact"
    )


def verify_twisted_product(n: int) -> VerificationReport:
    """The twisted double product equals q^{-(n-1)} A_n A_HT(2n-1),
    exactly in Q(q).

    The prefactor (4 q^{-1} 3^{n/2-1} prod ((3j-1)/(n+j))^2)^{n-1} is
    rational times q^{-(n-1)}: the 3-exponent (n-1)(n-2)/2 is an integer
    (asserted), and the phase collapses to a power of q^{-1} = 1 - q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    assert ((n - 1) * (n - 2)) % 2 == 0
    rational = Fraction(4) ** (n - 1) * Fraction(3) ** ((n - 1) * (n - 2) // 2)
    for j in range(1, n + 1):
        rational *= Fraction(3 * j - 1, n + j) ** (2 * (n - 1))
    rational *= groundstate_schur_det(elem_twisted(n))
    lhs = Cyclo(rational) * QINV ** (n - 1)
    rhs = Cyclo(asm_count(n) * asm_ht(2 * n - 1)) * QINV ** (n - 1)
    return VerificationReport(
        conjecture="conj1", n=n, lhs=lhs, rhs=rhs, equal=lhs == rhs, method="exact"
    )


def _numeric_tolerance(precision: int):
    return mp.mpf(2) ** (40 - precision)


def verify_reflecting_product(n: int, precision: int = 256) -> VerificationReport:
    """The reflecting double product over 2n variables equals
    A_V(2n+1)^2 N_8(2n)^4, checked numerically from certified roots."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rs = bethe.solve_roots(elem_reflecting(n), precision)
    with mp.workprec(precision + bethe.GUARD_BITS):
        lhs = bethe.reflecting_double_product(rs)
        rhs = mp.mpf(asm_v(2 * n + 1)) ** 2 * mp.mpf(n8(2 * n)) ** 4
        tol = _numeric_tolerance(precision)
        equal = abs(lhs - rhs) <= tol * abs(rhs)
    return VerificationReport(
        conjecture="conj2",
        n=n,
        lhs=lhs,
        rhs=rhs,
        equal=equal,
        method="numeric",
        precision_bits=precision,
        tolerance=tol,
    )


def verify_component_sums(n: int, precision: int = 256) -> VerificationReport:
    """The two permutation sums over the periodic groundstate roots equal
    A_n and A_n^2 (smallest and largest wavefunction component)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rs = bethe.solve_roots(elem_periodic(n), precision)
    with mp.workprec(precision + bethe.GUARD_BITS):
        small = bethe.component_sum_small(rs)
        large = bethe.component_sum_large(rs)
        a = asm_count(n)
        tol = _numeric_tolerance(precision)
        equal = abs(small - a) <= tol * a and abs(large - a * a) <= tol * a * a
    return VerificationReport(
        conjecture="sums",
        n=n,
        lhs=(small, large),
        rhs=(a, a * a),
        equal=equal,
        method="numeric",
        precision_bits=precision,
        tolerance=tol,
    )
