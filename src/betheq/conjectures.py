"""Every identity that `betheq verify` runs (`VERIFIERS`) and how it is judged.

The periodic and twisted double products come from one kernel,
`_double_product`, a double-staircase Schur determinant over the exact
e-values times a prefactor from q^{2n} Q_n(1/q), and are checked by exact
equality in Q(q).  The reflecting product and the component sums are
checked numerically from certified roots, to 2^(40 - precision) relative;
the recursion and the hypergeometric identities exactly, in `qfunctions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from . import bethe
from .asmcounts import asm_count, asm_ht, asm_v, n8
from .exact import QINV, Cyclo
from .qfunctions import (
    QPolynomial,
    check_recursion_periodic,
    elem_periodic,
    elem_reflecting,
    elem_twisted,
    hyp_failures,
    q_at_qinv,
)
from .symfunc import Partition, SymTable, schur_nk

__all__ = [
    "VERIFIERS",
    "VerificationReport",
    "groundstate_schur_det",
    "verify_periodic_product",
    "verify_twisted_product",
    "verify_reflecting_product",
    "verify_component_sums",
]


@dataclass(frozen=True)
class VerificationReport:
    """One verified identity, as plain data (``cli`` prints it).  An exact
    report has tolerance None and compares lhs and rhs by equality; a
    numeric one carries its precision and compares by
    |lhs - rhs| <= tolerance * |rhs|."""

    conjecture: str
    n: int
    lhs: object
    rhs: object
    equal: bool
    precision_bits: int | None = None
    tolerance: object = None


def groundstate_schur_det(qp: QPolynomial) -> Fraction:
    """The Schur function of the double-staircase partition
    (2(n-1), 2(n-2), ..., 2) at the roots, as the Naegelsbach-Kostka
    determinant of size 2(n-1) over the e-values of qp."""
    n = qp.n
    return schur_nk(Partition(range(2 * (n - 1), 0, -2)), SymTable(qp.evalues, n))


def _double_product(qp: QPolynomial) -> Cyclo:
    """prod_{i != j} (1 + z_i + z_i z_j) over the roots w of a closed-chain
    Q_n, with z = (q - w) / (q w - 1), exactly in Q(q).

    Since 1 - q + q^2 = 0, each factor is
    (1 - 2q)(w_i - q^2 w_j) / ((q w_i - 1)(q w_j - 1)).  With
    (1 - 2q)^2 = -3, (w_i - q^2 w_j)(w_j - q^2 w_i) =
    -q^2 (w_i^2 + w_i w_j + w_j^2), whose product over i < j is the
    double-staircase Schur function s_dd(w) (a_{3 delta}(w) = a_delta(w^3)),
    prod_i (q w_i - 1) = (-q)^n Q_n(1/q) and q^{3n(n-1)} = 1, the product is
    3^{n(n-1)/2} (q^{2n} Q_n(1/q))^{-2(n-1)} s_dd(w).  The boundary enters
    only through Q_n.
    """
    n = qp.n
    return (Cyclo(3 ** (n * (n - 1) // 2)) * q_at_qinv(qp) ** (-2 * (n - 1))
            * groundstate_schur_det(qp))


def verify_periodic_product(n: int) -> VerificationReport:
    """The periodic double product equals A_n^3; a value with a q part
    is reported as unequal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = _double_product(elem_periodic(n))
    lhs = value.a if value.is_rational else value
    rhs = Fraction(asm_count(n)) ** 3
    return VerificationReport(
        conjecture="conj", n=n, lhs=lhs, rhs=rhs, equal=lhs == rhs
    )


def verify_twisted_product(n: int) -> VerificationReport:
    """The twisted double product equals q^{-(n-1)} A_n A_HT(2n-1)."""
    lhs = _double_product(elem_twisted(n))
    rhs = Cyclo(asm_count(n) * asm_ht(2 * n - 1)) * QINV ** (n - 1)
    return VerificationReport(
        conjecture="conj1", n=n, lhs=lhs, rhs=rhs, equal=lhs == rhs
    )


def _numeric_report(conjecture: str, n: int, precision: int, lhs, rhs) -> VerificationReport:
    """A numeric report at the working precision precision + GUARD_BITS:
    lhs holds values computed at that precision and rhs their exact integer
    targets, each a value or an equal-length tuple, and each component is
    equal when |l - r| <= 2^(40 - precision) |r|."""
    with mp.workprec(precision + bethe.GUARD_BITS):
        tol = mp.mpf(2) ** (40 - precision)
        pairs = zip(lhs, rhs) if isinstance(lhs, tuple) else [(lhs, rhs)]
        equal = all(abs(l - r) <= tol * abs(r) for l, r in pairs)
    return VerificationReport(
        conjecture=conjecture,
        n=n,
        lhs=lhs,
        rhs=rhs,
        equal=equal,
        precision_bits=precision,
        tolerance=tol,
    )


def verify_reflecting_product(n: int,
                              precision: int = bethe.DEFAULT_PRECISION) -> VerificationReport:
    """The reflecting double product over 2n variables equals
    A_V(2n+1)^2 N_8(2n)^4, checked numerically from certified roots."""
    rs = bethe.solve_roots(elem_reflecting(n), precision)
    rhs = asm_v(2 * n + 1) ** 2 * n8(2 * n) ** 4
    return _numeric_report("conj2", n, precision, bethe.reflecting_double_product(rs), rhs)


def verify_component_sums(n: int, precision: int = bethe.DEFAULT_PRECISION) -> VerificationReport:
    """The two permutation sums over the periodic groundstate roots equal
    A_n and A_n^2 (smallest and largest wavefunction component)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rs = bethe.solve_roots(elem_periodic(n), precision)
    a = asm_count(n)
    lhs = (bethe.component_sum_small(rs), bethe.component_sum_large(rs))
    return _numeric_report("sums", n, precision, lhs, (a, a * a))


def _recursion(n: int, precision: int) -> VerificationReport:
    return VerificationReport(
        conjecture="recursion", n=n, lhs="poly", rhs="poly",
        equal=check_recursion_periodic(n))


def _hyp(which: int, n: int) -> VerificationReport:
    failures = hyp_failures(which, n)
    return VerificationReport(
        conjecture=f"hyp{which}", n=n, lhs=[list(f) for f in failures], rhs=[],
        equal=not failures)


# name -> callable(n, precision); 'verify all' runs them in this order.  Each
# entry looks its verifier up in the module globals, so a patched or traced one runs.
VERIFIERS = {
    "conj": lambda n, precision: verify_periodic_product(n),
    "conj1": lambda n, precision: verify_twisted_product(n),
    "conj2": lambda n, precision: verify_reflecting_product(n, precision),
    "sums": lambda n, precision: verify_component_sums(n, precision),
    "recursion": _recursion,
    "hyp1": lambda n, precision: _hyp(1, n),
    "hyp2": lambda n, precision: _hyp(2, n),
}
