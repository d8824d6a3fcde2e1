"""Every identity that `betheq verify` runs (`VERIFIERS`) and how it is judged.

The periodic and twisted double products come from one kernel,
`_double_product`: the double-staircase Schur function s_dd at the roots
of Q_n, times a prefactor from q^{2n} Q_n(1/q), checked by exact equality
in Q(q).  s_dd is a resultant: with omega = q^2,
    s_dd = (-omega^-1)^{n(n-1)/2} Res(Q, omega^n Q(x/omega))
           / ((1 - omega)^n (-1)^n Q(0)).
It is computed modulo primes p = 1 (mod 6) below 2^31, where omega lies
in F_p, by one pseudo-remainder Euclid batched over the primes in numpy
int64, and rebuilt by CRT (Chinese remaindering) once the primes'
product exceeds twice the Hadamard bound of the scaled Naegelsbach-Kostka
determinant; `groundstate_schur_det` is that determinant, the paper's
form.  The reflecting product and the component sums are checked
numerically from certified roots, to 2^(40 - precision) relative; the
recursion and the hypergeometric identities exactly, in `qfunctions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
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
    determinant of size 2(n-1) over the e-values of qp: the paper's form,
    which the tests hold _scaled_schur_dd to."""
    n = qp.n
    return schur_nk(Partition(range(2 * (n - 1), 0, -2)), SymTable(qp.evalues, n))


class ModulusError(ArithmeticError):
    """The primes cannot name a value by CRT: their product does not exceed
    twice the bound on its size.  Carries the number of primes and the bit
    lengths of their product and of the bound."""

    def __init__(self, message, *, primes, modulus_bits, bound_bits):
        super().__init__(message)
        self.primes = primes
        self.modulus_bits = modulus_bits
        self.bound_bits = bound_bits


# (p, omega) for the primes p = 1 (mod 6) below 2^31, descending, with omega
# a primitive cube root of unity mod p; extended on demand by _primes
_PRIMES = []


def _is_prime(m: int) -> bool:
    """Miller-Rabin with the bases 2, 7 and 61, deterministic for odd
    61 < m < 4759123141."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _primes(count: int) -> list:
    """The first count pairs (p, omega) of _PRIMES, extending it as needed."""
    p = _PRIMES[-1][0] - 6 if _PRIMES else (2**31 - 1) // 6 * 6 + 1
    while len(_PRIMES) < count:
        if _is_prime(p):
            g = 2
            while pow(g, (p - 1) // 3, p) == 1:
                g += 1
            _PRIMES.append((p, pow(g, (p - 1) // 3, p)))
        p -= 6
    return _PRIMES[:count]


def _prem_sweep(a, b, lead, p):
    """One pseudo-division sweep mod p, column by column (one prime per
    column, coefficients highest degree first down the rows):
    lead a - a_0 x^(deg a - deg b) b, whose leading coefficient is 0 and is
    dropped.  Every product stays below 2^62."""
    out = a[1:] * lead
    out[:len(b) - 1] -= a[0] * b[1:]
    out %= p
    return out


def _schur_dd_residues(ints, primes) -> tuple:
    """M = s_dd D^{2(n-1)} mod p for each (p, omega) in primes, from the
    coefficients ints of the int polynomial P = D Q (lowest degree first,
    D = ints[n]); returns the residues and the primes they belong to.

    Pt(x) = omega^n P(x/omega) has degree n and leading coefficient D, as
    P has, so P - Pt is the remainder of P by Pt.  Its coefficient of x^k
    is c_k (1 - omega^(n-k)), so G = (P - Pt) / (1 - omega) has the
    coefficients c_k (0, 1, 1 + omega) by n - k mod 3, and
        M = (-omega^-1)^{n(n-1)/2} Res(Pt, G) / P(0).
    The pseudo-remainder sequence F_1 = Pt, F_2 = G,
    F_{i+2} = prem(F_i, F_{i+1}) runs for all primes at once.  Where each
    F_i has degree n + 1 - i with leading coefficient b_{n+1-i}, the
    sequence is normal and
        Res(Pt, G) = F_{n+1} prod_{k=1}^{n-1} b_k^{2-2k},
    with prod_k b_k^{k-1} = prod_{j>=2} prod_{k>=j} b_k accumulated as the
    sequence runs.  A prime where D, P(0) or some b_k vanishes is dropped;
    the rest take one modular inverse each at the end.
    """
    n = len(ints) - 1
    p = np.array([q for q, _ in primes], dtype=np.int64)
    w = np.array([w for _, w in primes], dtype=np.int64)
    c = (np.array(ints[::-1], dtype=object)[:, None] % p).astype(np.int64)
    by3 = np.arange(n + 1) % 3
    wpow = np.stack([np.ones_like(w), w, w * w % p])
    a = c * wpow[by3] % p
    b = c[1:] * np.stack([np.zeros_like(w), np.ones_like(w), w + 1])[by3[1:]] % p
    tail = head = np.ones_like(p)
    for k in range(n - 1, 0, -1):
        lead = b[0]
        a, b = b, _prem_sweep(_prem_sweep(a, b, lead, p), b, lead, p)
        tail = tail * lead % p
        if k >= 2:
            head = head * tail % p
    half = n * (n - 1) // 2
    num = (-1) ** half * b[0] * wpow[-half % 3] % p
    den = head * head % p * c[n] % p
    usable = den * tail % p * c[0] % p
    residues, kept = [], []
    for q, x, d, ok in zip(p.tolist(), num.tolist(), den.tolist(), usable.tolist()):
        if ok:
            residues.append(x * pow(d, -1, q) % q)
            kept.append(q)
    return residues, kept


def _crt(residues, primes, bound: int) -> int:
    """The int M with |M| <= bound and M = residues[i] mod primes[i], built
    one prime at a time; ModulusError unless the primes' product exceeds
    2 bound."""
    x, modulus = 0, 1
    for r, q in zip(residues, primes):
        x += modulus * ((r - x) * pow(modulus % q, -1, q) % q)
        modulus *= q
    if modulus <= 2 * bound:
        raise ModulusError(
            f"{len(primes)} primes ({modulus.bit_length()} bits) cannot name"
            f" a value bounded by {bound.bit_length()} bits",
            primes=len(primes), modulus_bits=modulus.bit_length(),
            bound_bits=bound.bit_length())
    return x - modulus if 2 * x > modulus else x


def _scaled_schur_dd(ints) -> int:
    """M = s_dd D^{2(n-1)}, an int, for the int polynomial D Q with
    coefficients ints: its residues mod primes p = 1 (mod 6), rebuilt by
    CRT.  Scaled by D, each row of the Naegelsbach-Kostka matrix of s_dd
    holds coefficients of D Q, so Hadamard bounds |M| by
    ||ints||_2^{2(n-1)}.  Each prime exceeds 2^30, so need of them exceed
    twice that; a dropped prime is replaced by the next, and a batch that
    keeps no prime ends the search, where the CRT then raises ModulusError."""
    n = len(ints) - 1
    bound = sum(x * x for x in ints) ** (n - 1)
    need = (2 * bound).bit_length() // 30 + 1
    residues, kept, tried = [], [], 0
    while len(kept) < need:
        batch = _primes(tried + need - len(kept))[tried:]
        tried += len(batch)
        r, k = _schur_dd_residues(ints, batch)
        if not k:
            break
        residues += r
        kept += k
    return _crt(residues, kept, bound)


def _eisenstein_pow(a: int, b: int, k: int) -> tuple:
    """(a + b q)^k in Z[q] as an int pair, with q^2 = q - 1."""
    x, y = 1, 0
    while k:
        if k & 1:
            x, y = x * a - y * b, x * b + y * a + y * b
        a, b = a * a - b * b, 2 * a * b + b * b
        k >>= 1
    return x, y


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

    s_dd is the resultant
    (-omega^-1)^{n(n-1)/2} Res(Q, omega^n Q(x/omega)) / ((1 - omega)^n (-1)^n Q(0))
    with omega = q^2, and M = s_dd D^{2(n-1)} is an int (D = ints[n]):
    _scaled_schur_dd takes it modulo primes p = 1 (mod 6) below 2^31 and
    rebuilds it by CRT once their product exceeds twice the Hadamard bound
    ||ints||_2^{2(n-1)}.  With q^{2n} Q_n(1/q) = (A + B q) / D from
    q_at_qinv, D cancels and the product is
    3^{n(n-1)/2} (A + B - B q)^{2(n-1)} M / (A^2 + A B + B^2)^{2(n-1)},
    raised in Eisenstein ints: A + B - B q is the conjugate of A + B q and
    A^2 + A B + B^2 their product.
    """
    n = qp.n
    a, b = q_at_qinv(qp)
    k = 2 * (n - 1)
    x, y = _eisenstein_pow(a + b, -b, k)
    scale = 3 ** (n * (n - 1) // 2) * _scaled_schur_dd(qp.ints)
    norm = (a * a + a * b + b * b) ** k
    return Cyclo(Fraction(x * scale, norm), Fraction(y * scale, norm))


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
    # q^6 = 1, so q^{-(n-1)} = QINV^{(n-1) mod 6}
    rhs = Cyclo(asm_count(n) * asm_ht(2 * n - 1)) * QINV ** ((n - 1) % 6)
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
