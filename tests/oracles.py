"""Reference implementations the tests compare betheq against.

None of these is on a path the `betheq` CLI or `conjectures.VERIFIERS`
takes; they are independent routes to the same values: Schur functions
from tableaux, Vandermonde ratios and h-values, the lambda-determinant and
its ASM-sum expansion, a second A_n formula, dense polynomials with
long division by a monic divisor and the term-by-term Chebyshev expansion
in wt, a point evaluator for the
closed rational form of Q_n, that form and its e-values and the two
hypergeometric sums in Fraction arithmetic, the special-value check, and the Aberth
iteration, the coefficient-reconstruction gate, the Bethe residual, the
energy, the ordered-sum dynamic programme, the wavefunction component and
the reflecting double product in mpmath arithmetic, with their own q,
variable change and embedding of Q(q), and the ED sector Hamiltonian
built one state at a time, with its dense array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp

from betheq.asmcounts import _as_int
from betheq.bethe import GUARD_BITS, NonConvergenceError, RootSet
from betheq.detlab import _check_square, det_exact
from betheq.ed import (
    BOUNDARY_FIELD,
    DELTA,
    MAX_L,
    TWIST_PHI,
    SectorMatrix,
    SpinBasis,
    default_sector,
)
from betheq.exact import Cyclo, ExactDivisionError, falling_binom
from betheq.qfunctions import (
    Boundary,
    _rational_form,
    elem_periodic,
    q_at_qinv,
)
from betheq.symfunc import Partition, SymTable, _jt_det

Q = Cyclo(0, 1)


# --- symmetric functions ---------------------------------------------------


class HTable:
    """Values h_0..h_N of the complete symmetric functions.

    Negative indices give 0; an index past the table raises IndexError,
    never a silent 0 (h_k does not vanish beyond the variable count).
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = list(values)

    def val(self, k: int):
        if k < 0:
            return 0
        if k >= len(self.values):
            raise IndexError(
                f"h-table holds indices up to {len(self.values) - 1}, need {k}"
            )
        return self.values[k]


def elem_brute(variables) -> SymTable:
    """e-table of the given variables: coefficients of prod (1 + w_j t),
    built by incremental polynomial multiplication."""
    coeffs = [1]
    for w in variables:
        nxt = [1]
        for k in range(1, len(coeffs) + 1):
            prev = coeffs[k] if k < len(coeffs) else 0
            nxt.append(prev + coeffs[k - 1] * w)
        coeffs = nxt
    return SymTable(coeffs, len(coeffs) - 1)


def complete_from_elem(e: SymTable, k: int):
    """h_k from an e-table via the duality determinant det(e_{1-i+j})."""
    if k < 0:
        return 0
    return _jt_det((1,) * k, e)


def elem_from_complete(h: HTable, k: int):
    """e_k from an h-table via det(h_{1-i+j}); the dual direction."""
    if k < 0:
        return 0
    return _jt_det((1,) * k, h)


def complete_table(e: SymTable, upto: int) -> HTable:
    """h-table with entries h_0..h_upto derived from an e-table."""
    return HTable([complete_from_elem(e, k) for k in range(upto + 1)])


def schur_jt(p: Partition, h: HTable):
    """Schur value from h-values: the Jacobi-Trudi determinant
    det(h_{mu_i - i + j}) of size len(mu)."""
    return _jt_det(p.parts, h)


def schur_tableaux(p: Partition, variables):
    """Schur value as the sum over semistandard tableaux of shape p with
    entries in 1..len(variables): rows weakly increasing, columns strictly
    increasing."""
    variables = list(variables)
    n = len(variables)
    shape = p.parts
    if not shape:
        return 1
    if len(shape) > n:
        return 0 * variables[0] if n else 0
    total = 0
    rows = []

    def fill_row(r):
        nonlocal total
        if r == len(shape):
            term = 1
            for row in rows:
                for v in row:
                    term = term * variables[v - 1]
            total = total + term
            return
        width = shape[r]
        row = [0] * width

        def fill_cell(c):
            if c == width:
                rows.append(tuple(row))
                fill_row(r + 1)
                rows.pop()
                return
            lo = row[c - 1] if c > 0 else 1
            if r > 0:
                lo = max(lo, rows[r - 1][c] + 1)
            for v in range(lo, n + 1):
                row[c] = v
                fill_cell(c + 1)

        fill_cell(0)

    fill_row(0)
    return total


def schur_vandermonde(p: Partition, variables):
    """Schur value as the ratio det(w_i^{n-j+mu_j}) / det(w_i^{n-j}).

    Variables must be pairwise distinct; with a repeat the denominator
    determinant vanishes and a determinantal identity must be used instead.
    """
    variables = list(variables)
    n = len(variables)
    mu = list(p.parts) + [0] * (n - len(p.parts))
    if len(mu) > n:
        raise ValueError(f"partition {p!r} has more parts than variables")
    den = det_exact(
        [[variables[i] ** (n - 1 - j) for j in range(n)] for i in range(n)]
    )
    if den == 0:
        raise ZeroDivisionError("repeated variable: Vandermonde denominator is singular")
    num = det_exact(
        [[variables[i] ** (n - 1 - j + mu[j]) for j in range(n)] for i in range(n)]
    )
    return num / den


def monomial_sym(p: Partition, variables):
    """Monomial symmetric function: sum over distinct permutations of the
    exponent vector padded with zeros."""
    variables = list(variables)
    n = len(variables)
    if len(p.parts) > n:
        return 0 * variables[0] if n else 0
    expo = list(p.parts) + [0] * (n - len(p.parts))
    total = 0
    for perm in _orderings(expo):
        term = 1
        for w, k in zip(variables, perm):
            term = term * w**k
        total = total + term
    return total


def _orderings(multiset):
    """Each distinct ordering of a multiset, exactly once."""
    if not multiset:
        yield ()
        return
    for k in sorted(set(multiset)):
        rest = list(multiset)
        rest.remove(k)
        for tail in _orderings(rest):
            yield (k,) + tail


# --- the lambda-determinant and alternating sign matrices -----------------


class CondensationSingularError(ArithmeticError):
    """An interior divisor vanished during Dodgson condensation."""


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
    successive states interlace weakly.
    """
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


# --- ASM counts -------------------------------------------------------------


def asm_count_alt(n: int) -> int:
    """The same count via the double product prod (n+i+j-1)/(2i+j-1)
    over 1 <= i <= j <= n; agreement with asm_count is asserted in tests."""
    out = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out *= Fraction(n + i + j - 1, 2 * i + j - 1)
    return _as_int(out, f"A({n}) (double product)")


# --- the variable change w <-> z --------------------------------------------


@lru_cache(maxsize=None)
def _qphase_at(prec: int):
    with mp.workprec(prec):
        return mp.expjpi(mp.mpf(1) / 3)


def _qphase():
    """q = exp(i pi/3) at the current working precision, computed once per
    precision (a cosine and sine series costs about 4 ms at 4600 bits)."""
    return _qphase_at(mp.prec)


def _z(w, q):
    """z = (q - w)/(q w - 1) at the caller's working precision."""
    return (q - w) / (q * w - 1)


def _pow(z, k: int):
    """z^k by binary powering with mpmath multiplication (k < 0 inverts).
    An mpc ** int takes exp(k log z) once k times the precision reaches
    10000 bits, a log and an exp per power from about 4096 bits on."""
    if k < 0:
        return 1 / _pow(z, -k)
    p = mp.mpc(1)
    for bit in bin(k)[2:]:
        p *= p
        if bit == "1":
            p *= z
    return p


def to_z(w, prec: int = 53):
    """Variable change z = (q - w)/(q w - 1); pole at w = 1/q."""
    with mp.workprec(prec):
        q = _qphase()
        if q * w - 1 == 0:
            raise ZeroDivisionError("w = 1/q is a pole of the variable change")
        return _z(w, q)


def to_w(z, prec: int = 53):
    """Inverse change w = (z + q)/(q z + 1); pole at z = -1/q."""
    with mp.workprec(prec):
        q = _qphase()
        den = q * z + 1
        if den == 0:
            raise ZeroDivisionError("z = -1/q is a pole of the variable change")
        return (z + q) / den


def embed(x: Cyclo, prec: int = 53):
    """Complex-float embedding a + b*(1/2 + i sqrt(3)/2) of x in Q(q) at
    prec bits."""
    with mp.workprec(prec):
        qv = mp.mpc(mp.mpf(1) / 2, mp.sqrt(3) / 2)
        av = mp.mpf(x.a.numerator) / x.a.denominator
        bv = mp.mpf(x.b.numerator) / x.b.denominator
        return av + bv * qv


# --- exact polynomials ----------------------------------------------------


class Poly:
    """Dense univariate polynomial over an exact commutative ring.

    Coefficients are stored lowest degree first with no trailing zeros.
    The zero polynomial has degree -1.  Coefficient ring elements must
    support arithmetic with Python ints.  Division is `poly_div_exact`,
    by a monic divisor only.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other):
        other = self._as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._as_poly(other))

    def __mul__(self, other):
        other = self._as_poly(other)
        if not self or not other:
            return Poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(out)

    __rmul__ = __mul__

    @staticmethod
    def _as_poly(x):
        if isinstance(x, Poly):
            return x
        return Poly([x])

    def scale(self, k):
        return Poly([c * k for c in self.coeffs])

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def poly_div_exact(num: Poly, den: Poly) -> Poly:
    """Exact quotient by a monic divisor, which keeps int coefficients int;
    a non-monic divisor raises ValueError and a nonzero remainder raises
    ExactDivisionError.

    The quotient is verified by re-multiplication, so a remainder signals a
    transcription bug in whatever formula produced the operands.
    """
    if not den or den.coeffs[-1] != 1:
        raise ValueError(f"divisor {den!r} is not monic")
    rem = list(num.coeffs)
    dd = den.degree
    quot = [0] * max(num.degree - dd + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dd]
        if c == 0:
            continue
        quot[i] = c
        for j, dc in enumerate(den.coeffs):
            rem[i + j] = rem[i + j] - c * dc
    rem, quot = Poly(rem), Poly(quot)
    if rem:
        raise ExactDivisionError(f"nonzero remainder {rem!r} dividing {num!r} by {den!r}")
    assert den * quot == num
    return quot


def chebyshev_expand(n: int) -> Poly:
    """Polynomial in wt with sum_p (-1)^p binom(n-p, p) wt^{n-2p}; at
    wt = w + 1/w it equals (w^{n+1} - w^{-n-1}) / (w - 1/w)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = [0] * (n + 1)
    for p in range(n // 2 + 1):
        coeffs[n - 2 * p] = (-1) ** p * math.comb(n - p, p)
    return Poly(coeffs)


# --- Q-polynomials ----------------------------------------------------------


def q_rational_eval(boundary: Boundary, n: int, w):
    """Evaluate the closed rational form of Q_n at an exact point w.

    Works over any exact field containing the coefficients (Fraction, or
    Cyclo for points in Q(q)); an int point is taken as a Fraction, so
    negative powers stay exact.  Poles: w = -1 for periodic and twisted;
    w in {0, 1, -1} for reflecting.
    """
    boundary = Boundary(boundary)
    if isinstance(w, int):
        w = Fraction(w)
    terms, base, power, c = _rational_form(boundary, n)
    if boundary is Boundary.REFLECTING:
        if w == 0 or w == 1 or w == -1:
            raise ZeroDivisionError("w in {0, 1, -1} is a pole of the reflecting rational form")
        num = sum(a * (w**j - w**-j) for a, j in terms)
        den = (w - 1 / w) * (base + w + 1 / w) ** power
    else:
        den = (base + w) ** power
        if den == 0:
            raise ZeroDivisionError(f"w = -1 is a pole of the {boundary.value} rational form")
        num = sum(a * w**j for a, j in terms)
    return num / den / c


def rational_form_fraction(boundary: Boundary, n: int):
    """The closed rational form of Q_n as (terms, base, power, c) with
    Fraction weights and normaliser, every binomial a falling_binom."""
    third = Fraction(1, 3)
    terms = []
    if boundary is Boundary.PERIODIC:
        for k in range(n + 1):
            a = (-1) ** k * falling_binom(n - third, k) * falling_binom(n + third, n - k)
            terms += [((-1) ** n * a, 3 * k + 1), (a, 3 * n - 3 * k)]
        return terms, 1, 2 * n + 1, falling_binom(n - third, n)
    if boundary is Boundary.TWISTED:
        for k in range(n + 1):
            a = (-1) ** k * falling_binom(n - 2 * third, n - k)
            terms += [
                ((-1) ** n * a * falling_binom(n - third, k), 3 * k),
                (-a * falling_binom(n - third, k - 1), 3 * n - 3 * k + 2),
            ]
        return terms, 1, 2 * n, falling_binom(n - third, n)
    up, down = 2 * n + 2 * third, 2 * n - 2 * third
    for k in range(n + 1):
        sgn = (-1) ** (n + k)
        terms.append((sgn * falling_binom(up, n - k) * falling_binom(down, n + k), 3 * k + 1))
        if k:
            terms.append((sgn * falling_binom(up, n + k) * falling_binom(down, n - k), 1 - 3 * k))
    return terms, 2, 2 * n, falling_binom(down, 2 * n)


def evalues_fraction(boundary: Boundary, n: int) -> tuple:
    """e_0..e_n of Q_n from rational_form_fraction: the weights scaled by
    the lcm d of their denominators, the int numerator divided exactly by
    (base + x)^power, and each e-value divided by d c."""
    terms, base, power, c = rational_form_fraction(boundary, n)
    d = math.lcm(*(a.denominator for a, _ in terms))
    num = [0] * (max(abs(j) for _, j in terms) + 1)
    for a, j in terms:
        a = a.numerator * (d // a.denominator)
        if boundary is Boundary.REFLECTING:
            for i, u in enumerate(chebyshev_expand(abs(j) - 1).coeffs):
                num[i] += a * u if j > 0 else -a * u
        else:
            num[j] += a
    den = Poly([math.comb(power, i) * base ** (power - i) for i in range(power + 1)])
    quot = poly_div_exact(Poly(num), den)
    if quot.degree != n or quot[n] != d * c:
        raise ExactDivisionError(f"{boundary.value} Q_{n}: quotient is not monic of degree {n}")
    return tuple((-1) ** l * Fraction(quot[n - l], d * c) for l in range(n + 1))


def hyp_sides_fraction(which: int, n: int):
    """The lower index and the two sides of a hypergeometric identity,
    with the binomial products as Fraction weights."""
    B = falling_binom
    third = Fraction(1, 3)
    ps = range(n + 1)
    if which == 1:
        return 2 * n, [
            (3 * p - n, B(n - third, p) * B(n + third, n - p)) for p in ps
        ], [
            (3 * p - n - 1, B(n - third, n - p) * B(n + third, p)) for p in ps
        ]
    return 2 * n - 1, [
        (3 * p - n, B(n - third, p) * B(n - 2 * third, n - p)) for p in ps
    ], [
        (3 * p - n + 2, B(n - third, n - p - 1) * B(n - 2 * third, p)) for p in ps
    ]


def hyp_failures_fraction(which: int, max_n: int, sides=hyp_sides_fraction):
    """The (n, s) pairs, 0 <= s <= 3n, n <= max_n, where the two sides
    sides(which, n) differ, each summed in Fractions with falling_binom."""
    failures = []
    for n in range(max_n + 1):
        bot, lhs, rhs = sides(which, n)
        for s in range(3 * n + 1):
            if (sum(falling_binom(top + s, bot) * w for top, w in lhs)
                    != sum(falling_binom(top + s, bot) * w for top, w in rhs)):
                failures.append((n, s))
    return failures


def qinv_product_value(n: int) -> Fraction:
    """The simple product 2^n prod (2j-1)/(3j-1) that q^{2n} Q_n(1/q) equals."""
    out = Fraction(2) ** n
    for j in range(1, n + 1):
        out *= Fraction(2 * j - 1, 3 * j - 1)
    return out


def check_special_values(n: int) -> bool:
    """Q_n(0) = (-1)^n, the q^{2n} Q_n(1/q) product formula, and the
    corollary prod (1 + z_j + z_j^2) = (3/4)^n prod ((3j-1)/(2j-1))^2.

    The corollary follows because 1 + z + z^2 = -3 q w / (q w - 1)^2 under
    the variable change, so the product over the roots collapses to
    3^n / (q^{2n} Q_n(1/q))^2 using e_n = 1.
    """
    qp = elem_periodic(n)
    if Poly(qp.coeffs)(Fraction(0)) != (-1) ** n:
        return False
    s = q_at_qinv(qp)
    if not s.is_rational or s.a != qinv_product_value(n):
        return False
    lhs = Fraction(3) ** n / s.a ** 2
    rhs = Fraction(3, 4) ** n
    for j in range(1, n + 1):
        rhs *= Fraction(3 * j - 1, 2 * j - 1) ** 2
    return lhs == rhs


# --- Bethe roots ------------------------------------------------------------


def aberth_mpmath(cs, roots, prec: int):
    """All roots of a monic polynomial (coefficients cs, highest degree
    first) by Aberth-Ehrlich iteration from the start roots, run unchanged
    on Python float/complex or on mpmath mpf/mpc at the working precision.

    Returns the roots and the number of iterations.  Root i stops moving
    once its relative step falls below 2^(4 - prec), or once |p(x_i)| is
    within Horner's rounding bound 4 n 2^-bits sum_k |c_k| |x_i|^k, where
    2^(1 - bits) is mp.eps or the float epsilon.  A stopped root still
    enters the Aberth sum of the others; the iteration ends when every
    root has stopped.
    """
    n = len(cs) - 1
    abs_cs = [abs(c) for c in cs]
    floor = 2 * n * (mp.eps if isinstance(abs_cs[0], mp.mpf) else 2.0**-52)

    def horner(x):
        """p(x), p'(x) and the Horner rounding bound at x, in one pass."""
        ax = abs(x)
        p = dp = bound = 0
        for c, ac in zip(cs, abs_cs):
            dp = dp * x + p
            p = p * x + c
            bound = bound * ax + ac
        return p, dp, floor * bound

    roots = list(roots)
    eps = abs_cs[0] / 2 ** (prec - 4)
    active = range(n)
    cap = 64 + 8 * prec // 16
    for iterations in range(1, cap + 1):
        worst = 0
        moving = []
        for i in active:
            x = roots[i]
            p, dp, noise = horner(x)
            if abs(p) <= noise:
                continue
            if dp == 0:
                roots[i] = x + eps * (1 + x)
                worst = mp.inf
                moving.append(i)
                continue
            newton = p / dp
            s = 0
            for j in range(n):
                if j != i:
                    s += 1 / (x - roots[j])
            denom = 1 - newton * s
            step = newton if denom == 0 else newton / denom
            roots[i] = x - step
            rel = abs(step) / max(1, abs(roots[i]))
            worst = max(worst, rel)
            if rel >= eps:
                moving.append(i)
        active = moving
        if not active:
            break
    else:
        raise NonConvergenceError(
            f"Aberth iteration stalled at correction {mpmath.nstr(worst, 8)} for degree {n}",
            degree=n, precision=prec, iterations=cap, correction=worst,
        )
    return roots, iterations


def reconstruct_error_mpmath(coeffs, roots):
    """Max relative coefficient error |r_k - c_k| / max(1, |c_k|) of
    r(w) = prod (w - root) against the exact coefficients c_k (lowest
    degree first), rebuilt in mpmath at the working precision."""
    rec = [mp.mpc(1)]
    for r in roots:
        new = [mp.mpc(0)] * (len(rec) + 1)
        for k, c in enumerate(rec):
            new[k + 1] += c
            new[k] -= r * c
        rec = new
    err = mp.mpf(0)
    for k, c in enumerate(coeffs):
        cv = mp.mpf(c.numerator) / c.denominator
        err = max(err, abs(rec[k] - cv) / max(mp.mpf(1), abs(cv)))
    return err


def bethe_residual_mpmath(rs: RootSet):
    """Max absolute defect of the Bethe equations over all roots,

        z_i^P = t prod_j (q^2 w_j - w_i)/(w_j - q^2 w_i),

    the w-image of the consistency equations under the variable change,
    with j over the stored roots other than w_i and its mirror
    (j mod n != i).  Closed chains have P = L and t = q^-2 (twisted) or 1
    (periodic).  The reflecting chain has P = 2L and t = 1; its factors at
    the stored reciprocals 1/w_j are the boundary factors
    (q^2 - w_i w_j)/(1 - q^2 w_i w_j).
    """
    with mp.workprec(rs.precision + GUARD_BITS):
        q = _qphase()
        q2 = q * q
        n = rs.n
        if rs.boundary is Boundary.REFLECTING:
            power, twist = 2 * rs.L, 1
        else:
            power, twist = rs.L, q ** (-2) if rs.boundary is Boundary.TWISTED else 1
        q2w = [q2 * w for w in rs.roots]
        worst = mp.mpf(0)
        for i, wi in enumerate(rs.bethe_roots):
            num, den = mp.mpc(twist), mp.mpc(1)
            for j, wj in enumerate(rs.roots):
                if j % n != i:
                    num *= q2w[j] - wi
                    den *= wj - q2w[i]
            worst = max(worst, abs(_pow(_z(wi, q), power) - num / den))
        return worst


def energy_mpmath(rs: RootSet):
    """Eigenvalue -L'/2 * Delta - sum (z_i + 1/z_i - 2 Delta) at
    Delta = -1/2, with L' = L for closed chains and L - 1 for the
    reflecting chain."""
    with mp.workprec(rs.precision + GUARD_BITS):
        q = _qphase()
        delta = mp.mpf(-1) / 2
        lfac = rs.L - 1 if rs.boundary is Boundary.REFLECTING else rs.L
        e = -lfac * delta / 2
        for wi in rs.bethe_roots:
            z = _z(wi, q)
            e -= z + 1 / z - 2 * delta
        return e


def ordered_sum_mpmath(n: int, pair, slot, signs=(1,)):
    """Sum over orderings x_0..x_{n-1} of the roots 0..n-1, each root also
    carrying a sign s_k in signs, of
    prod_k slot(k, x_k, s_k) * prod_{a<b} pair((x_a, s_a), (x_b, s_b)).

    Dynamic programme over the set S of placed (root, sign) pairs (Held and
    Karp, J. SIAM 10, 1962): placing v at slot |S| multiplies by
    slot(|S|, v) and by pair(u, v) for every placed u.  It visits
    (len(signs) + 1)^n states instead of len(signs)^n n! orderings.
    """
    nodes = [(x, s) for x in range(n) for s in signs]
    pairs = {(u, v): pair(u, v) for u in nodes for v in nodes if u[0] != v[0]}
    slots = {(k, v): slot(k, *v) for k in range(n) for v in nodes}
    # a state holds the sign of each placed root and 0 for unplaced ones
    layer = {(0,) * n: mp.mpc(1)}
    for k in range(n):
        nxt = {}
        for state, acc in layer.items():
            placed = [(u, s) for u, s in enumerate(state) if s]
            for v in nodes:
                x, s = v
                if state[x]:
                    continue
                term = acc * slots[k, v]
                for u in placed:
                    term *= pairs[u, v]
                key = state[:x] + (s,) + state[x + 1 :]
                nxt[key] = nxt.get(key, 0) + term
        layer = nxt
    return sum(layer.values(), mp.mpc(0))


def perm_sum_mpmath(rs: RootSet, amp_power: int):
    """Permutation sum over the Bethe roots with amplitude 1/(q z^amp_power)
    (amp_power 1: smallest component, 2: largest), in mpmath."""
    with mp.workprec(rs.precision + GUARD_BITS):
        q = _qphase()
        q2 = q * q
        ws = rs.bethe_roots
        n = len(ws)
        amp = [1 / (q * _pow(_z(w, q), amp_power)) for w in ws]
        return ordered_sum_mpmath(
            n,
            lambda u, v: (ws[u[0]] - q2 * ws[v[0]]) / (ws[v[0]] - ws[u[0]]),
            lambda k, x, s: _pow(amp[x], n - 1 - k),
        )


def wavefunction_component_mpmath(rs: RootSet, positions):
    """Bethe wavefunction component psi(x_1..x_n) for strictly increasing
    site positions (1-based).

    Closed chains sum plain amplitudes over the n! orderings of the roots;
    the reflecting chain sums over orderings and a sign per root (2^n n!
    terms).  Both go through the ordered-sum dynamic programme, in 2^n and
    3^n states respectively.
    """
    positions = list(positions)
    n = rs.n
    if len(positions) != n:
        raise ValueError(f"need {n} positions")
    if any(positions[i] >= positions[i + 1] for i in range(n - 1)):
        raise ValueError("positions must be strictly increasing")
    if n and (positions[0] < 1 or positions[-1] > rs.L):
        raise ValueError("positions must lie in 1..L")
    with mp.workprec(rs.precision + GUARD_BITS):
        q = _qphase()
        q2 = q * q
        ws = rs.bethe_roots
        zs = [_z(w, q) for w in ws]
        if rs.boundary is not Boundary.REFLECTING:
            return ordered_sum_mpmath(
                n,
                lambda u, v: (ws[u[0]] - q2 * ws[v[0]]) / (ws[u[0]] - ws[v[0]]),
                lambda k, x, s: _pow(zs[x], positions[k]),
            )
        L = rs.L

        def slot(k, x, s):
            z = zs[x] ** s
            return _pow(z, positions[k] - L) * (1 + q / z) / (z - 1 / z)

        def pair(u, v):
            (a, s), (b, t) = u, v
            wa, wb = ws[a] ** s, ws[b] ** t
            num = (q2 / wa - 1 / wb) * (q2 - wa * wb)
            return num / ((ws[a] - ws[b]) * (1 - 1 / (ws[a] * ws[b])))

        return ordered_sum_mpmath(n, pair, slot, signs=(1, -1))


def reflecting_double_product_mpmath(rs: RootSet):
    """The double product prod_i prod_j (1 + z_i + z_i z_j) over the 2n
    reflecting variables, excluding j = i and the mirror index j = i +- n.

    Exclusion is by index rather than by value, so coincidences from
    rounding cannot drop factors.
    """
    if rs.boundary is not Boundary.REFLECTING:
        raise ValueError("needs a reflecting RootSet")
    with mp.workprec(rs.precision + GUARD_BITS):
        q = _qphase()
        m = 2 * rs.n
        zs = [_z(w, q) for w in rs.roots]
        total = mp.mpc(1)
        for i in range(m):
            for j in range(m):
                if j == i or j == (i + rs.n) % m:
                    continue
                total *= 1 + zs[i] + zs[i] * zs[j]
        return total


# --- exact diagonalization --------------------------------------------------


def toarray(h: SectorMatrix):
    """The dense complex array of a SectorMatrix."""
    out = np.zeros(h.shape, dtype=complex)
    out[h.rows, h.cols] = h.values
    return out


def build_hamiltonian_loop(L: int, boundary):
    """`ed.build_hamiltonian` one state and one bond at a time, with a
    basis-index lookup per hop: the same (basis, SectorMatrix) pair."""
    boundary = Boundary(boundary)
    closed = boundary is not Boundary.REFLECTING
    low = 2 if closed else 1
    if not low <= L <= MAX_L:
        raise ValueError(f"L must be in {low}..{MAX_L} for the {boundary.value} chain, got {L}")
    basis = SpinBasis(L, default_sector(L))
    rows, cols, values = [], [], []
    bonds = [(j, (j + 1) % L) for j in range(L if closed else L - 1)]
    for idx, s in enumerate(basis.states):
        diag = 0.0
        for a, b in bonds:
            sa = 1 - 2 * ((s >> a) & 1)
            sb = 1 - 2 * ((s >> b) & 1)
            diag += -0.5 * DELTA * sa * sb
            if sa != sb:
                t = s ^ (1 << a) ^ (1 << b)
                amp = -1.0 + 0j
                if boundary is Boundary.TWISTED and a == L - 1 and b == 0:
                    # down spin crossing the seam picks up e^{-+ 2 i phi}
                    moving_down_to_first = ((s >> a) & 1) == 1
                    amp *= np.exp((-2j if moving_down_to_first else 2j) * TWIST_PHI)
                rows.append(basis.index[t])
                cols.append(idx)
                values.append(amp)
        if boundary is Boundary.REFLECTING:
            s1 = 1 - 2 * (s & 1)
            sL = 1 - 2 * ((s >> (L - 1)) & 1)
            diag += BOUNDARY_FIELD * (s1 - sL)
        rows.append(idx)
        cols.append(idx)
        values.append(diag)
    return basis, SectorMatrix(len(basis), rows, cols, values)
