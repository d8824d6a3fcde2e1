"""Groundstate Q-polynomials of the XXZ chain at Delta = -1/2.

For each boundary condition (periodic with L = 2n+1, twisted by pi/3 with
L = 2n, reflecting with L = 2n) the groundstate Bethe roots are the zeros
of a polynomial Q_n whose coefficients are, up to sign, elementary
symmetric function values.  Each boundary has a closed rational form for
Q_n: a sum of binomially weighted powers of w over a power of (1 + w), or,
for the reflecting boundary, of (2 + wt) with wt = w + 1/w.  One kernel
builds all three coefficient lists by dividing that numerator exactly by
the denominator, so a wrong term leaves a remainder and raises instead of
giving a wrong polynomial.  The module also verifies the recursion and
the binomial summation identities behind the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact import (
    Cyclo,
    ExactDivisionError,
    Poly,
    falling_binom,
    gen_binom,
    poly_div_exact,
)

__all__ = [
    "Boundary",
    "QPolynomial",
    "elem_periodic",
    "elem_twisted",
    "elem_reflecting",
    "check_recursion_periodic",
    "q_at_qinv",
    "verify_hyp_identity",
    "hyp_failures",
    "chebyshev_expand",
]


class Boundary(str, Enum):
    PERIODIC = "periodic"
    TWISTED = "twisted"
    REFLECTING = "reflecting"

    def chain_length(self, n: int) -> int:
        """System size L paired with n Bethe roots."""
        if self is Boundary.PERIODIC:
            return 2 * n + 1
        return 2 * n


@dataclass(frozen=True)
class QPolynomial:
    """Q_n for one boundary condition, held as its e-values.

    The coefficient of w^{n-l} in Q_n(w) is (-1)^l e_l.  For the
    reflecting boundary the variable is wt = w + 1/w and the e-values are
    elementary symmetric functions of wt_1..wt_n.
    """

    boundary: Boundary
    n: int
    evalues: tuple

    def __post_init__(self):
        if len(self.evalues) != self.n + 1:
            raise ValueError("need e_0..e_n")
        if self.evalues[0] != 1:
            raise ValueError("e_0 must be 1")
        if self.boundary is Boundary.PERIODIC and self.evalues[self.n] != 1:
            raise ValueError("periodic e_n must be 1 (Q_n(0) = (-1)^n)")

    def poly(self) -> Poly:
        """Monic polynomial, coefficients lowest degree first."""
        n = self.n
        coeffs = [Fraction(0)] * (n + 1)
        for l, e in enumerate(self.evalues):
            coeffs[n - l] = (-1) ** l * e
        return Poly(coeffs)

    def __call__(self, w):
        return self.poly()(w)


def _rational_form(boundary: Boundary, n: int):
    """The closed rational form of Q_n as (terms, base, power, c).

    For the periodic and twisted boundaries
        Q_n(w) = sum_(a, j) a w^j / ((base + w)^power c),
    and for the reflecting boundary, with wt = w + 1/w,
        Q_n(wt) = sum_(a, j) a (w^j - w^-j) / ((w - 1/w) (base + wt)^power c).
    """
    third = Fraction(1, 3)
    terms = []
    if boundary is Boundary.PERIODIC:
        for k in range(n + 1):
            a = (-1) ** k * gen_binom(n - third, k) * gen_binom(n + third, n - k)
            terms += [((-1) ** n * a, 3 * k + 1), (a, 3 * n - 3 * k)]
        return terms, 1, 2 * n + 1, gen_binom(n - third, n)
    if boundary is Boundary.TWISTED:
        for k in range(n + 1):
            a = (-1) ** k * gen_binom(n - 2 * third, n - k)
            terms += [
                ((-1) ** n * a * gen_binom(n - third, k), 3 * k),
                (-a * gen_binom(n - third, k - 1), 3 * n - 3 * k + 2),
            ]
        return terms, 1, 2 * n, gen_binom(n - third, n)
    up, down = 2 * n + 2 * third, 2 * n - 2 * third
    for k in range(n + 1):
        sgn = (-1) ** (n + k)
        terms.append((sgn * gen_binom(up, n - k) * gen_binom(down, n + k), 3 * k + 1))
        if k:
            terms.append((sgn * gen_binom(up, n + k) * gen_binom(down, n - k), 1 - 3 * k))
    return terms, 2, 2 * n, gen_binom(down, 2 * n)


def _rational_form_quotient(boundary: Boundary, n: int) -> QPolynomial:
    """Q_n as the exact quotient of its closed rational form.

    The weights are scaled by the lcm d of their denominators, and the int
    numerator is divided in ints by the monic (base + x)^power, x = w or
    wt; only the e-values are divided by d c.  A remainder raises
    ExactDivisionError, and so does a quotient that is not d c times a monic
    of degree n, so a wrong term in the form cannot return a wrong polynomial.
    """
    terms, base, power, c = _rational_form(boundary, n)
    d = math.lcm(*(a.denominator for a, _ in terms))
    num = [0] * (max(abs(j) for _, j in terms) + 1)
    for a, j in terms:
        a = a.numerator * (d // a.denominator)
        if boundary is Boundary.REFLECTING:
            # (w^j - w^-j) / (w - 1/w) is odd in j and a polynomial in wt
            for i, u in enumerate(chebyshev_expand(abs(j) - 1).coeffs):
                num[i] += a * u if j > 0 else -a * u
        else:
            num[j] += a
    den = Poly([math.comb(power, i) * base ** (power - i) for i in range(power + 1)])
    quot = poly_div_exact(Poly(num), den)
    if quot.degree != n or quot[n] != d * c:
        raise ExactDivisionError(
            f"{boundary.value} Q_{n} rational form: quotient is not monic of degree {n}"
        )
    evalues = tuple((-1) ** l * Fraction(quot[n - l], d * c) for l in range(n + 1))
    return QPolynomial(boundary, n, evalues)


def elem_periodic(n: int) -> QPolynomial:
    """Exact e-values at the periodic groundstate roots (L = 2n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _rational_form_quotient(Boundary.PERIODIC, n)


def elem_twisted(n: int) -> QPolynomial:
    """Exact e-values at the twisted (phi = pi/3) groundstate roots (L = 2n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rational_form_quotient(Boundary.TWISTED, n)


def elem_reflecting(n: int) -> QPolynomial:
    """Exact e-values of wt_1..wt_n at the reflecting groundstate roots."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rational_form_quotient(Boundary.REFLECTING, n)


def elem_for(boundary: Boundary, n: int) -> QPolynomial:
    boundary = Boundary(boundary)
    if boundary is Boundary.PERIODIC:
        return elem_periodic(n)
    if boundary is Boundary.TWISTED:
        return elem_twisted(n)
    return elem_reflecting(n)


def check_recursion_periodic(n: int) -> bool:
    """Exact polynomial identity
    (w+1)^2 (3n+2) Q_{n+1} = 3 (w^3-1)(2n+1) Q_n - (w^2-w+1)^2 (3n+1) Q_{n-1}
    with all three polynomials built independently from their e-values."""
    if n < 1:
        raise ValueError("n must be >= 1")
    qm = elem_periodic(n - 1).poly()
    qn = elem_periodic(n).poly()
    qp = elem_periodic(n + 1).poly()
    one = Fraction(1)
    wp1 = Poly([one, one])
    w3m1 = Poly([-one, 0, 0, one])
    ww1 = Poly([one, -one, one])
    lhs = wp1 * wp1 * qp.scale(3 * n + 2)
    rhs = w3m1 * qn.scale(3 * (2 * n + 1)) - ww1 * ww1 * qm.scale(3 * n + 1)
    return lhs == rhs


def q_at_qinv(qp: QPolynomial) -> Cyclo:
    """q^{2n} Q_n(1/q) = sum_l (-1)^l e_l q^{n+l} = sum_l e_l q^{n+4l}
    (-1 = q^3), exactly in Q(q): q^6 = 1, so the e-values are summed by
    n + 4l mod 6 and q^0..q^5 = 1, q, q - 1, -1, -q, 1 - q."""
    s = [0] * 6
    for l, e in enumerate(qp.evalues):
        s[(qp.n + 4 * l) % 6] += e
    return Cyclo(s[0] - s[2] - s[3] + s[5], s[1] + s[2] - s[4] - s[5])


def _hyp_sides(which: int, n: int):
    """The lower index and the two sides of a hypergeometric identity at
    fixed n.  Each side is a list of (top, weight) pairs and equals
    sum falling_binom(top + s, bottom) * weight; the weights do not depend
    on s."""
    B = falling_binom
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)
    ps = range(n + 1)
    if which == 1:
        return 2 * n, [
            (3 * p - n, B(n - third, p) * B(n + third, n - p)) for p in ps
        ], [
            (3 * p - n - 1, B(n - third, n - p) * B(n + third, p)) for p in ps
        ]
    if which != 2:
        raise ValueError("which must be 1 or 2")
    return 2 * n - 1, [
        (3 * p - n, B(n - third, p) * B(n - two_thirds, n - p)) for p in ps
    ], [
        (3 * p - n + 2, B(n - third, n - p - 1) * B(n - two_thirds, p)) for p in ps
    ]


def _hyp_holds(sides, s: int) -> bool:
    bot, lhs, rhs = sides
    return (sum(falling_binom(top + s, bot) * w for top, w in lhs)
            == sum(falling_binom(top + s, bot) * w for top, w in rhs))


def verify_hyp_identity(which: int, n: int, s: int) -> bool:
    """Exact check of the two binomial summation identities that collapse
    the infinite tails in the Q-coefficient derivations.

    Identity 1:
      sum_p binom(3p-n+s, 2n)   binom(n-1/3, p)     binom(n+1/3, n-p)
    = sum_p binom(3p-n+s-1, 2n) binom(n-1/3, n-p)   binom(n+1/3, p)

    Identity 2 (lower index 2n-1; the printed 2n fails for every s):
      sum_p binom(3p-n+s, 2n-1)   binom(n-1/3, p)     binom(n-2/3, n-p)
    = sum_p binom(3p-n+s+2, 2n-1) binom(n-1/3, n-p-1) binom(n-2/3, p)

    Binomials are generalized falling factorials, so negative integer
    tops stay nonzero; under that convention identity 1 holds for all
    0 <= s <= 3n (with the truncating gen_binom it fails for s <= n).
    """
    return _hyp_holds(_hyp_sides(which, n), s)


def hyp_failures(which: int, max_n: int):
    """All (n, s) pairs with 0 <= s <= 3n, n <= max_n where the identity
    fails."""
    failures = []
    for n in range(max_n + 1):
        sides = _hyp_sides(which, n)
        failures.extend((n, s) for s in range(3 * n + 1) if not _hyp_holds(sides, s))
    return failures


def chebyshev_expand(n: int) -> Poly:
    """Polynomial in wt with sum_p (-1)^p binom(n-p, p) wt^{n-2p}; at
    wt = w + 1/w it equals (w^{n+1} - w^{-n-1}) / (w - 1/w)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = [0] * (n + 1)
    for p in range(n // 2 + 1):
        coeffs[n - 2 * p] = (-1) ** p * math.comb(n - p, p)
    return Poly(coeffs)
