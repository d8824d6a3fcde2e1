"""Groundstate Q-polynomials of the XXZ chain at Delta = -1/2.

For each boundary condition (periodic with L = 2n+1, twisted by pi/3 with
L = 2n, reflecting with L = 2n) the groundstate Bethe roots are the zeros
of a polynomial Q_n whose coefficients are, up to sign, elementary
symmetric function values.  Each boundary has a closed rational form for
Q_n: a sum of binomially weighted powers of w over a power of (1 + w), or,
for the reflecting boundary, of (2 + wt) with wt = w + 1/w.  The weights
are Python ints, cleared over 3^N N! and reduced by their gcd, and one
kernel divides that int numerator exactly by (base + x), one factor at a
time by synthetic division, so a wrong term raises instead of giving a
wrong polynomial.  The recursion and the binomial summation identities
behind the closed forms are checked in ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact import Cyclo, ExactDivisionError, int_binom

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

    The coefficient of w^{n-l} in Q_n(w) is (-1)^l e_l, and coeffs lists
    them lowest degree first.  For the reflecting boundary the variable is
    wt = w + 1/w and the e-values are elementary symmetric functions of
    wt_1..wt_n.
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

    @property
    def coeffs(self) -> list:
        """The monic coefficients of Q_n as Fractions, lowest degree first."""
        n = self.n
        return [Fraction((-1) ** (n - i) * self.evalues[n - i]) for i in range(n + 1)]


def _falling3(t: int, m: int) -> list:
    """[F_t(0), ..., F_t(m)] with F_t(k) = prod_(i<k) (t - 3i) = binom(t/3, k) 3^k k!."""
    out = [1]
    for i in range(m):
        out.append(out[-1] * (t - 3 * i))
    return out


def _rational_form(boundary: Boundary, n: int):
    """The closed rational form of Q_n as (terms, base, power, c), all ints.

    For the periodic and twisted boundaries
        Q_n(w) = sum_(a, j) a w^j / ((base + w)^power c),
    and for the reflecting boundary, with wt = w + 1/w,
        Q_n(wt) = sum_(a, j) a (w^j - w^-j) / ((w - 1/w) (base + wt)^power c).
    The weights a and c are products of binomials binom(t/3, k), cleared
    over 3^N N! (N = n, or 2n if reflecting) and reduced by their gcd.
    """
    terms = []
    if boundary is Boundary.PERIODIC:
        # a_k = (-1)^k binom(n - 1/3, k) binom(n + 1/3, n - k)
        f, g = _falling3(3 * n - 1, n), _falling3(3 * n + 1, n)
        for k in range(n + 1):
            a = (-1) ** k * math.comb(n, k) * f[k] * g[n - k]
            terms += [((-1) ** n * a, 3 * k + 1), (a, 3 * n - 3 * k)]
        base, power, c = 1, 2 * n + 1, f[n]
    elif boundary is Boundary.TWISTED:
        # (-1)^k binom(n - 2/3, n - k) binom(n - 1/3, k or k - 1); the k - 1
        # weight carries a factor 3k, so it is 0 at k = 0
        f, g = _falling3(3 * n - 1, n), _falling3(3 * n - 2, n)
        for k in range(n + 1):
            a = (-1) ** k * math.comb(n, k) * g[n - k]
            terms += [((-1) ** n * a * f[k], 3 * k), (-a * 3 * k * f[k - 1], 3 * n - 3 * k + 2)]
        base, power, c = 1, 2 * n, f[n]
    else:
        # (-1)^(n+k) binom(2n + 2/3, n -/+ k) binom(2n - 2/3, n +/- k), the second for k > 0
        up, down = _falling3(6 * n + 2, 2 * n), _falling3(6 * n - 2, 2 * n)
        for k in range(n + 1):
            b = (-1) ** (n + k) * math.comb(2 * n, n + k)
            terms.append((b * up[n - k] * down[n + k], 3 * k + 1))
            if k:
                terms.append((b * up[n + k] * down[n - k], 1 - 3 * k))
        base, power, c = 2, 2 * n, down[2 * n]
    d = math.gcd(c, *(a for a, _ in terms))
    return [(a // d, j) for a, j in terms], base, power, c // d


def _chebyshev_sum(weights: list) -> list:
    """sum_m weights[m] U_m(x) as int coefficients, lowest degree first,
    where U_0 = 1, U_1 = x and U_(m+1) = x U_m - U_(m-1), so that
    U_m(w + 1/w) = (w^(m+1) - w^-(m+1)) / (w - 1/w).  Clenshaw's recurrence
    b_m = weights[m] + x b_(m+1) - b_(m+2) ends at the sum b_0."""
    b1, b2 = [], []
    for wm in reversed(weights):
        b = [wm, *b1]
        for i, v in enumerate(b2):
            b[i] -= v
        b1, b2 = b, b1
    return b1


def _rational_form_quotient(boundary: Boundary, n: int) -> QPolynomial:
    """Q_n as the exact quotient of its closed rational form.

    The int numerator (weights over 3^N N!, reduced by their gcd; for the
    reflecting boundary a Chebyshev sum in wt) is divided in place by
    (base + x), x = w or wt, power times by synthetic division; each
    e-value is one Fraction of a quotient coefficient over c.  A remainder
    raises ExactDivisionError, and so does a quotient that is not c times a
    monic of degree n, so a wrong term cannot return a wrong polynomial.
    """
    terms, base, power, c = _rational_form(boundary, n)
    if boundary is Boundary.REFLECTING:
        # (w^j - w^-j) / (w - 1/w) is odd in j and equals U_(|j|-1)(wt)
        weights = [0] * max(abs(j) for _, j in terms)
        for a, j in terms:
            weights[abs(j) - 1] += a if j > 0 else -a
        num = _chebyshev_sum(weights)
    else:
        num = [0] * (max(j for _, j in terms) + 1)
        for a, j in terms:
            num[j] += a
    for factor in range(1, power + 1):
        r = 0
        for i in range(len(num) - 1, -1, -1):
            r = num[i] = num[i] - base * r
        if r:
            raise ExactDivisionError(
                f"{boundary.value} Q_{n} rational form: nonzero remainder"
                f" at factor {factor} of ({base} + x)^{power}"
            )
        del num[0]
    while num and num[-1] == 0:  # the twisted numerator's top weight is 0
        num.pop()
    if len(num) != n + 1 or num[n] != c:
        raise ExactDivisionError(
            f"{boundary.value} Q_{n} rational form: quotient is not monic of degree {n}"
        )
    evalues = tuple(Fraction((-1) ** l * num[n - l], c) for l in range(n + 1))
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


def _convolve(p: list, q: list) -> list:
    """The product of two int coefficient lists, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def check_recursion_periodic(n: int) -> bool:
    """Exact polynomial identity
    (w+1)^2 (3n+2) Q_{n+1} = 3 (w^3-1)(2n+1) Q_n - (w^2-w+1)^2 (3n+1) Q_{n-1}
    with all three polynomials built independently from their e-values,
    each scaled to ints by the lcm of all their coefficient denominators."""
    if n < 1:
        raise ValueError("n must be >= 1")
    qs = [elem_periodic(m).coeffs for m in (n - 1, n, n + 1)]
    d = math.lcm(*(c.denominator for q in qs for c in q))
    qm, qn, qp = ([c.numerator * (d // c.denominator) for c in q] for q in qs)
    # (w+1)^2, w^3-1 and (w^2-w+1)^2, lowest degree first; all three
    # products have degree n + 3
    lhs = _convolve([(3 * n + 2) * c for c in (1, 2, 1)], qp)
    rhs = [x - y for x, y in zip(_convolve([3 * (2 * n + 1) * c for c in (-1, 0, 0, 1)], qn),
                                  _convolve([(3 * n + 1) * c for c in (1, -2, 3, -2, 1)], qm))]
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
    fixed n.  Each side is a list of (top, weight) pairs for the int sum
    of int_binom(top + s, bottom) * weight; the weights, products of two
    binom(n + t/3, k), are cleared over 3^n n! as in _rational_form and do
    not depend on s."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    # binom(n - 1/3, k) and binom(n + 1/3, k) or binom(n - 2/3, k), times 3^k k!
    f = _falling3(3 * n - 1, n)
    g = _falling3(3 * n + 1 if which == 1 else 3 * n - 2, n)
    ps = range(n + 1)
    lhs = [(3 * p - n, math.comb(n, p) * f[p] * g[n - p]) for p in ps]
    if which == 1:
        return 2 * n, lhs, [(3 * p - n - 1, math.comb(n, p) * f[n - p] * g[p]) for p in ps]
    # binom(n - 1/3, n - p - 1) carries a factor 3 (n - p), so it is 0 at p = n
    return 2 * n - 1, lhs, [
        (3 * p - n + 2, 3 * (n - p) * math.comb(n, p) * f[n - p - 1] * g[p]) for p in ps
    ]


def _hyp_holds(sides, s: int) -> bool:
    bot, lhs, rhs = sides
    return (sum(int_binom(top + s, bot) * w for top, w in lhs)
            == sum(int_binom(top + s, bot) * w for top, w in rhs))


def verify_hyp_identity(which: int, n: int, s: int) -> bool:
    """Exact check of the two binomial summation identities that collapse
    the infinite tails in the Q-coefficient derivations.

    Identity 1:
      sum_p binom(3p-n+s, 2n)   binom(n-1/3, p)     binom(n+1/3, n-p)
    = sum_p binom(3p-n+s-1, 2n) binom(n-1/3, n-p)   binom(n+1/3, p)

    Identity 2 (lower index 2n-1; the printed 2n fails for every s):
      sum_p binom(3p-n+s, 2n-1)   binom(n-1/3, p)     binom(n-2/3, n-p)
    = sum_p binom(3p-n+s+2, 2n-1) binom(n-1/3, n-p-1) binom(n-2/3, p)

    Binomials are generalized, so negative integer tops stay nonzero;
    identity 1 then holds for all 0 <= s <= 3n (the truncating gen_binom
    fails it for s <= n).  Both sides are int sums, the weights cleared
    over 3^n n!.
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
