"""Groundstate Q-polynomials of the XXZ chain at Delta = -1/2.

For each boundary condition (periodic with L = 2n+1, twisted by pi/3 with
L = 2n, reflecting with L = 2n) the groundstate Bethe roots are the zeros
of a polynomial Q_n whose coefficients are, up to sign, elementary
symmetric function values.  Each boundary has a closed rational form for
Q_n: a sum of binomially weighted powers of w over a power of (1 + w), or,
for the reflecting boundary, one weighted power w^(3k+1) per signed
k = -n..n over a power of (2 + wt) with wt = w + 1/w.  The nonzero weights
are Python ints, cleared over 3^N N! and reduced by their gcd, and one
kernel divides that int numerator exactly by (base + x), one factor at a
time by synthetic division, so a wrong term raises instead of giving a
wrong polynomial.  Q_n is held as the int polynomial D Q_n that division
leaves, with content 1, and every reader takes it as it is.  The
recursion and the binomial summation identities behind the closed forms
are checked in ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact import ExactDivisionError, int_binom

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
    """Q_n for one boundary condition, held as the int polynomial D Q_n.

    ints lists the coefficients of D Q_n, lowest degree first, with
    content 1, so D = ints[n] > 0 is the lcm of the e-value denominators.
    The coefficient of w^{n-l} in Q_n(w) is (-1)^l e_l.  For the
    reflecting boundary the variable is wt = w + 1/w and the e-values are
    elementary symmetric functions of wt_1..wt_n.
    """

    boundary: Boundary
    n: int
    ints: tuple

    def __post_init__(self):
        n, ints = self.n, self.ints
        if len(ints) != n + 1:
            raise ValueError("need the n + 1 coefficients of D Q_n")
        if ints[n] <= 0:
            raise ValueError("D = ints[n] must be positive")
        if math.gcd(*ints) != 1:
            raise ValueError("D Q_n must have content 1")
        if self.boundary is Boundary.PERIODIC and ints[0] != (-1) ** n * ints[n]:
            raise ValueError("periodic Q_n(0) must be (-1)^n")

    @property
    def evalues(self) -> tuple:
        """e_0..e_n as Fractions, e_l = (-1)^l ints[n - l] / D."""
        n, d = self.n, self.ints[self.n]
        return tuple(Fraction((-1) ** l * self.ints[n - l], d) for l in range(n + 1))


def _falling3(t: int, m: int) -> list:
    """[F_t(0), ..., F_t(m)] with F_t(k) = prod_(i<k) (t - 3i) = binom(t/3, k) 3^k k!."""
    out = [1]
    for i in range(m):
        out.append(out[-1] * (t - 3 * i))
    return out


def _closed_weights(boundary: Boundary, n: int):
    """The weight rows u, v of a closed boundary and c = F_(3n-1)(n), ints
    cleared over 3^n n!: binom(n + t/3, k) = F_(3n+t)(k) / (3^k k!).

    Periodic, from binom(n - 1/3, k) binom(n + 1/3, n - k):
        u_k = v_k = C(n, k) F_(3n-1)(k) F_(3n+1)(n - k).
    Twisted, from binom(n - 1/3, k or k - 1) binom(n - 2/3, n - k):
        u_k = C(n, k) F_(3n-1)(k) F_(3n-2)(n - k),
        v_k = 3k C(n, k) F_(3n-1)(k - 1) F_(3n-2)(n - k), so v_0 = 0.
    """
    periodic = boundary is Boundary.PERIODIC
    f, g = _falling3(3 * n - 1, n), _falling3(3 * n + 1 if periodic else 3 * n - 2, n)
    u = [math.comb(n, k) * f[k] * g[n - k] for k in range(n + 1)]
    v = u if periodic else [3 * k * math.comb(n, k) * f[k - 1] * g[n - k] for k in range(n + 1)]
    return u, v, f[n]


def _rational_form(boundary: Boundary, n: int):
    """The closed rational form of Q_n as (terms, base, power, c), all ints.

    For the periodic and twisted boundaries
        Q_n(w) = sum_(a, j) a w^j / ((base + w)^power c),
    with the weights of _closed_weights,
        periodic: sum_k (-1)^k u_k ((-1)^n w^(3k+1) + w^(3n-3k)) over (1 + w)^(2n+1),
        twisted:  sum_k (-1)^k ((-1)^n u_k w^(3k) - v_k w^(3n-3k+2)) over (1 + w)^(2n),
    and for the reflecting boundary, with wt = w + 1/w,
        Q_n(wt) = sum_(a, j) a (w^j - w^-j) / ((w - 1/w) (base + wt)^power c),
    one term a = (-1)^(n+k) C(2n, n+k) F_(6n+2)(n-k) F_(6n-2)(n+k) on
    j = 3k + 1 for each k = -n..n.  The weights a and c are products of
    binomials binom(t/3, k), cleared over 3^N N! (N = n, or 2n if
    reflecting) and reduced by their gcd.  Terms of weight 0 are left out;
    the twisted v_0 is the only one, as no F_t(k) used here has 3 | t.
    """
    if boundary is Boundary.REFLECTING:
        # (-1)^(n+k) binom(2n + 2/3, n - k) binom(2n - 2/3, n + k) over signed k
        up, down = _falling3(6 * n + 2, 2 * n), _falling3(6 * n - 2, 2 * n)
        terms = [((-1) ** (n + k) * math.comb(2 * n, n + k) * up[n - k] * down[n + k], 3 * k + 1)
                 for k in range(-n, n + 1)]
        base, power, c = 2, 2 * n, down[2 * n]
    else:
        t = int(boundary is Boundary.TWISTED)
        u, v, c = _closed_weights(boundary, n)
        terms = []
        for k in range(n + 1):
            terms += [((-1) ** (n + k) * u[k], 3 * k + 1 - t),
                      ((-1) ** (k + t) * v[k], 3 * n - 3 * k + 2 * t)]
        base, power = 1, 2 * n + 1 - t
    d = math.gcd(c, *(a for a, _ in terms))
    return [(a // d, j) for a, j in terms if a], base, power, c // d


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
    (base + x), x = w or wt, power times by synthetic division.  The
    quotient is c Q_n; divided by its content it is the D Q_n that
    QPolynomial holds.  A remainder raises ExactDivisionError, and so does
    a quotient that is not c times a monic of degree n, so a wrong term
    cannot return a wrong polynomial.
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
    if len(num) != n + 1 or num[n] != c:
        raise ExactDivisionError(
            f"{boundary.value} Q_{n} rational form: quotient is not monic of degree {n}"
        )
    g = math.gcd(*num)
    return QPolynomial(boundary, n, tuple(x // g for x in num))


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
    with all three polynomials built independently, each D Q_m scaled to
    ints over the lcm of the three D's."""
    if n < 1:
        raise ValueError("n must be >= 1")
    qs = [elem_periodic(m).ints for m in (n - 1, n, n + 1)]
    d = math.lcm(*(q[-1] for q in qs))
    qm, qn, qp = ([c * (d // q[-1]) for c in q] for q in qs)
    # (w+1)^2, w^3-1 and (w^2-w+1)^2, lowest degree first; all three
    # products have degree n + 3
    lhs = _convolve([(3 * n + 2) * c for c in (1, 2, 1)], qp)
    rhs = [x - y for x, y in zip(_convolve([3 * (2 * n + 1) * c for c in (-1, 0, 0, 1)], qn),
                                  _convolve([(3 * n + 1) * c for c in (1, -2, 3, -2, 1)], qm))]
    return lhs == rhs


def q_at_qinv(qp: QPolynomial) -> tuple:
    """The int pair (A, B) with q^{2n} Q_n(1/q) = (A + B q) / D, D = ints[n].
    D q^{2n} Q_n(1/q) = sum_k c_k q^{2n-k} over the coefficients c_k of
    D Q_n, and q^6 = 1, so the c_k are summed by 2n - k mod 6 and
    q^0..q^5 = 1, q, q - 1, -1, -q, 1 - q."""
    s = [0] * 6
    for k, c in enumerate(qp.ints):
        s[(2 * qp.n - k) % 6] += c
    return s[0] - s[2] - s[3] + s[5], s[1] + s[2] - s[4] - s[5]


def _hyp_sides(which: int, n: int):
    """The lower index and the two sides of a hypergeometric identity at
    fixed n.  Each side is a list of (top, weight) pairs for the int sum
    of int_binom(top + s, bottom) * weight: [(3p - n, u_p)] and
    [(3p - n + shift, v_(n-p))] over the weight rows of _closed_weights,
    which do not depend on s.  Identity 1 reads the periodic rows (bottom
    2n, shift -1), identity 2 the twisted rows (bottom 2n - 1, shift 2)."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    u, v, _ = _closed_weights(Boundary.PERIODIC if which == 1 else Boundary.TWISTED, n)
    bottom, shift = (2 * n, -1) if which == 1 else (2 * n - 1, 2)
    ps = range(n + 1)
    return bottom, [(3 * p - n, u[p]) for p in ps], [(3 * p - n + shift, v[n - p]) for p in ps]


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
