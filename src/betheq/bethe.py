"""Arbitrary-precision Bethe-root extraction and certification.

Roots of the exact Q-polynomials are found by Aberth-Ehrlich simultaneous
iteration at a stated binary precision and certified three ways:
coefficient reconstruction, Bethe-equation residuals, and (downstream)
comparison against exact diagonalization.  All tolerances are relative to
the working precision.

One Aberth kernel runs twice (Bini, Numer. Algorithms 13, 1996; Bini and
Robol, J. Comput. Appl. Math. 272, 2014): a 53-bit pass on Python complex
walks in from a circle and seeds the multiprecision pass.  Each root stops
moving once its relative step is below 2^(4 - precision) or its value
|p(x)| is within the rounding bound of Horner's rule, so each pass ends
at its rounding floor instead of running into its iteration cap there.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath
from mpmath import mp

from .qfunctions import Boundary, QPolynomial

__all__ = [
    "RootSet",
    "NonConvergenceError",
    "solve_roots",
    "bethe_residual",
    "energy",
    "component_sum_small",
    "component_sum_large",
    "wavefunction_component",
    "reflecting_double_product",
]

GUARD_BITS = 64


class NonConvergenceError(ArithmeticError):
    """Root iteration failed to converge.

    Carries the polynomial degree, the requested precision (bits), the
    Aberth iterations run and the failing correction: the worst relative
    step when the iteration cap is hit, or the coefficient reconstruction
    error when the roots fail that check.
    """

    def __init__(self, message, *, degree, precision, iterations, correction):
        super().__init__(message)
        self.degree = degree
        self.precision = precision
        self.iterations = iterations
        self.correction = correction


def _mpf_frac(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def _qphase():
    """q = exp(i pi/3) at the current working precision."""
    return mp.expjpi(mp.mpf(1) / 3)


def _z(w, q):
    """z = (q - w)/(q w - 1) at the caller's working precision."""
    return (q - w) / (q * w - 1)


@dataclass(frozen=True)
class RootSet:
    """Certified numeric roots of one Q-polynomial.

    For the reflecting boundary, wt_roots holds the n roots in the
    wt = w + 1/w variable and roots holds the 2n split values with
    roots[i + n] = 1/roots[i] exactly by construction.  iterations counts
    the multiprecision Aberth iterations and reconstruction_error is the
    max relative coefficient error of the polynomial rebuilt from the
    roots (wt_roots for reflecting).
    """

    boundary: Boundary
    n: int
    L: int
    precision: int
    roots: tuple
    wt_roots: tuple | None
    residual: object
    iterations: int
    reconstruction_error: object

    @property
    def bethe_roots(self):
        """The n roots entering the Bethe equations (first branch for
        reflecting)."""
        return self.roots[: self.n]


def _circle(cs):
    """Aberth's start: n points on the circle of radius max(1, max|c_k|)^(1/n)."""
    n = len(cs) - 1
    radius = max(mp.mpf(1), *map(abs, cs)) ** (mp.mpf(1) / n)
    return [
        radius * mp.expjpi(mp.mpf(2 * j) / n + mp.mpf(1) / (2 * n) + mp.mpf(j) / (7 * n * n))
        for j in range(n)
    ]


def _aberth(cs, roots, prec: int):
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


def _seed(cs):
    """Start roots for the multiprecision pass: the roots of a 53-bit
    _aberth pass on Python complex from the circle, or the circle itself
    when that pass raises (overflow, zero divisor, its cap), when its
    coefficients or roots are not finite or its roots not distinct."""
    circle = _circle(cs)
    floats = [float(c) for c in cs]  # inf beyond the double range
    try:
        roots, _ = _aberth(floats, [complex(x) for x in circle], 53)
    except ArithmeticError:
        return circle
    usable = len(set(roots)) == len(roots) and all(map(cmath.isfinite, floats + roots))
    return [mp.mpc(x) for x in roots] if usable else circle


def _reconstruct_error(coeffs, roots):
    """Max relative coefficient error of prod (w - root) vs the exact
    coefficients."""
    rec = [mp.mpc(1)]
    for r in roots:
        new = [mp.mpc(0)] * (len(rec) + 1)
        for k, c in enumerate(rec):
            new[k + 1] += c
            new[k] -= r * c
        rec = new
    err = mp.mpf(0)
    for k, c in enumerate(coeffs):
        cv = _mpf_frac(c)
        scale = max(mp.mpf(1), abs(cv))
        err = max(err, abs(rec[k] - cv) / scale)
    return err


def solve_roots(qp: QPolynomial, precision: int = 256) -> RootSet:
    """Find all roots of a Q-polynomial at the given precision (bits).

    A 53-bit _aberth pass seeds the multiprecision pass (see _seed).  The
    polynomial rebuilt from the roots must match the exact coefficients to
    2^(20-precision) relative, else NonConvergenceError.
    Iteration and reconstruction run with ceil(log2 max|c_k|) bits beyond
    precision + GUARD_BITS, so that rounding in the large coefficients
    does not eat into that bound; the returned roots are rounded to
    precision + GUARD_BITS.
    For the reflecting boundary the wt-roots are split through
    w^2 - wt*w + 1 = 0, keeping the branch with |w| >= 1 (tie: positive
    imaginary part); the mirror branch is stored as the exact reciprocal.
    """
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    n = qp.n
    coeffs = list(qp.poly().coeffs)
    top = max(abs(c) for c in coeffs)
    # ceil(log2 top): the bit length of ceil(top) - 1 (top >= 1, monic)
    extra = (-(-top.numerator // top.denominator) - 1).bit_length()
    with mp.workprec(precision + GUARD_BITS + extra):
        cs = [_mpf_frac(c) for c in reversed(coeffs)]
        roots, iterations = _aberth(cs, _seed(cs), precision) if n > 0 else ([], 0)
        err = _reconstruct_error(coeffs, roots) if n > 0 else mp.mpf(0)
        tol = mp.mpf(2) ** (20 - precision)
        if err > tol:
            raise NonConvergenceError(
                f"coefficient reconstruction error {mpmath.nstr(err, 8)}"
                f" exceeds {mpmath.nstr(tol, 8)}",
                degree=n, precision=precision, iterations=iterations, correction=err,
            )
        wt = None
        if qp.boundary is Boundary.REFLECTING:
            wt, roots = roots, []
            for t in wt:
                disc = mp.sqrt(t * t - 4)
                cands = [(t + disc) / 2, (t - disc) / 2]
                cands.sort(key=lambda w: (abs(w), mp.im(w)), reverse=True)
                roots.append(cands[0])
    with mp.workprec(precision + GUARD_BITS):
        roots = tuple(+w for w in roots)
        if wt is not None:
            wt = tuple(+t for t in wt)
            roots += tuple(1 / w for w in roots)
        rs = RootSet(
            boundary=qp.boundary,
            n=n,
            L=qp.boundary.chain_length(n),
            precision=precision,
            roots=roots,
            wt_roots=wt,
            residual=None,
            iterations=iterations,
            reconstruction_error=err,
        )
        return replace(rs, residual=bethe_residual(rs))


def bethe_residual(rs: RootSet):
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
        worst = mp.mpf(0)
        for i, wi in enumerate(rs.bethe_roots):
            prod_term = mp.mpc(twist)
            for j, wj in enumerate(rs.roots):
                if j % n != i:
                    prod_term *= (q2 * wj - wi) / (wj - q2 * wi)
            worst = max(worst, abs(_z(wi, q) ** power - prod_term))
        return worst


def energy(rs: RootSet):
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


def _ordered_sum(n: int, pair, slot, signs=(1,)):
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


def _perm_sum(rs: RootSet, amp_power: int):
    with mp.workprec(rs.precision + GUARD_BITS):
        q = _qphase()
        q2 = q * q
        ws = rs.bethe_roots
        n = len(ws)
        amp = [1 / (q * _z(w, q) ** amp_power) for w in ws]
        return _ordered_sum(
            n,
            lambda u, v: (ws[u[0]] - q2 * ws[v[0]]) / (ws[v[0]] - ws[u[0]]),
            lambda k, x, s: amp[x] ** (n - 1 - k),
        )


def component_sum_small(rs: RootSet):
    """Permutation sum giving the smallest groundstate component (equals
    the ASM count for the periodic groundstate)."""
    return _perm_sum(rs, 1)


def component_sum_large(rs: RootSet):
    """Permutation sum giving the largest groundstate component (equals
    the squared ASM count for the periodic groundstate)."""
    return _perm_sum(rs, 2)


def wavefunction_component(rs: RootSet, positions):
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
            return _ordered_sum(
                n,
                lambda u, v: (ws[u[0]] - q2 * ws[v[0]]) / (ws[u[0]] - ws[v[0]]),
                lambda k, x, s: zs[x] ** positions[k],
            )
        L = rs.L

        def slot(k, x, s):
            z = zs[x] ** s
            return z ** (positions[k] - L) * (1 + q / z) / (z - 1 / z)

        def pair(u, v):
            (a, s), (b, t) = u, v
            wa, wb = ws[a] ** s, ws[b] ** t
            num = (q2 / wa - 1 / wb) * (q2 - wa * wb)
            return num / ((ws[a] - ws[b]) * (1 - 1 / (ws[a] * ws[b])))

        return _ordered_sum(n, pair, slot, signs=(1, -1))


def reflecting_double_product(rs: RootSet):
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
