"""Arbitrary-precision Bethe-root extraction and certification.

Roots of the exact Q-polynomials are found by Aberth-Ehrlich simultaneous
iteration at a stated binary precision and certified three ways:
coefficient reconstruction, Bethe-equation residuals, and (downstream)
comparison against exact diagonalization.  All tolerances are relative to
the working precision.

One Aberth kernel runs twice (Bini, Numer. Algorithms 13, 1996; Bini and
Robol, J. Comput. Appl. Math. 272, 2014), in Gaussian fixed point on
Python ints: a value is an (re, im) int pair times 2^-scale.  A pass at
scale 53 walks in from a circle and seeds the full pass, whose scale is
the working precision of solve_roots.  Each root stops moving once its
relative step is at most 2^(4 - precision) or its value |p(x)| is within
the fixed-point rounding bound of Horner's rule, so each pass ends at its
rounding floor instead of running into its iteration cap there.  The
reconstruction certificate and the reflecting split run in mpmath, an
arithmetic independent of the kernel's.  The Bethe residual runs on its
own Gaussian block floats of Python ints (a value is an (re, im) int pair
times 2^e), with the rounding bound stated in bethe_residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

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
    the iterations of the full Aberth pass and reconstruction_error is the
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


def _circle(coeffs, scale: int):
    """Aberth's start: n points on the circle of radius max(1, max|c_k|)^(1/n)
    (coefficients lowest degree first), as (re, im) ints at the given scale."""
    n = len(coeffs) - 1
    with mp.workprec(64):
        radius = max(mp.mpf(1), *(abs(_mpf_frac(c)) for c in coeffs)) ** (mp.mpf(1) / n)
        points = [
            radius * mp.expjpi(mp.mpf(2 * j) / n + mp.mpf(1) / (2 * n) + mp.mpf(j) / (7 * n * n))
            for j in range(n)
        ]
        return [(int(mp.ldexp(z.real, scale)), int(mp.ldexp(z.imag, scale))) for z in points]


def _aberth(coeffs, roots, prec: int, scale: int):
    """All roots of a monic polynomial with exact coefficients (lowest
    degree first) by Aberth-Ehrlich iteration from the start roots, in
    Gaussian fixed point: a value is an (re, im) pair of Python ints
    times 2^-scale, and one ulp is 2^-scale.

    Returns the roots as int pairs and the number of iterations.  Each
    coefficient is rounded down to the scale once.  Horner's rule gives
    p(x_i), p'(x_i) and S(x_i) = sum_{k<=n} |x_i|^k in one loop, each
    product rounded down by a shift; the step is
    p / (p' - p sum_{j != i} 1/(x_i - x_j)), rounded to the nearest ulp.
    Root i stops moving once that step is at most 2^(4 - prec) |x_i|, or
    once |p(x_i)| <= 3 S(x_i) ulp.  That is the rounding floor: each
    shift is off by less than one ulp in each part (sqrt 2 in modulus)
    and each coefficient by less than one, so the computed p(x) differs
    from the exact one by less than (1 + sqrt 2) sum_{k<n} |x|^k ulp.
    A stopped root still enters the Aberth sum of the others; the
    iteration ends when every root has stopped.  Only the report of a
    stall at the cap converts to mpmath.
    """
    n = len(coeffs) - 1
    cs = [(c.numerator << scale) // c.denominator for c in reversed(coeffs)]
    one, lead, scale2 = cs[0], cs[1:], 2 * scale
    rel = 2 * (prec - 4)
    roots = list(roots)
    active = range(n)
    cap = 64 + 8 * prec // 16
    for iterations in range(1, cap + 1):
        moving, steps = [], []
        for i in active:
            xr, xi = roots[i]
            ax = isqrt(xr * xr + xi * xi) + 1
            pr, pi, dr, di, bound = one, 0, 0, 0, one
            for c in lead:
                dr, di = ((dr * xr - di * xi) >> scale) + pr, ((dr * xi + di * xr) >> scale) + pi
                pr, pi = ((pr * xr - pi * xi) >> scale) + c, (pr * xi + pi * xr) >> scale
                bound = ((bound * ax) >> scale) + one
            noise = (3 * bound >> scale) + 1
            if pr * pr + pi * pi <= noise * noise:
                continue
            sr = si = 0  # sum_{j != i} 1/(x_i - x_j)
            for j, (yr, yi) in enumerate(roots):
                if j != i:
                    ar, ai = xr - yr, xi - yi
                    m = ar * ar + ai * ai
                    sr += (ar << scale2) // m
                    si -= (ai << scale2) // m
            # the step p / (p' - p S), rounded to the nearest ulp
            er = dr - ((pr * sr - pi * si) >> scale)
            ei = di - ((pr * si + pi * sr) >> scale)
            m = er * er + ei * ei
            if m == 0:
                nudge = max(1, (one + abs(xr) + abs(xi)) >> (prec - 4))
                roots[i] = (xr + nudge, xi + nudge)
                moving.append(i)
                steps.append((1, 0))
                continue
            half = m >> 1
            tr = (((pr * er + pi * ei) << scale) + half) // m
            ti = (((pi * er - pr * ei) << scale) + half) // m
            xr, xi = xr - tr, xi - ti
            roots[i] = (xr, xi)
            s2, x2 = tr * tr + ti * ti, xr * xr + xi * xi
            if s2 << rel > x2:
                moving.append(i)
                steps.append((s2, x2))
        active = moving
        if not active:
            break
    else:
        with mp.workprec(53):
            worst = max(mp.sqrt(mp.mpf(s2) / x2) if x2 else mp.inf for s2, x2 in steps)
        raise NonConvergenceError(
            f"Aberth iteration stalled at correction {mpmath.nstr(worst, 8)} for degree {n}",
            degree=n, precision=prec, iterations=cap, correction=worst,
        )
    return roots, iterations


def _seed(coeffs, scale: int):
    """Start roots at the given scale for the full pass: the roots of a
    scale-53 _aberth pass from the circle, or the circle itself when that
    pass raises (its cap, a zero divisor) or returns coincident roots."""
    try:
        roots, _ = _aberth(coeffs, _circle(coeffs, 53), 53, 53)
    except ArithmeticError:
        return _circle(coeffs, scale)
    if len(set(roots)) < len(roots):
        return _circle(coeffs, scale)
    shift = scale - 53
    return [(xr << shift, xi << shift) for xr, xi in roots]


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

    A scale-53 _aberth pass seeds the full pass (see _seed).  The full
    pass runs at scale precision + GUARD_BITS + ceil(log2 max|c_k|), so
    that rounding in the large coefficients does not eat into the
    reconstruction bound, and stops on 2^(4-precision) relative steps or
    on its rounding floor (see _aberth).  Its roots enter mpmath rounded
    to that many bits, and the polynomial rebuilt from them must match
    the exact coefficients to 2^(20-precision) relative, else
    NonConvergenceError.  The returned roots are rounded to
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
    scale = precision + GUARD_BITS + (-(-top.numerator // top.denominator) - 1).bit_length()
    fixed, iterations = _aberth(coeffs, _seed(coeffs, scale), precision, scale) if n > 0 else ([], 0)
    with mp.workprec(scale):
        roots = [mp.mpc(mp.mpf((xr, -scale)), mp.mpf((xi, -scale))) for xr, xi in fixed]
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


def _normal(re, im, e, bits: int):
    """The block float (re + i im) 2^e with its larger part cut to the given
    bit length (rounded down; a shorter value is left as it is)."""
    k = (abs(re) | abs(im)).bit_length() - bits
    if k > 0:
        return re >> k, im >> k, e + k
    return re, im, e


def _quotient(ar, ai, br, bi, bits: int):
    """(ar + i ai)/(br + i bi) as a block float (re, im, e) whose larger
    part has at least bits + 1 bits, each part rounded down."""
    m = br * br + bi * bi
    nr, ni = ar * br + ai * bi, ai * br - ar * bi
    s = max(0, bits + 2 + m.bit_length() - (abs(nr) | abs(ni)).bit_length())
    return (nr << s) // m, (ni << s) // m, -s


def bethe_residual(rs: RootSet):
    """Max absolute defect of the Bethe equations over all roots,

        z_i^P = t prod_j (q^2 w_j - w_i)/(w_j - q^2 w_i),

    the w-image of the consistency equations under the variable change,
    with j over the stored roots other than w_i and its mirror
    (j mod n != i).  Closed chains have P = L and t = q^-2 (twisted) or 1
    (periodic).  The reflecting chain has P = 2L and t = 1; its factors at
    the stored reciprocals 1/w_j are the boundary factors
    (q^2 - w_i w_j)/(1 - q^2 w_i w_j).  Returns an mpf at precision +
    GUARD_BITS, exactly 0 when n = 0.

    Runs on Gaussian block floats of Python ints: (re, im, e) stands for
    (re + i im) 2^e.  Each stored root enters once as an int pair at scale
    S = precision + GUARD_BITS + 4 + max(0, -min_i mag(w_i)), where
    |w_i| <= 2^mag(w_i) and the larger part of w_i is at least
    2^(mag(w_i) - 2), so truncating a part at that scale errs by less
    than a quarter of that part's own last bit, however small the root.
    q, q^2 and q^-2 are truncated to the scale (in the imaginary part
    only), and each part of q w_i and q^2 w_j is rounded down once per
    root, an error below one unit at the scale in each part.  The
    factors are then exact int differences.  One running numerator and
    one denominator per root are cut back to S bits after every complex
    multiply, a relative error below 2^(1.5 - S) each; z_i and N/D are
    one int division each, rounded down to at least S + 1 bits, below
    2^-S; and z_i^P comes by binary powering, cut to S bits after each
    step, whose squarings double every error before them.  So, to first
    order and relative to the same formula evaluated exactly on those
    rounded ints, N/D is within 12 n 2^-S (at most 2n - 2 factors on each
    side) and z_i^P within 7 P 2^-S.  The defect is the exact difference
    of the two, aligned to the smaller exponent; only the worst
    |defect|^2 converts to mpmath.
    """
    n = rs.n
    if n == 0:
        return mp.mpf(0)
    prec = rs.precision + GUARD_BITS
    S = prec + 4 + max(0, -min((mp.mag(w) for w in rs.roots if w), default=0))
    one = 1 << S
    h, r = one >> 1, isqrt(3 << (2 * S - 2))  # q = (h + i r) 2^-S
    ws = [(int(mp.ldexp(w.real, S)), int(mp.ldexp(w.imag, S))) for w in rs.roots]
    q2w = [((-h * xr - r * xi) >> S, (r * xr - h * xi) >> S) for xr, xi in ws]
    if rs.boundary is Boundary.REFLECTING:
        power, t = 2 * rs.L, (one, 0)
    else:
        power, t = rs.L, (-h, -r) if rs.boundary is Boundary.TWISTED else (one, 0)
    factors = [(xr, xi, yr, yi) for (xr, xi), (yr, yi) in zip(ws, q2w)]
    worst, worst_e = 0, 0  # |defect|^2 = worst 2^(2 worst_e)
    for i in range(n):
        wr, wi = ws[i]
        vr, vi = q2w[i]
        # num and den both start at scale S and take one factor at scale S
        # each step, so N/D carries only the shifts: num shifts minus den's.
        # _normal is inlined here, the one O(n^2) loop.
        nr, ni = t
        dr, di, shift = one, 0, 0
        for j, (xr, xi, yr, yi) in enumerate(factors):
            if j % n == i:
                continue
            fr, fi = yr - wr, yi - wi  # q^2 w_j - w_i
            nr, ni = nr * fr - ni * fi, nr * fi + ni * fr
            k = (abs(nr) | abs(ni)).bit_length() - S
            if k > 0:
                nr, ni, shift = nr >> k, ni >> k, shift + k
            fr, fi = xr - vr, xi - vi  # w_j - q^2 w_i
            dr, di = dr * fr - di * fi, dr * fi + di * fr
            k = (abs(dr) | abs(di)).bit_length() - S
            if k > 0:
                dr, di, shift = dr >> k, di >> k, shift - k
        ur, ui, ue = _quotient(nr, ni, dr, di, S)
        ue += shift
        # z_i = (q - w_i)/(q w_i - 1)
        zr, zi, ze = _quotient(
            h - wr, r - wi, ((h * wr - r * wi) >> S) - one, (h * wi + r * wr) >> S, S
        )
        pr, pi, pe = zr, zi, ze
        for bit in bin(power)[3:]:
            pr, pi, pe = _normal(pr * pr - pi * pi, 2 * pr * pi, 2 * pe, S)
            if bit == "1":
                pr, pi, pe = _normal(pr * zr - pi * zi, pr * zi + pi * zr, pe + ze, S)
        e = min(pe, ue)
        er = (pr << (pe - e)) - (ur << (ue - e))
        ei = (pi << (pe - e)) - (ui << (ue - e))
        m = er * er + ei * ei
        if (m << 2 * max(0, e - worst_e)) > (worst << 2 * max(0, worst_e - e)):
            worst, worst_e = m, e
    with mp.workprec(prec):
        return mp.sqrt(mp.mpf((worst, 2 * worst_e)))


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
