"""Arbitrary-precision Bethe-root extraction and certification.

Roots of the exact Q-polynomials are found by Aberth-Ehrlich simultaneous
iteration at a stated binary precision and certified three ways:
coefficient reconstruction, Bethe-equation residuals, and (downstream)
comparison against exact diagonalization.  All tolerances are relative to
the working precision.

One Aberth kernel runs on a precision ladder (Bini, Numer. Algorithms 13,
1996; Bini and Robol, J. Comput. Appl. Math. 272, 2014), in Gaussian
fixed point on Python ints: a value is an (re, im) int pair times
2^-scale.  A pass at scale 53 walks in from a circle, passes at twice
the precision refine its roots, and the full pass at the working scale
of solve_roots polishes them; each ends at its rounding floor.  The
reconstruction gate rebuilds the polynomial on the same ints.  Every
value read off the roots (residual, energy, ordered sums and the
reflecting product) runs on Gaussian block floats of Python ints,
(re, im, e) for (re + i im) 2^e, from one int form of the roots, q and
z = (q - w)/(q w - 1) (_fixed_roots), and states its rounding bound.
mpmath runs only at the module's edges: the start circle, the stall
report, the reflecting split and the conversion of results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, isqrt
from numbers import Integral

import mpmath
from mpmath import mp

from .qfunctions import Boundary, QPolynomial

__all__ = [
    "RootSet", "NonConvergenceError", "solve_roots", "bethe_residual", "energy",
    "component_sum_small", "component_sum_large", "wavefunction_component",
    "reflecting_double_product",
]

GUARD_BITS = 64
# the least working precision solve_roots and `betheq verify` accept
MIN_PRECISION = 64
# the working precision of solve_roots, the numeric verifiers and the CLI
DEFAULT_PRECISION = 256


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
        radius = max(mp.mpf(1), *(abs(mp.mpf(c.numerator) / c.denominator) for c in coeffs))
        radius **= mp.mpf(1) / n
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


def _seed(coeffs, extra: int, scale: int):
    """Start roots at the given scale for the full pass, from a precision
    ladder (Bini and Robol 2014): a scale-53 _aberth pass from the circle,
    then passes from the last one's roots at twice its precision p and at
    scale 2p + extra, while that stays below the given scale.  A rung that
    raises (its cap, a zero divisor) or returns coincident roots sends the
    full pass to the circle at the given scale."""
    prec, at, roots = 53, 53, _circle(coeffs, 53)
    while at < scale:
        try:
            roots, _ = _aberth(coeffs, roots, prec, at)
        except ArithmeticError:
            return _circle(coeffs, scale)
        if len(set(roots)) < len(roots):
            return _circle(coeffs, scale)
        nxt = min(2 * prec + extra, scale)
        roots, prec, at = [(xr << nxt - at, xi << nxt - at) for xr, xi in roots], 2 * prec, nxt
    return roots


def _reconstruct_error(coeffs, roots, scale: int):
    """Max relative coefficient error |r_k - c_k| / max(1, |c_k|) of
    r(w) = prod (w - x_i), for roots given as (re, im) int pairs at the
    scale, against the exact coefficients c_k (lowest degree first); an
    mpf at the working precision.  r is rebuilt in the same fixed point,
    each x_m r_k rounded down by a shift (below sqrt 2 ulp), and a later
    factor w - x_j grows the sum of an error's moduli by at most 1 + |x_j|:
    every r_k is within n (n + 1) / sqrt 2 prod (1 + |x_i|) ulp of the
    exact product of the given roots.  Only the worst exact squared ratio
    converts to mpmath."""
    re, im = [1 << scale], [0]
    for xr, xi in roots:
        ur, ui = [*re, 0], [*im, 0]
        re = [p - ((xr * a - xi * b) >> scale) for p, a, b in zip([0, *re], ur, ui)]
        im = [p - ((xr * b + xi * a) >> scale) for p, a, b in zip([0, *im], ur, ui)]
    # |r_k - c_k|^2 / max(1, |c_k|)^2 with r_k = (xr + i xi) 2^-scale and c_k = a / b
    worst = max(
        Fraction((xr * b - (a << scale)) ** 2 + (xi * b) ** 2, max(abs(a), b) ** 2 << 2 * scale)
        for (a, b), xr, xi in zip((c.as_integer_ratio() for c in coeffs), re, im))
    return mp.sqrt(mp.mpf(worst.numerator) / worst.denominator)


def solve_roots(qp: QPolynomial, precision: int = DEFAULT_PRECISION) -> RootSet:
    """Find all roots of a Q-polynomial at the given precision (bits).

    A precision ladder (see _seed) seeds the full _aberth pass at scale
    precision + GUARD_BITS + ceil(log2 max|c_k|), so that rounding in the
    large coefficients does not eat into the reconstruction bound.  That
    pass only polishes and stops on 2^(4-precision) relative steps or on
    its rounding floor (see _aberth).  The polynomial rebuilt from its int
    roots (see _reconstruct_error) must match the exact coefficients to
    2^(20-precision) relative, else NonConvergenceError.  The returned
    roots are rounded to precision + GUARD_BITS.
    For the reflecting boundary the wt-roots are split through
    w^2 - wt*w + 1 = 0, keeping the branch with |w| >= 1 (tie: positive
    imaginary part); the mirror branch is stored as the exact reciprocal.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    n = qp.n
    coeffs = qp.coeffs
    top = max(abs(c) for c in coeffs)
    extra = (-(-top.numerator // top.denominator) - 1).bit_length()  # ceil(log2 top), top >= 1
    scale = precision + GUARD_BITS + extra
    fixed, iterations = (_aberth(coeffs, _seed(coeffs, extra, scale), precision, scale)
                         if n > 0 else ([], 0))
    with mp.workprec(scale):
        err = _reconstruct_error(coeffs, fixed, scale)
        tol = mp.mpf(2) ** (20 - precision)
        if err > tol:
            raise NonConvergenceError(
                f"coefficient reconstruction error {mpmath.nstr(err, 8)}"
                f" exceeds {mpmath.nstr(tol, 8)}",
                degree=n, precision=precision, iterations=iterations, correction=err,
            )
        roots = [mp.mpc(mp.mpf((xr, -scale)), mp.mpf((xi, -scale))) for xr, xi in fixed]
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


def _mul(a, b, bits: int):
    """The block-float product a b cut to the given bit length."""
    (ar, ai, ae), (br, bi, be) = a, b
    return _normal(ar * br - ai * bi, ar * bi + ai * br, ae + be, bits)


def _power(z, power: int, bits: int):
    """z^power (power >= 0) by binary powering, cut to bits after each step."""
    p = z if power else (1, 0, 0)
    for bit in bin(power)[3:]:
        p = _mul(p, p, bits)
        if bit == "1":
            p = _mul(p, z, bits)
    return p


def _quotient(ar, ai, br, bi, bits: int, e: int = 0):
    """(ar + i ai)/(br + i bi) 2^e as a block float (re, im, e') whose
    larger part has at least bits + 1 bits, each part rounded down."""
    m = br * br + bi * bi
    nr, ni = ar * br + ai * bi, ai * br - ar * bi
    s = max(0, bits + 2 + m.bit_length() - (abs(nr) | abs(ni)).bit_length())
    return (nr << s) // m, (ni << s) // m, e - s


def _fixed_roots(roots, bits: int):
    """The scale S = bits + 4 + max(0, -min_i mag(w_i)), the roots as (re, im)
    int pairs at S, q = (h + i r) 2^-S as (h, r), q^2 w and q w - 1 at S and
    the block floats z = (q - w)/(q w - 1).  As |w| <= 2^mag(w) and the larger
    part of w is at least 2^(mag(w) - 2), truncating a part errs by less than
    a quarter of its own last bit, however small the root; r and each part
    of q w and q^2 w are rounded down, below one unit at S."""
    S = bits + 4 + max(0, -min((mp.mag(w) for w in roots if w), default=0))
    ws = [(int(mp.ldexp(w.real, S)), int(mp.ldexp(w.imag, S))) for w in roots]
    one = 1 << S
    h, r = one >> 1, isqrt(3 << (2 * S - 2))
    q2w = [((-h * xr - r * xi) >> S, (r * xr - h * xi) >> S) for xr, xi in ws]
    qw1 = [(((h * xr - r * xi) >> S) - one, (h * xi + r * xr) >> S) for xr, xi in ws]
    zs = [_quotient(h - wr, r - wi, ar, ai, S) for (wr, wi), (ar, ai) in zip(ws, qw1)]
    return S, ws, (h, r), q2w, qw1, zs


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

    The stored roots, q, q^2 w_j and z_i enter at scale
    S = precision + GUARD_BITS + 4 + max(0, -min_i mag(w_i)) (see
    _fixed_roots) and q^-2 is truncated to S, so the factors are exact int
    differences.  One running numerator and one denominator per root are
    cut back to S bits after every complex multiply, a relative error
    below 2^(1.5 - S) each; z_i and N/D are one int division each, rounded
    down to at least S + 1 bits, below 2^-S; and z_i^P comes by binary
    powering (_power), whose squarings double every error before them.
    So, to first order and relative to the same formula evaluated exactly
    on those rounded ints, N/D is within 12 n 2^-S (at most 2n - 2 factors
    on each side) and z_i^P within 7 P 2^-S.  The defect is the exact
    difference of the two, aligned to the smaller exponent; only the worst
    |defect|^2 converts to mpmath.
    """
    n = rs.n
    prec = rs.precision + GUARD_BITS
    S, ws, (h, r), q2w, _, zs = _fixed_roots(rs.roots, prec)
    one = 1 << S
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
        ur, ui, ue = _quotient(nr, ni, dr, di, S, shift)
        pr, pi, pe = _power(zs[i], power, S)
        e = min(pe, ue)
        er = (pr << (pe - e)) - (ur << (ue - e))
        ei = (pi << (pe - e)) - (ui << (ue - e))
        m = er * er + ei * ei
        if (m << 2 * max(0, e - worst_e)) > (worst << 2 * max(0, worst_e - e)):
            worst, worst_e = m, e
    with mp.workprec(prec):
        return mp.sqrt(mp.mpf((worst, 2 * worst_e)))


def energy(rs: RootSet):
    """Eigenvalue -L'/2 Delta - sum (z_i + 1/z_i - 2 Delta) at Delta = -1/2,
    L'/4 - sum (z_i + 1/z_i + 1), with L' = L for closed chains and L - 1
    for the reflecting chain; an mpc at precision + GUARD_BITS.

    At the scale S of bethe_residual, z_i and 1/z_i = (q w_i - 1)/(q - w_i)
    are one int division each, below 2^-S relative, and -E, their sum with
    n - L'/4, is exact and cut once to S bits: E is within
    2^-S sum (|z_i| + |1/z_i|) + 2^(1.5 - S) |E| of the formula evaluated
    exactly on the rounded ints.
    """
    prec = rs.precision + GUARD_BITS
    S, ws, (h, r), _, qw1, zs = _fixed_roots(rs.bethe_roots, prec)
    lfac = rs.L - 1 if rs.boundary is Boundary.REFLECTING else rs.L
    inv = [_quotient(ar, ai, h - wr, r - wi, S) for (wr, wi), (ar, ai) in zip(ws, qw1)]
    re, im, e = _sum([(4 * rs.n - lfac, 0, -2), *zs, *inv], S)
    with mp.workprec(prec):
        return -mp.mpc(mp.mpf((re, e)), mp.mpf((im, e)))


def _sum(values, bits: int):
    """The exact sum of block floats, cut to the given bit length."""
    e = min(v[2] for v in values)
    return _normal(sum(x << ve - e for x, _, ve in values),
                   sum(y << ve - e for _, y, ve in values), e, bits)


def _ordered_sum(pairs, slots, bits: int, prec: int):
    """Sum over orderings v_0..v_{n-1} of the roots 0..n-1, each carrying
    one of m signs, of prod_k slot(k, v_k) prod_{a<b} pair(v_a, v_b), as an
    mpc at prec bits, from block-float tables slots[k][v] and pairs[u][v]
    (n = len(slots)); node v = x + n t is root x with sign index t.

    Dynamic programme over the set S of placed nodes (Held and Karp,
    J. SIAM 10, 1962), (m + 1)^n states for m^n n! orderings: placing v at
    slot |S| multiplies the sum D(S) by slot(|S|, v) and by P(S, v) =
    prod_{u in S} pair(u, v), which a state keeps as P(S - u, v) pair(u, v)
    for the node u of its first move in.  Each P(S, v) and each term is
    cut to bits once; the terms of a state, and at the end all states, are
    added exactly and cut once.  A cut errs below 2^(1.5 - bits) relative
    and an ordering passes at most n(n + 3)/2 + 1 of them, so to first
    order the total is within (n + 1)(n + 2) 2^(0.5 - bits) sum |product|
    of the exact sum on the tables.  The callers take bits >= prec + 4 +
    ceil(log2 T) for the T = m^n n! products (see _fixed_roots), which
    makes that below (n + 1)(n + 2) 2^(-3.5 - prec) max|product|, however
    far the sum cancels.
    """
    n = len(slots)
    # a state is a bit mask: bit x when root x is placed, and bit n + x
    # when its sign index is 1
    nodes = [(v, 1 << v % n, 1 << v % n | v // n << n + v % n)
             for v in range(len(slots[0]) if n else 0)]
    layer = {0: ((1, 0, 0), [(1, 0, 0)] * len(nodes))}
    for slot in slots:
        nxt = {}
        for state, ((dr, di, de), prods) in layer.items():
            for v, bit, key in nodes:
                if state & bit:
                    continue
                (sr, si, se), (pr, pi, pe) = slot[v], prods[v]
                tr, ti = dr * sr - di * si, dr * si + di * sr
                term = _normal(tr * pr - ti * pi, tr * pi + ti * pr, de + se + pe, bits)
                nxt.setdefault(state | key, (prods, pairs[v], []))[2].append(term)
        # pop in order: frees a parent's tables after its last child, keeps each first parent
        layer = {}
        for state in list(nxt):
            parent, pair, terms = nxt.pop(state)
            prods = [None if state & bit else _mul(parent[v], pair[v], bits) for v, bit, _ in nodes]
            layer[state] = _sum(terms, bits), prods
    re, im, e = _sum([d for d, _ in layer.values()], bits)
    with mp.workprec(prec):
        return mp.mpc(mp.mpf((re, e)), mp.mpf((im, e)))


def _closed_pairs(ws, q2w, S: int):
    """(w_u - q^2 w_v)/(w_u - w_v) for u != v at scale S."""
    return [[_quotient(ur - yr, ui - yi, ur - xr, ui - xi, S) if u != v else None
             for v, ((xr, xi), (yr, yi)) in enumerate(zip(ws, q2w))]
            for u, (ur, ui) in enumerate(ws)]


def _perm_sum(rs: RootSet, amp_power: int):
    """Sum over orderings of prod_k amp_(x_k)^(n-1-k) prod_{a<b}
    (w_a - q^2 w_b)/(w_b - w_a), amp = 1/(q z^amp_power), over the Bethe
    roots, taken with both signs flipped: the closed pairs and -amp =
    -conj(q)/z^amp_power each flip every product by (-1)^(n(n-1)/2)."""
    n, prec = rs.n, rs.precision + GUARD_BITS
    S, ws, (h, r), q2w, _, zs = _fixed_roots(rs.bethe_roots, prec + (factorial(n) - 1).bit_length())
    powers = (_power(z, amp_power, S) for z in zs)
    amps = [_quotient(-h, r, zr, zi, S, -S - ze) for zr, zi, ze in powers]
    slots = [[_power(a, n - 1 - k, S) for a in amps] for k in range(n)]
    return _ordered_sum(_closed_pairs(ws, q2w, S), slots, S, prec)


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
    integer site positions (1-based).

    Closed chains sum plain amplitudes over the n! orderings of the roots;
    the reflecting chain sums over orderings and a sign per root (2^n n!
    terms), both through _ordered_sum with the closed-chain pairs
    C(u, v) = (w_u - q^2 w_v)/(w_u - w_v) over the stored roots.  There the
    copy of root a with sign index t is the stored root w_v, v = a + n t,
    with mirror w_v' = 1/w_v; its slot z^(x_k - L) (1 + q/z)/(z - 1/z) at
    z = z_v is z_v'^(L - x_k) (1 - q w_v)/(w_v - w_v'), and a pair of copies
    u of a and v of b, (q^2 w_u' - w_v')(q^2 - w_u w_v)/((w_a - w_b)(1 -
    w_a' w_b')), is C(v, u') C(v', u').
    """
    positions = list(positions)
    n = rs.n
    if len(positions) != n:
        raise ValueError(f"need {n} positions")
    if not all(isinstance(x, Integral) for x in positions):
        raise ValueError("positions must be integers")
    if any(positions[i] >= positions[i + 1] for i in range(n - 1)):
        raise ValueError("positions must be strictly increasing")
    if n and (positions[0] < 1 or positions[-1] > rs.L):
        raise ValueError("positions must lie in 1..L")
    prec, reflecting = rs.precision + GUARD_BITS, rs.boundary is Boundary.REFLECTING
    terms = factorial(n) << n if reflecting else factorial(n)
    S, ws, _, q2w, qw1, zs = _fixed_roots(rs.roots, prec + (terms - 1).bit_length())
    closed = _closed_pairs(ws, q2w, S)
    if not reflecting:
        return _ordered_sum(closed, [[_power(z, x, S) for z in zs] for x in positions], S, prec)
    # index v - n is the mirror of v
    consts = [_quotient(-ar, -ai, wr - ws[v - n][0], wi - ws[v - n][1], S)
              for v, ((wr, wi), (ar, ai)) in enumerate(zip(ws, qw1))]
    slots = [[_mul(c, _power(zs[v - n], rs.L - x, S), S) for v, c in enumerate(consts)]
             for x in positions]
    pairs = [[_mul(closed[v][u - n], closed[v - n][u - n], S) if (u - v) % n else None
              for v in range(2 * n)] for u in range(2 * n)]
    return _ordered_sum(pairs, slots, S, prec)


def reflecting_double_product(rs: RootSet):
    """The double product prod_i prod_j (1 + z_i + z_i z_j) over the 2n
    reflecting variables, excluding j = i and the mirror j = i +- n by
    index, so that rounding cannot drop factors; an mpc at precision +
    GUARD_BITS.

    Each factor is (1 - 2q)(w_i - q^2 w_j)/((q w_i - 1)(q w_j - 1)) (see
    conjectures._double_product) and (1 - 2q)^2 = -3, so the product is
    3^(2n(n-1)) prod (w_i - q^2 w_j) / C^(4(n-1)), C = prod_i (q w_i - 1).
    At the scale S of bethe_residual each w_i - q^2 w_j is an exact int
    difference.  The 4n(n-1) factors and the 2n of C are cut to S bits
    after each multiply (below 2^(1.5 - S) relative), C^(4(n-1)) comes by
    binary powering and the quotient is one int division, so to first order
    the product is within 30 n^2 2^-S of the formula on the rounded ints.
    """
    if rs.boundary is not Boundary.REFLECTING:
        raise ValueError("needs a reflecting RootSet")
    n, prec = rs.n, rs.precision + GUARD_BITS
    S, ws, _, q2w, qw1, _ = _fixed_roots(rs.roots, prec)
    num = (3 ** (2 * n * (n - 1)), 0, 0)
    for i, (wr, wi) in enumerate(ws):
        for j, (yr, yi) in enumerate(q2w):
            if j % n != i % n:
                num = _mul(num, (wr - yr, wi - yi, -S), S)
    c = (1, 0, 0)
    for ar, ai in qw1:
        c = _mul(c, (ar, ai, -S), S)
    (nr, ni, ne), (cr, ci, ce) = num, _power(c, 4 * max(n - 1, 0), S)
    re, im, e = _quotient(nr, ni, cr, ci, S, ne - ce)
    with mp.workprec(prec):
        return mp.mpc(mp.mpf((re, e)), mp.mpf((im, e)))
