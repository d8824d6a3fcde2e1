"""Arbitrary-precision Bethe-root extraction and certification.

Every groundstate Q_n has n simple real roots: the quasi-momenta
z = (q - w)/(q w - 1) lie on the unit circle, and w = (q + z)/(q z + 1)
maps that circle onto the real line.  So the roots are found on the real
line, by one Aberth-Ehrlich kernel in fixed point on Python ints (a value
is an int times 2^-scale) run on a precision ladder (Bini, Numer.
Algorithms 13, 1996; Bini and Robol, J. Comput. Appl. Math. 272, 2014):
float starts on the groundstate arc, passes at doubling precision, and a
full pass at the working scale of solve_roots.  Exact int signs of the
polynomial certify the result: a sign change across each root's
enclosure proves n simple real roots, one in each enclosure.  They are
checked again by the Bethe-equation residual and (downstream) by exact
diagonalization.  Every value read off the roots runs on Python ints, in
one block-float format: (re, im, e) for (re + i im) 2^e, with im = 0 for
the real energy and product.  The residual, energy and ordered sums take
one int per root w (_fixed_roots); the reflecting product takes one int
per certified wt-root, the values the signs checked.  As |z| = 1
for real w, every reciprocal of z or q is a conjugate and every
denominator a real norm, so one kernel (_quotient) divides, by a real int.
Each value states its rounding bound.  mpmath runs only at the module's
edges: the stall report and the conversion of results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
# full passes after the first that may double the precision before a
# root the signs do not certify raises
MAX_DOUBLINGS = 3


class NonConvergenceError(ArithmeticError):
    """Root iteration failed to converge.

    Carries the polynomial degree, the working precision (bits) of the
    failing step, the Aberth iterations of its pass and a correction.  An
    Aberth pass that hits its iteration cap reports its own precision and
    the worst relative step; one whose step has a zero denominator reports
    an infinite correction.  When the signs still leave roots uncertified
    after the last doubling, the error carries the requested precision and
    the correction is the number of roots they did not certify.
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

    The roots are real and ascending, held as mpf.
    For the reflecting boundary, wt_roots holds the n roots in the
    wt = w + 1/w variable, exactly the values the signs certified, and
    roots holds the 2n split values with roots[i + n] = 1/roots[i], all
    rounded to precision + GUARD_BITS.  Before rounding, each root (each
    wt for reflecting) was within 2^(20 - precision) of one simple root of
    Q, relative, a different one for each; certified_scale is the
    fixed-point scale of the Aberth pass whose roots the signs certified,
    and iterations counts that pass's iterations.
    """

    boundary: Boundary
    n: int
    L: int
    precision: int
    roots: tuple
    wt_roots: tuple | None
    residual: object
    iterations: int
    certified_scale: int

    @property
    def bethe_roots(self):
        """The n roots entering the Bethe equations (first branch for
        reflecting)."""
        return self.roots[: self.n]


def _starts(boundary: Boundary, n: int):
    """Aberth's start: the images w(t) = cos((t - pi/3)/2) / cos((t + pi/3)/2)
    of z = e^(it) for n angles t spread evenly over the groundstate arc,
    (-2 pi/3, 2 pi/3) for closed chains and (0, 2 pi/3) for the reflecting
    chain, there as wt = w + 1/w; floats, as ints at scale 53."""
    lo = 0.0 if boundary is Boundary.REFLECTING else -2 * math.pi / 3
    starts = []
    for j in range(n):
        t = lo + (2 * math.pi / 3 - lo) * (j + 0.5) / n
        w = math.cos((t - math.pi / 3) / 2) / math.cos((t + math.pi / 3) / 2)
        starts.append(int(math.ldexp(w + 1 / w if boundary is Boundary.REFLECTING else w, 53)))
    return starts


def _aberth(ints, roots, prec: int, scale: int):
    """All roots of a polynomial D Q, Q monic, given by its int
    coefficients (lowest degree first, D = ints[-1] > 0), all of them
    real, by Aberth-Ehrlich iteration from real start roots in fixed point:
    a value is a Python int times 2^-scale, and one ulp is 2^-scale.

    Returns the roots and the number of iterations.  Each coefficient c/D
    of Q is rounded down to the scale once, as (c << scale) // D.  Horner's
    rule gives p(x_i), p'(x_i) and S(x_i) = sum_{k<=n} |x_i|^k in one loop,
    each product rounded down by a shift; the step is p / (p' - p sum_{j != i} 1/(x_i - x_j)),
    rounded to the nearest ulp.  Root i stops moving once that step is at
    most 2^(4 - prec) |x_i|, or once |p(x_i)| <= 3 S(x_i) ulp.  That is the
    rounding floor: each shift is off by less than one ulp and each
    coefficient by less than one, so the computed p(x) differs from the
    exact one by less than 2 sum_{k<n} |x|^k ulp.  A stopped root still
    enters the Aberth sum of the others; the iteration ends when every root
    has stopped.  A step with a zero denominator (two equal roots, or
    p' equal to p times the sum) and the cap of 64 + prec/2 iterations
    raise NonConvergenceError.
    """
    n, den = len(ints) - 1, ints[-1]
    cs = [(c << scale) // den for c in reversed(ints)]
    one, lead, unit = cs[0], cs[1:], 1 << 2 * scale
    rel = prec - 4
    roots = list(roots)
    active = range(n)
    cap = 64 + prec // 2
    for iterations in range(1, cap + 1):
        moving, steps = [], []
        for i in active:
            x = roots[i]
            ax = abs(x) + 1
            p, d, bound = one, 0, one
            for c in lead:
                d = ((d * x) >> scale) + p
                p = ((p * x) >> scale) + c
                bound = ((bound * ax) >> scale) + one
            if abs(p) <= (3 * bound >> scale) + 1:
                continue
            try:
                s = sum(unit // (x - y) for y in roots[:i] + roots[i + 1:])
                e = d - ((p * s) >> scale)
                t = ((p << scale) + (e >> 1)) // e  # the step, to the nearest ulp
            except ZeroDivisionError:
                raise NonConvergenceError(
                    f"Aberth step has a zero denominator for degree {n}",
                    degree=n, precision=prec, iterations=iterations, correction=mp.inf,
                ) from None
            x -= t
            roots[i] = x
            if abs(t) << rel > abs(x):
                moving.append(i)
                steps.append((t, x))
        active = moving
        if not active:
            break
    else:
        with mp.workprec(53):
            worst = max(mp.fdiv(abs(t), abs(x)) if x else mp.inf for t, x in steps)
        raise NonConvergenceError(
            f"Aberth iteration stalled at correction {mpmath.nstr(worst, 8)} for degree {n}",
            degree=n, precision=prec, iterations=cap, correction=worst,
        )
    return roots, iterations


def _sign(ints, a: int, s: int) -> int:
    """The sign of P(a 2^-s) for int coefficients (lowest degree first):
    that of sum_k c_k a^k 2^(s(n - k)), by Horner's rule on exact ints."""
    v = 0
    for k, c in enumerate(reversed(ints)):
        v = v * a + (c << s * k)
    return (v > 0) - (v < 0)


def _uncertified(ints, roots, scale: int, precision: int) -> int:
    """How many of the ascending int roots at the scale the signs of P (int
    coefficients, lowest degree first) do not certify.

    Root x is certified when P changes sign between x - d and x + d,
    d = 2^(20 - precision) |x|, and that interval lies above the last
    root's.  Each end is moved in towards x onto the grid of 2^k ulp,
    2^k <= d/16, so the ints _sign multiplies stay short.  n disjoint
    intervals with a sign change each hold n roots of P by the intermediate
    value theorem, so at degree n each holds one simple root and P has no
    other."""
    uncertified, last = 0, None
    for x in roots:
        d = abs(x) >> (precision - 20)
        k = max(0, min(scale, d.bit_length() - 5))
        lo, hi = -(-(x - d) >> k), (x + d) >> k
        if ((last is not None and lo << k <= last)
                or _sign(ints, lo, scale - k) * _sign(ints, hi, scale - k) >= 0):
            uncertified += 1
        last = hi << k
    return uncertified


def solve_roots(qp: QPolynomial, precision: int = DEFAULT_PRECISION) -> RootSet:
    """Find and certify all roots of a groundstate Q-polynomial at the
    given precision (bits); all of them must be real.

    qp holds Q as the int polynomial D Q, read here as it is.  With
    extra = ceil(log2 max|c_k|) over the coefficients c_k of Q, the ladder
    runs _aberth on D Q from the arc starts (_starts) at precision
    p = 53, 106, ... and scale p + extra while p < precision + GUARD_BITS,
    then the full pass at precision and scale precision + GUARD_BITS +
    extra, each pass from the last one's roots.  The full pass only
    polishes.  The signs of D Q (_uncertified) must then put one root of Q within
    2^(20 - precision) of each root, relative, and a different one for
    each.  While some root fails, one more full pass runs at twice the
    last one's precision, at most MAX_DOUBLINGS times; after that, or when
    a pass stalls, NonConvergenceError.  The returned roots are rounded to
    precision + GUARD_BITS.  For the reflecting boundary the wt-roots are
    returned as the signs certified them, exactly, and each is split
    through w^2 - wt w + 1 = 0 in ints, w = (wt + isqrt(wt^2 - 4))/2,
    keeping the branch w >= 1; the mirror branch is stored as the
    reciprocal.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    n, ints = qp.n, qp.ints
    # ceil(log2 max|c_k|) for the monic c_k = ints[k]/D, of which one is 1
    extra = (-(-max(map(abs, ints)) // ints[n]) - 1).bit_length()
    roots, at, prec = _starts(qp.boundary, n), 53, 53
    while prec < precision + GUARD_BITS:
        roots, _ = _aberth(ints, [x << prec + extra - at for x in roots], prec, prec + extra)
        prec, at = 2 * prec, prec + extra
    for prec in (precision << k for k in range(MAX_DOUBLINGS + 1)):
        scale = prec + GUARD_BITS + extra
        roots, iterations = _aberth(ints, [x << scale - at for x in roots], prec, scale)
        roots.sort()
        at = scale
        uncertified = _uncertified(ints, roots, scale, precision)
        if not uncertified:
            break
    else:
        raise NonConvergenceError(
            f"signs certify {n - uncertified} of {n} roots to 2^{20 - precision}"
            f" relative at scale {scale}",
            degree=n, precision=precision, iterations=iterations, correction=uncertified,
        )
    wt = None
    if qp.boundary is Boundary.REFLECTING:
        with mp.workprec(max((t.bit_length() for t in roots), default=1)):  # the full mantissa
            wt = tuple(mp.mpf((t, -scale)) for t in roots)
        roots = [(t + isqrt(t * t - (4 << 2 * scale))) >> 1 for t in roots]
    with mp.workprec(precision + GUARD_BITS):
        roots = tuple(mp.mpf((x, -scale)) for x in roots)
        if wt is not None:
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
            certified_scale=scale,
        )
        return replace(rs, residual=bethe_residual(rs))


def _normal(re, im, e, bits: int):
    """The block float (re + i im) 2^e with its larger part cut to the given
    bit length (rounded down; a shorter value is left as it is), below
    2^(1.5 - bits) relative, or 2^(1 - bits) for a real value (im = 0)."""
    k = (abs(re) | abs(im)).bit_length() - bits
    if k > 0:
        return re >> k, im >> k, e + k
    return re, im, e


def _mul(a, b, bits: int):
    """The block-float product a b cut to the given bit length."""
    (ar, ai, ae), (br, bi, be) = a, b
    return _normal(ar * br - ai * bi, ar * bi + ai * br, ae + be, bits)


def _sum(values, bits: int):
    """The exact sum of block floats, cut to the given bit length."""
    e = min(v[2] for v in values)
    return _normal(sum(x << ve - e for x, _, ve in values),
                   sum(y << ve - e for _, y, ve in values), e, bits)


def _power(z, power: int, bits: int):
    """z^power (power >= 0) by binary powering, cut to bits after each step."""
    p = z if power else (1, 0, 0)
    for bit in bin(power)[3:]:
        p = _mul(p, p, bits)
        if bit == "1":
            p = _mul(p, z, bits)
    return p


def _quotient(ar, ai, b, bits: int, e: int = 0):
    """(ar + i ai)/b 2^e for a real int b != 0, the module's one division:
    a block float whose larger part has at least bits + 1 bits, each part
    rounded down.  The numerator is shifted left by
    s = max(0, bits + 2 + len(b) - len(max(|ar|, |ai|))) bits (len the bit
    length) before the int division."""
    s = max(0, bits + 2 + b.bit_length() - max(abs(ar), abs(ai)).bit_length())
    return (ar << s) // b, (ai << s) // b, e - s


def _fixed_roots(roots, bits: int):
    """The scale S = bits + 4 + max(0, -min_i mag(w_i)), each real root w as
    one int at S, q = (h + i r) 2^-S as (h, r), q^2 w at S as an (re, im)
    int pair (one real-by-complex multiply), and the block floats

        z = (q - w)/(q w - 1) = (4w - w^2 - 1 + i sqrt(3) (w^2 - 1)) / (2g)

    with g = |q w - 1|^2 = w^2 - w + 1, an int at 2S.

    As 2^(mag(w) - 2) <= |w| <= 2^mag(w), truncating w errs by less than a
    quarter of its own last bit, however small the root.  r and each part
    of q^2 w are rounded down, below one unit at S.  The parts of z are ints
    at 2S, all exact but sqrt(3) (w^2 - 1) = 2r (w^2 - 1) rounded down, and
    z is one real division (_quotient) by 2g.  As |w^2 - 1| <= 2g/sqrt(3),
    each z is within 2^(1 - S) of the exact (q - w)/(q w - 1) on the
    rounded w, and Re z, whose numerator is exact, within 2^(-2 - S)."""
    S = bits + 4 + max(0, -min((mp.mag(w) for w in roots if w), default=0))
    ws = [int(mp.ldexp(w, S)) for w in roots]
    h, r, one = 1 << S - 1, isqrt(3 << (2 * S - 2)), 1 << 2 * S
    q2w = [(-x >> 1, r * x >> S) for x in ws]  # h w is a shift
    squares = [x * x for x in ws]
    gs = [x2 - (x << S) + one for x, x2 in zip(ws, squares)]
    zs = [_quotient((x << S + 2) - x2 - one, r * (x2 - one) >> S - 1, g, S, -1)
          for x, x2, g in zip(ws, squares, gs)]
    return S, ws, (h, r), q2w, zs


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

    For real w, q^2 w_j - w_i = q^2 conj(w_j - q^2 w_i).  So with
    D_i = prod_j (w_j - q^2 w_i) over m factors (m = n - 1, or 2n - 2 for
    the reflecting chain) the right side is t q^(2m) conj(D_i)^2/|D_i|^2,
    and t q^(2m) is one of 1, q^2, q^4.  The stored roots, q and q^2 w_i
    enter at scale S = precision + GUARD_BITS + 4 + max(0, -min_i mag(w_i))
    (see _fixed_roots), so the factors are exact int differences, and each
    z_i is within 2^(1 - S) of its exact value on those ints.  One running
    product D_i per root is cut back to S bits after every complex
    multiply, a relative error below 2^(1.5 - S) each, which
    conj(D_i)^2/|D_i|^2 doubles; the phase is rounded below 2^-S;
    t conj(D_i)^2 and |D_i|^2 are exact ints, and their quotient is one
    int division (_quotient), rounded down to at least S + 1 bits, below
    2^-S; and z_i^P comes by binary powering (_power), whose squarings
    double every error before them.  So, to first order and relative to
    the same formula evaluated exactly on those rounded ints, the right
    side is within (6m + 2) 2^-S and z_i^P within 8 P 2^-S.  The defect is
    the exact difference of the two, aligned to the smaller exponent; only
    the worst |defect|^2 converts to mpmath.
    """
    n = rs.n
    prec = rs.precision + GUARD_BITS
    S, ws, (h, r), q2w, zs = _fixed_roots(rs.roots, prec)
    one = 1 << S
    # t q^(2m) = q^(2k); t = q^4 adds 2 to k for the twisted chain
    if rs.boundary is Boundary.REFLECTING:
        power, k = 2 * rs.L, 2 * n - 2
    else:
        power, k = rs.L, n + 1 if rs.boundary is Boundary.TWISTED else n - 1
    tr, ti = ((one, 0), (-h, r), (-h, -r))[k % 3]
    worst, worst_e = 0, 0  # |defect|^2 = worst 2^(2 worst_e)
    for i in range(n):
        vr, vi = q2w[i]
        # D starts at scale S and takes one factor at scale S each step; its
        # scale cancels in conj(D)^2/|D|^2.  The cut is inlined here, the one
        # O(n^2) loop.
        dr, di = one, 0
        for j, x in enumerate(ws):
            if j % n == i:
                continue
            fr = x - vr  # w_j - q^2 w_i = fr - i vi
            dr, di = dr * fr + di * vi, di * fr - dr * vi
            k = (abs(dr) | abs(di)).bit_length() - S
            if k > 0:
                dr, di = dr >> k, di >> k
        cr, ci = tr * dr + ti * di, ti * dr - tr * di  # t conj(D)
        ur, ui, ue = _quotient(cr * dr + ci * di, ci * dr - cr * di, dr * dr + di * di, S, -S)
        pr, pi, pe = _power(zs[i], power, S)
        e = min(pe, ue)
        er = (pr << (pe - e)) - (ur << (ue - e))
        ei = (pi << (pe - e)) - (ui << (ue - e))
        d = er * er + ei * ei
        if (d << 2 * max(0, e - worst_e)) > (worst << 2 * max(0, worst_e - e)):
            worst, worst_e = d, e
    with mp.workprec(prec):
        return mp.sqrt(mp.mpf((worst, 2 * worst_e)))


def energy(rs: RootSet):
    """Eigenvalue -L'/2 Delta - sum (z_i + 1/z_i - 2 Delta) at Delta = -1/2,
    L'/4 - sum (z_i + 1/z_i + 1), with L' = L for closed chains and L - 1
    for the reflecting chain; an mpf at precision + GUARD_BITS.

    For real w, |z| = 1 and z + 1/z = 2 Re z, so E = L'/4 - n - 2 sum Re z_i.
    At the scale S of bethe_residual each Re z_i is an exact int over one
    int division, below 2^(-2 - S) off (see _fixed_roots), and the sum is
    exact and cut once to S bits (_sum, with im = 0): E is within
    n 2^(-1 - S) + 2^(1 - S) |E| of that formula evaluated exactly on the
    rounded ints.
    """
    prec = rs.precision + GUARD_BITS
    S, *_, zs = _fixed_roots(rs.bethe_roots, prec)
    lfac = rs.L - 1 if rs.boundary is Boundary.REFLECTING else rs.L
    x, _, e = _sum([(4 * rs.n - lfac, 0, -2), *((zr, 0, ze + 1) for zr, _, ze in zs)], S)
    with mp.workprec(prec):
        return -mp.mpf((x, e))


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
    return [[_quotient(x - yr, -yi, x - y, S) if u != v else None
             for v, (y, (yr, yi)) in enumerate(zip(ws, q2w))]
            for u, x in enumerate(ws)]


def _perm_sum(rs: RootSet, amp_power: int):
    """Sum over orderings of prod_k amp_(x_k)^(n-1-k) prod_{a<b}
    (w_a - q^2 w_b)/(w_b - w_a), amp = 1/(q z^amp_power), over the Bethe
    roots, taken with both signs flipped: the closed pairs and
    -amp = -conj(q) conj(z)^amp_power (|q| = |z| = 1), one multiply with no
    division, each flip every product by (-1)^(n(n-1)/2)."""
    n, prec = rs.n, rs.precision + GUARD_BITS
    S, ws, (h, r), q2w, zs = _fixed_roots(rs.bethe_roots, prec + (factorial(n) - 1).bit_length())
    powers = (_power(z, amp_power, S) for z in zs)
    amps = [_mul((-h, r, -S), (zr, -zi, ze), S) for zr, zi, ze in powers]
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
    S, ws, (_, r), q2w, zs = _fixed_roots(rs.roots, prec + (terms - 1).bit_length())
    closed = _closed_pairs(ws, q2w, S)
    if not reflecting:
        return _ordered_sum(closed, [[_power(z, x, S) for z in zs] for x in positions], S, prec)
    # (1 - q w_v)/(w_v - w_v'); index v - n is the mirror of v
    consts = [_quotient((1 << S) - (w >> 1), -(r * w >> S), w - ws[v - n], S)
              for v, w in enumerate(ws)]
    slots = [[_mul(c, _power(zs[v - n], rs.L - x, S), S) for v, c in enumerate(consts)]
             for x in positions]
    pairs = [[_mul(closed[v][u - n], closed[v - n][u - n], S) if (u - v) % n else None
              for v in range(2 * n)] for u in range(2 * n)]
    return _ordered_sum(pairs, slots, S, prec)


def reflecting_double_product(rs: RootSet):
    """The double product prod_i prod_j (1 + z_i + z_i z_j) over the 2n
    reflecting variables w_1..w_n, 1/w_1..1/w_n, excluding j = i and the
    mirror of i; an mpf at precision + GUARD_BITS, read off the n certified
    wt-roots.

    Each factor is (1 - 2q)(w_i - q^2 w_j)/((q w_i - 1)(q w_j - 1)) (see
    conjectures._double_product) and (1 - 2q)^2 = -3.  For real w,
    (w_i - q^2 w_j)(w_j - q^2 w_i) = -q^2 f(w_i, w_j) with
    f(x, y) = x^2 + x y + y^2, and |q w - 1|^2 = g(w) = w^2 - w + 1; over
    the mirror pairs prod_i (q w_i - 1) = q^n prod_i (1 - wt_i), so the
    phases cancel and the product over the 2n roots is

        3^(2n(n-1)) prod_{i<j, j != i+n} f(w_i, w_j) / prod_i g(w_i)^(2(n-1)).

    With s = w + 1/w, the four mirror factors of a pair of roots multiply
    to a square, f(w_a, w_b) f(w_a, 1/w_b) f(1/w_a, w_b) f(1/w_a, 1/w_b) =
    (s_a^2 + s_a s_b + s_b^2 - 3)^2, and g(w) g(1/w) = (s - 1)^2, so it is

        prod_{a<b} [9 (s_a^2 + s_a s_b + s_b^2 - 3) / ((s_a - 1)(s_b - 1))^2]^2

    over the n wt-roots, a symmetric function of them: s^2 + s t + t^2 - 3
    = (T(s) - T(t))/(s - t) with T(s) = s^3 - 3s.

    Each wt enters as an int at S = precision + GUARD_BITS + 4, truncated
    (wt > 2, so no tiny root needs more bits).  Each pair's
    (9 (s^2 + s t + t^2 - 3))^2 and ((s - 1)(t - 1))^4 are exact ints; the running numerator and
    denominator are each cut to S bits after every pair (_normal with
    im = 0, below 2^(1 - S) relative), and the quotient is one int
    division (_quotient), so to first order the product is within
    n^2 2^(1 - S) of the formula on those ints.  Their truncation moves it
    by less than 5.5 n^2 2^-S more from its value on the certified wt.
    """
    if rs.boundary is not Boundary.REFLECTING:
        raise ValueError("needs a reflecting RootSet")
    prec = rs.precision + GUARD_BITS
    S = prec + 4
    one = 1 << S
    ss = [int(mp.ldexp(t, S)) for t in rs.wt_roots]
    num, ne, den, de = 1, 0, 1, 0
    for a, s in enumerate(ss):
        for t in ss[a + 1:]:
            p = 9 * (s * s + s * t + t * t - (3 << 2 * S))
            num, _, ne = _normal(num * p * p, 0, ne - 4 * S, S)
            den, _, de = _normal(den * ((s - one) * (t - one)) ** 4, 0, de - 8 * S, S)
    x, _, e = _quotient(num, 0, den, S, ne - de)
    with mp.workprec(prec):
        return mp.mpf((x, e))
