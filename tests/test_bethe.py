"""High-precision root extraction, certification and root-based sums."""

import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb

import mpmath
import pytest
from mpmath import mp

import betheq.bethe as bethe
from betheq.asmcounts import asm_count, asm_v, n8
from betheq.bethe import (
    NonConvergenceError,
    component_sum_large,
    component_sum_small,
    energy,
    reflecting_double_product,
    solve_roots,
    wavefunction_component,
)
from betheq.conjectures import verify_reflecting_product
from betheq.qfunctions import (
    Boundary,
    elem_for,
    elem_periodic,
    elem_reflecting,
    elem_twisted,
)
from oracles import (
    aberth_mpmath,
    bethe_residual_mpmath,
    energy_mpmath,
    monic_coeffs,
    perm_sum_mpmath,
    qpoly_from_evalues,
    reconstruct_error_mpmath,
    reflecting_double_product_mpmath,
    reflecting_product_split_fraction,
    to_w,
    to_z,
    wavefunction_component_mpmath,
)

PREC = 192
TOL = mp.mpf(2) ** (30 - PREC)


@lru_cache(maxsize=None)
def groundstate_roots(boundary, n, precision):
    """solve_roots of the groundstate Q_n, shared by the oracle tests (a
    RootSet is frozen)."""
    return solve_roots(elem_for(boundary, n), precision)


class TestVariableChange:
    def test_round_trip(self):
        w = mp.mpc("0.7", "0.3")
        assert abs(to_w(to_z(w, 128), 128) - w) < mp.mpf(2) ** -120

    def test_fixed_point(self):
        # w = 1 maps to z = (q - 1)/(q - 1) = 1
        assert abs(to_z(mp.mpf(1), 128) - 1) < mp.mpf(2) ** -120

    @pytest.mark.parametrize("precision", [128, 256, 4096])
    @pytest.mark.parametrize("n", [1, 4, 10, 20])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_fixed_point_z_within_its_bound(self, boundary, n, precision):
        # the closed-form z of _fixed_roots lands within 2^(1 - S) of
        # (q - w)/(q w - 1) on the same rounded int w; 2^(0.27 - S) at worst
        rs = groundstate_roots(boundary, n, precision)
        S, ws, *_, zs = bethe._fixed_roots(rs.roots, precision + bethe.GUARD_BITS)
        assert len(zs) == len(rs.roots)
        with mp.workprec(2 * S + 64):
            for x, (zr, zi, e) in zip(ws, zs):
                want = to_z(mp.mpf((x, -S)), mp.prec)
                assert abs(mp.mpc(mp.mpf((zr, e)), mp.mpf((zi, e))) - want) <= mp.mpf(2) ** (1 - S)


class TestSolveRoots:
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_roots_satisfy_polynomial(self, boundary, n):
        qp = elem_for(boundary, n)
        rs = solve_roots(qp, PREC)
        with mp.workprec(PREC + 32):
            coeffs = [mp.mpf(c.numerator) / c.denominator for c in monic_coeffs(qp)]
            targets = rs.wt_roots if boundary is Boundary.REFLECTING else rs.roots
            for r in targets:
                val = mp.mpc(0)
                for c in reversed(coeffs):
                    val = val * r + c
                assert abs(val) < mp.mpf(2) ** (40 - PREC) * max(
                    1, abs(r) ** len(coeffs)
                )

    def test_reflecting_reciprocal_pairs(self):
        rs = solve_roots(elem_reflecting(3), PREC)
        n = rs.n
        assert len(rs.roots) == 2 * n
        with mp.workprec(PREC + 64):
            for i in range(n):
                assert abs(rs.roots[i] * rs.roots[i + n] - 1) < TOL
                assert abs(rs.roots[i]) >= 1 - mp.mpf(2) ** (10 - PREC)

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            solve_roots(elem_periodic(2), 32)

    def test_residual_certificate_attached(self):
        rs = solve_roots(elem_periodic(4), PREC)
        assert rs.residual is not None
        assert rs.residual < mp.mpf(10) ** -40

    def test_n1_periodic_root_is_one(self):
        # Q_1(w) = w - 1 for the periodic chain
        rs = solve_roots(elem_periodic(1), PREC)
        assert abs(rs.roots[0] - 1) < TOL


def _mpf(root, scale):
    """An int at the given scale as an mpf."""
    return mp.mpf((root, -scale))


def _starts(qp, scale):
    """The arc starts of solve_roots for qp, shifted to the given scale."""
    return [x << scale - 53 for x in bethe._starts(qp.boundary, qp.n)]


class TestAberthStoppingRule:
    @pytest.mark.parametrize("boundary, n", [(Boundary.PERIODIC, 6), (Boundary.REFLECTING, 5)])
    def test_stops_at_rounding_floor(self, boundary, n):
        # At scale 192 a step of one ulp is still above 2^(4 - 256) relative
        # for these roots, so only the rounding-floor rule or a step that
        # rounds to zero can end the iteration.
        qp = elem_for(boundary, n)
        roots, iterations = bethe._aberth(qp.ints, _starts(qp, 192), 256, 192)
        assert iterations < 64 + 8 * 256 // 16
        rs = solve_roots(qp, 256)
        want = rs.wt_roots or rs.roots
        with mp.workprec(256):
            for r in roots:
                assert min(abs(_mpf(r, 192) - w) for w in want) < mp.mpf(2) ** -170

    @pytest.mark.parametrize("roots", [(0, 1, -1), (0, 1, 1)], ids=["p-prime-is-p-sum", "equal-roots"])
    def test_zero_step_denominator_raises(self, roots):
        # w^3 + 1 from (0, 1, -1): p'(0) = 0 and the Aberth sum at 0 is 0, so
        # the step p / (p' - p S) at the first root has no denominator; from
        # (0, 1, 1) the sum at root 1 has 1/(1 - 1)
        with pytest.raises(NonConvergenceError) as info:
            bethe._aberth([1, 0, 0, 1], [x << 53 for x in roots], 53, 53)
        err = info.value
        assert "zero denominator" in str(err)
        assert (err.degree, err.precision, err.iterations, err.correction) == (3, 53, 1, mp.inf)

    def test_float_seed_shortens_the_multiprecision_pass(self):
        # from the last rung of the ladder the full pass only polishes: one
        # step, and one to see that the roots stopped
        assert solve_roots(elem_reflecting(24), 256).iterations <= 3
        assert solve_roots(elem_periodic(6), 4096).iterations <= 3


class TestMpmathOracle:
    """The fixed-point kernel behind solve_roots against the mpmath Aberth
    iteration at 512 bits, on the reals, from the same arc starts."""

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", [4, 10, 20])
    def test_roots_match(self, boundary, n):
        qp = elem_for(boundary, n)
        rs = groundstate_roots(boundary, n, 256)
        got = list(rs.wt_roots or rs.roots)
        with mp.workprec(512):
            cs = [mp.mpf(c.numerator) / c.denominator for c in reversed(monic_coeffs(qp))]
            want, _ = aberth_mpmath(cs, [_mpf(x, 53) for x in bethe._starts(boundary, n)], 256)
            for w in want:
                near = min(got, key=lambda g: abs(g - w))
                assert abs(near - w) <= mp.mpf(2) ** (20 - 256) * abs(w)
                got.remove(near)


def solve_recording_passes(monkeypatch, qp, precision=256, fail=None):
    """solve_roots(qp, precision), recording every _aberth pass as (start,
    prec, scale, roots) and every sign certificate as the count it returns.
    fail = (i, result) makes pass i return the roots `result` instead, or
    raise `result` when it is an exception (recorded with roots None)."""
    passes, counts = [], []
    aberth, uncertified = bethe._aberth, bethe._uncertified

    def spy_aberth(ints, roots, prec, scale):
        start = list(roots)
        roots, iterations = aberth(ints, roots, prec, scale)
        if fail and fail[0] == len(passes):
            if isinstance(fail[1], Exception):
                passes.append((start, prec, scale, None))
                raise fail[1]
            roots = list(fail[1])
        passes.append((start, prec, scale, list(roots)))
        return roots, iterations

    def spy_uncertified(*args):
        counts.append(uncertified(*args))
        return counts[-1]

    monkeypatch.setattr(bethe, "_aberth", spy_aberth)
    monkeypatch.setattr(bethe, "_uncertified", spy_uncertified)
    return solve_roots(qp, precision), passes, counts


class TestFloatSeed:
    """The precision ladder from the float arc starts: its first rung starts
    there at precision 53, each later pass starts from the last one's roots
    at twice the precision, a full pass follows, and while the signs leave a
    root uncertified one more full pass runs at twice its precision.  A
    failing rung is not caught: its error, or the zero Aberth denominator
    its coincident roots give the next pass, reaches the caller."""

    @staticmethod
    def assert_ladder(qp, passes, precision, doublings=0):
        """The arc starts at scale 53 + extra start the first rung at
        precision 53; rungs double the precision at scale precision +
        extra; each pass starts from the last one's roots, shifted to its
        scale; the full passes run at precision 2^k precision, k = 0 ..
        doublings, and scale that + GUARD_BITS + extra, the first of them
        where the next rung would reach its scale."""
        extra = passes[0][2] - 53
        assert passes[0][:3] == (_starts(qp, 53 + extra), 53, 53 + extra)
        for before, after in zip(passes, passes[1:]):
            shift = after[2] - before[2]
            assert shift > 0 and sorted(after[0]) == sorted(x << shift for x in before[3])
        rungs = passes[:len(passes) - doublings - 1]
        for before, rung in zip(passes, rungs[1:]):
            assert rung[1] == 2 * before[1] and rung[2] == rung[1] + extra
        assert 2 * rungs[-1][1] >= precision + bethe.GUARD_BITS > rungs[-1][1]
        for k, (_, prec, scale, _) in enumerate(passes[len(rungs):]):
            assert (prec, scale) == (precision << k, (precision << k) + bethe.GUARD_BITS + extra)

    @pytest.mark.parametrize("boundary, n, precision", [
        (Boundary.PERIODIC, 20, 256), (Boundary.REFLECTING, 24, 256),
        (Boundary.TWISTED, 9, 64), (Boundary.PERIODIC, 6, 4096),
    ])
    def test_rungs_double_the_precision(self, monkeypatch, boundary, n, precision):
        qp = elem_for(boundary, n)
        rs, passes, counts = solve_recording_passes(monkeypatch, qp, precision)
        self.assert_ladder(qp, passes, precision)
        assert counts == [0] and rs.certified_scale == passes[-1][2]

    def test_reflecting_103_certifies_after_one_doubling(self, monkeypatch):
        # The deleted coefficient-reconstruction gate raised here (1.58e-71
        # against 9.06e-72), although the roots were fine.  The signs leave
        # some of them uncertified at the first full pass and certify all
        # of them at twice its precision.
        qp = elem_reflecting(103)
        rs, passes, counts = solve_recording_passes(monkeypatch, qp, 256)
        self.assert_ladder(qp, passes, 256, doublings=1)
        assert counts[0] > 0 and counts[1:] == [0]
        assert rs.certified_scale == passes[-1][2] and len(rs.roots) == 206

    def test_ladder_cap_raises(self, monkeypatch):
        # signs that never certify: MAX_DOUBLINGS more full passes, then a
        # structured error at the requested precision
        scales = []
        monkeypatch.setattr(bethe, "_uncertified",
                            lambda ints, roots, scale, precision: scales.append(scale) or 2)
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(elem_twisted(5), 128)
        err = info.value
        assert "certify 3 of 5 roots" in str(err)
        assert (err.degree, err.precision, err.correction) == (5, 128, 2)
        extra = scales[0] - 128 - bethe.GUARD_BITS
        assert scales == [(128 << k) + bethe.GUARD_BITS + extra
                          for k in range(bethe.MAX_DOUBLINGS + 1)]

    def test_coefficients_overflowing_a_double(self):
        # (w - a)(w + a)(w - 3a) with a = 10^134: e_3 = -3a^3 ~ -10^402, beyond
        # the double range but not beyond the ints of the ladder.  Its roots
        # lie far from the groundstate arc, so the first rung stalls at its
        # cap: a structured error, not an overflow.
        a = 10**134
        qp = qpoly_from_evalues(Boundary.TWISTED, (1, 3 * a, -a * a, -3 * a**3))
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(qp, 256)
        assert (info.value.precision, info.value.iterations) == (53, 64 + 8 * 53 // 16)

    @pytest.mark.parametrize("boundary, n", [(Boundary.PERIODIC, 8), (Boundary.REFLECTING, 6)])
    def test_coincident_float_roots(self, monkeypatch, boundary, n):
        coincident = [1 << 60] * n
        with pytest.raises(NonConvergenceError) as info:
            solve_recording_passes(monkeypatch, elem_for(boundary, n), fail=(0, coincident))
        assert "zero denominator" in str(info.value) and info.value.correction == mp.inf

    @pytest.mark.parametrize("rung, failure", [
        (0, ZeroDivisionError()), (1, ZeroDivisionError()), (2, ZeroDivisionError()),
        (1, [1] * 8), (2, [1] * 8),
    ], ids=["0-raises", "1-raises", "2-raises", "1-coincident", "2-coincident"])
    def test_failing_rung(self, monkeypatch, rung, failure):
        # periodic n = 8 at 256 bits climbs rungs 0, 1 and 2 (53, 106, 212
        # bits); the error of a failing rung ends the solve, with no fallback
        with pytest.raises(ArithmeticError) as info:
            solve_recording_passes(monkeypatch, elem_periodic(8), fail=(rung, failure))
        if isinstance(failure, Exception):
            assert info.value is failure
        else:
            assert isinstance(info.value, NonConvergenceError) and info.value.correction == mp.inf


class TestNonConvergence:
    def test_certificate_failure_carries_fields(self, monkeypatch):
        monkeypatch.setattr(bethe, "_uncertified", lambda ints, roots, scale, precision: 1)
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(elem_periodic(4), PREC)
        err = info.value
        assert "signs certify 3 of 4 roots" in str(err)
        assert err.degree == 4
        assert err.precision == PREC
        assert err.iterations >= 1
        assert err.correction == 1

    def test_iteration_cap_carries_fields(self):
        # (w - 1)^8: Aberth converges only linearly on an eightfold root,
        # so 90 iterations do not bring the relative step below 2^(4 - 53)
        ints = [comb(8, k) * (-1) ** (8 - k) for k in range(9)]
        with pytest.raises(NonConvergenceError) as info:
            bethe._aberth(ints, _starts(elem_periodic(8), 1000), 53, 1000)
        err = info.value
        assert "stalled at correction" in str(err)
        assert (err.degree, err.precision, err.iterations) == (8, 53, 64 + 8 * 53 // 16)
        assert err.correction > mp.mpf(2) ** (4 - 53)

    def test_message_is_short_and_keeps_the_exponent(self):
        # the stall of (w - 1)^8 at a worst step of 1.84e-8: a message cut
        # at 160 characters must still read as that
        ints = [comb(8, k) * (-1) ** (8 - k) for k in range(9)]
        with pytest.raises(NonConvergenceError) as info:
            bethe._aberth(ints, _starts(elem_periodic(8), 1000), 53, 1000)
        message = str(info.value)
        assert len(message) < 160
        assert mpmath.nstr(info.value.correction, 8) in message and "e-8" in message


class TestStallSizes:
    """Sizes at which Aberth used to run into its iteration cap at 256
    bits: each root set must meet the reconstruction bound and Vieta's
    relations for e_1 and e_n."""

    @pytest.mark.parametrize(
        "boundary, n",
        [
            (Boundary.REFLECTING, 20),
            (Boundary.REFLECTING, 24),
            (Boundary.PERIODIC, 36),
            (Boundary.REFLECTING, 45),
        ],
    )
    def test_solve_roots(self, boundary, n):
        qp = elem_for(boundary, n)
        rs = groundstate_roots(boundary, n, 256)
        values = rs.wt_roots if boundary is Boundary.REFLECTING else rs.roots
        assert len(values) == n
        with mp.workprec(512):
            tol = mp.mpf(2) ** (20 - 256)
            assert reconstruct_error_mpmath(monic_coeffs(qp), values) <= tol
            for got, want in ((mp.fsum(values), qp.evalues[1]),
                              (mp.fprod(values), qp.evalues[n])):
                want = mp.mpf(want.numerator) / want.denominator
                assert abs(got - want) <= n * tol * max(1, abs(want))

    def test_reflecting_product_n20(self):
        assert verify_reflecting_product(20, 256).equal


class TestCertifiedSweep:
    """Every groundstate the numeric checks use, and more: solve_roots
    certifies all three boundaries for n = 1..12, 30 and 60 at 256 bits and
    for n <= 6 at 64 and 4096 bits, with real ascending roots."""

    CASES = [(b, n, 256) for b in Boundary for n in [*range(1, 13), 30, 60]] + [
        (b, n, precision) for b in Boundary for n in range(1, 7) for precision in (64, 4096)]

    @pytest.mark.parametrize("boundary, n, precision", CASES)
    def test_certifies(self, boundary, n, precision):
        rs = groundstate_roots(boundary, n, precision)
        values = rs.wt_roots or rs.roots
        assert len(values) == n
        assert all(isinstance(w, mp.mpf) for w in rs.roots + (rs.wt_roots or ()))
        assert list(values) == sorted(values, key=mp.re) and mp.re(values[0]) > 0
        assert rs.certified_scale >= precision + bethe.GUARD_BITS


class TestLargeCoefficients:
    """Cubics with coefficients up to 10^2700, at 256 bits.  None is a
    groundstate Q: the huge-constant and huge-linear ones have two non-real
    roots, and the three-real ones have their roots far from the
    groundstate arc.  Each must raise a structured NonConvergenceError, and
    fast: the first rung of the ladder ends at its cap or on its signs."""

    @staticmethod
    def assert_fails_loudly(evalues):
        qp = qpoly_from_evalues(Boundary.TWISTED, evalues)
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(qp, 256)
        assert time.perf_counter() - start < 5
        err = info.value
        assert err.degree == 3 and err.iterations >= 1
        assert err.precision in (53, 106, 212, 256) and err.correction > 0

    @pytest.mark.parametrize("k", [300, 330, 400, 500])
    def test_three_real_roots_of_one_sign(self, k):
        # (w - a)(w - 2a)(w - 4a) with a = 10^k
        a = 10**k
        self.assert_fails_loudly((1, 7 * a, 14 * a * a, 8 * a**3))

    @pytest.mark.parametrize("k", [300, 330, 400, 500, 600, 700, 900])
    def test_huge_constant_term(self, k):
        # w^3 - 2w^2 + 3w - 10^k: one real root of size 10^(k/3)
        self.assert_fails_loudly((1, 2, 3, 10**k))

    @pytest.mark.parametrize("k", [300, 330, 400, 500])
    def test_huge_linear_coefficient(self, k):
        # w^3 - 3w^2 + 10^k w - 7: one root near 7 10^-k, two near +-i 10^(k/2)
        self.assert_fails_loudly((1, 3, 10**k, 7))

    def test_huge_linear_coefficient_stalls_loudly(self):
        self.assert_fails_loudly((1, 3, 10**700, 7))

    @pytest.mark.parametrize("evalues", [(1, 0, 1), (1, 2, 3, 10)], ids=["w2+1", "cubic"])
    def test_small_non_real_roots(self, evalues):
        # w^2 + 1 and w^3 - 2w^2 + 3w - 10 (one real root, two non-real)
        qp = qpoly_from_evalues(Boundary.TWISTED, evalues)
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(qp, 256)
        assert info.value.degree == qp.n


class TestReconstructionOracle:
    """The int sign certificate (_uncertified) that replaced the
    coefficient-reconstruction gate, against that gate kept as an mpmath
    oracle (oracles.reconstruct_error_mpmath, to 2^(20 - 256)) and against
    signs of Q taken in Fraction arithmetic: on the int roots of the
    certified pass and on those roots moved by 2^-140 relative, the three
    verdicts must agree.  The cubics are not groundstates, so their
    roots are given: the exact ones of the three-real cubic, and a real
    root with two real points for the others, which no real roots fit."""

    CUBICS = {
        "three-real-300": ((1, 7 * 10**300, 14 * 10**600, 8 * 10**900), (1, 2, 4)),
        "constant-600": ((1, 2, 3, 10**600), (1, 2, 3)),
        "linear-500": ((1, 3, 10**500, 7), (1, 2, 3)),
    }
    SCALE = 3000

    @staticmethod
    def fraction_uncertified(coeffs, roots, scale, precision):
        """The count _uncertified gives, from signs of Q on Fractions at the
        full interval ends x +- 2^(20 - precision) |x|."""
        def sign(x):
            v = 0
            for c in reversed(coeffs):
                v = v * x + c
            return (v > 0) - (v < 0)

        count, last = 0, None
        for x in (Fraction(r, 1 << scale) for r in roots):
            d = abs(x) / 2 ** (precision - 20)
            if (last is not None and x - d <= last) or sign(x - d) * sign(x + d) >= 0:
                count += 1
            last = x + d
        return count

    def roots_at_scale(self, monkeypatch, name, qp):
        """The int roots the signs certified and their scale."""
        if name not in self.CUBICS:
            _, passes, _ = solve_recording_passes(monkeypatch, qp)
            return sorted(passes[-1][3]), passes[-1][2]
        evalues, given = self.CUBICS[name]
        a = 10**300 if name.startswith("three") else 1
        return [(r * a) << self.SCALE for r in given], self.SCALE

    @pytest.mark.parametrize("name, qp", [
        *((f"{b.value}-{n}", elem_for(b, n)) for b in Boundary for n in (4, 10, 20, 45)),
        *((name, qpoly_from_evalues(Boundary.TWISTED, c))
          for name, (c, _) in CUBICS.items()),
    ], ids=[*(f"{b.value}-{n}" for b in Boundary for n in (4, 10, 20, 45)), *CUBICS])
    def test_agrees_on_the_same_roots(self, monkeypatch, name, qp):
        roots, scale = self.roots_at_scale(monkeypatch, name, qp)
        coeffs, ints = monic_coeffs(qp), qp.ints
        verdicts = []
        for moved in (roots, [x + (x >> 140) for x in roots]):
            got = bethe._uncertified(ints, moved, scale, 256)
            with mp.workprec(scale + 64):
                rebuilt = reconstruct_error_mpmath(coeffs, [_mpf(x, scale) for x in moved])
            assert got == self.fraction_uncertified(coeffs, moved, scale, 256)
            assert (got == 0) == (rebuilt <= mp.mpf(2) ** (20 - 256))
            verdicts.append(got == 0)
        assert verdicts == ([False, False] if name in ("constant-600", "linear-500")
                            else [True, False])


class TestResiduals:
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", range(1, 11))
    def test_bethe_equations_hold(self, boundary, n):
        rs = groundstate_roots(boundary, n, 256)
        assert rs.residual < mp.mpf(10) ** -40


class TestResidualOracle:
    """The block-float residual against the mpmath one on the same roots."""

    CASES = [(b, n, 256) for b in Boundary for n in (1, 4, 10, 20)] + [
        (b, 6, 4096) for b in Boundary
    ]

    @pytest.mark.parametrize("boundary, n, precision", CASES)
    def test_agrees_to_the_precision(self, boundary, n, precision):
        rs = groundstate_roots(boundary, n, precision)
        got, want = bethe.bethe_residual(rs), bethe_residual_mpmath(rs)
        assert isinstance(got, mp.mpf)
        assert abs(got - want) <= mp.mpf(2) ** -precision

    @pytest.mark.parametrize("boundary, n, precision", CASES)
    def test_agrees_off_the_roots(self, boundary, n, precision):
        # Root 0 (and its mirror) moved by 2^-100 relative: the residual is
        # then about 2^-100, set by the formula and not by rounding, so a
        # wrong factor, exclusion, twist or power shows.  Each side rounds
        # to about 2^(16 - precision) absolute, 2^(116 - precision) of that.
        rs = groundstate_roots(boundary, n, precision)
        with mp.workprec(precision + 64):
            w0 = rs.roots[0] * (1 + mp.mpf(2) ** -100)
            roots = (w0,) + rs.roots[1:]
            if boundary is Boundary.REFLECTING:
                roots = roots[:n] + (1 / w0,) + roots[n + 1 :]
        moved = replace(rs, roots=roots)
        got, want = bethe.bethe_residual(moved), bethe_residual_mpmath(moved)
        assert want > mp.mpf(2) ** -110
        assert abs(got - want) <= mp.mpf(2) ** (116 - precision) * want

    def test_tiny_and_huge_roots(self):
        # a root near 7 10^-300 that a scale without its extra bits would
        # round to 0, and two of size 10^150
        rs = solve_roots(elem_twisted(3), 256)
        with mp.workprec(256 + 64):
            roots = tuple(mp.mpf(x) for x in ("7e-300", "1.5e150", "2.5e150"))
        rs = replace(rs, roots=roots)
        got, want = bethe.bethe_residual(rs), bethe_residual_mpmath(rs)
        assert want > 1
        assert abs(got - want) <= mp.mpf(2) ** (16 - 256) * want

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_roots_far_below_one(self, boundary):
        # All roots times 2^-1000: the product side is scale invariant and
        # z_i tends to -q, so the residual is of order 1 and needs every
        # root to keep its bits at the scale; at 2^-(precision + 68) all
        # of them would round to 0.
        rs = solve_roots(elem_for(boundary, 4), 256)
        with mp.workprec(256 + 64):
            tiny = replace(rs, roots=tuple(w * mp.mpf(2) ** -1000 for w in rs.roots))
        got, want = bethe.bethe_residual(tiny), bethe_residual_mpmath(tiny)
        assert want > mp.mpf(2) ** -10
        assert abs(got - want) <= mp.mpf(2) ** (16 - 256) * want

    def test_no_roots_is_exactly_zero(self):
        rs = solve_roots(elem_periodic(0), 256)
        assert rs.residual == 0
        assert isinstance(bethe.bethe_residual(rs), mp.mpf)


class TestEnergy:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_periodic_energy_is_minus_three_quarters_L(self, n):
        rs = solve_roots(elem_periodic(n), PREC)
        e = energy(rs)
        assert abs(e - mp.mpf(-3) * rs.L / 4) < TOL

    @pytest.mark.parametrize("n", range(1, 8))
    def test_periodic_z_sum(self, n):
        # sum (z_i + 1/z_i) = n + 1 for the periodic groundstate
        rs = solve_roots(elem_periodic(n), PREC)
        with mp.workprec(PREC):
            total = mp.mpc(0)
            for w in rs.roots:
                z = to_z(w, PREC)
                total += z + 1 / z
            assert abs(total - (n + 1)) < TOL

    @pytest.mark.parametrize("n", range(1, 8))
    def test_twisted_energy(self, n):
        rs = solve_roots(elem_twisted(n), PREC)
        assert abs(energy(rs) - mp.mpf(-3) * rs.L / 4) < TOL

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reflecting_energy(self, n):
        # E = -3(L-1)/4 - sqrt(3)/2 sin(pi/3)... collapses to -3(2n-1)/4
        rs = solve_roots(elem_reflecting(n), PREC)
        assert abs(energy(rs) - mp.mpf(-3) * (rs.L - 1) / 4) < TOL


class TestEnergyAndProductOracle:
    """energy and reflecting_double_product against the mpmath formulas on
    the same roots, run 512 bits above the working precision."""

    ENERGY = [(b, n, precision) for b in Boundary for n in range(1, 9)
              for precision in (128, 256, 4096)]
    PRODUCT = [(n, precision) for n in range(1, 11) for precision in (128, 256, 4096)]

    @staticmethod
    def assert_agrees(got, want, precision):
        assert isinstance(got, mp.mpf)
        with mp.workprec(precision + 512):
            assert abs(got - want) <= mp.mpf(2) ** (16 - precision) * abs(want)

    @pytest.mark.parametrize("boundary, n, precision", ENERGY)
    def test_energy(self, boundary, n, precision):
        rs = groundstate_roots(boundary, n, precision)
        ref = replace(rs, precision=precision + 512)
        self.assert_agrees(energy(rs), energy_mpmath(ref), precision)

    @pytest.mark.parametrize("n, precision", PRODUCT)
    def test_reflecting_product(self, n, precision):
        rs = groundstate_roots(Boundary.REFLECTING, n, precision)
        ref = replace(rs, precision=precision + 512)
        self.assert_agrees(reflecting_double_product(rs),
                           reflecting_double_product_mpmath(ref), precision)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_reflecting_product_to_the_rounding_of_the_roots(self, n):
        # prod_{a<b} [9 (s_a^2 + s_a s_b + s_b^2 - 3) / ((s_a - 1)(s_b - 1))^2]^2
        # on the certified wt-roots s at 256 bits lands at worst 2^-316.8
        # relative from A_V(2n+1)^2 N_8(2n)^4 (n = 10)
        rs = groundstate_roots(Boundary.REFLECTING, n, 256)
        with mp.workprec(512):
            want = mp.mpf(asm_v(2 * n + 1)) ** 2 * mp.mpf(n8(2 * n)) ** 4
            assert abs(reflecting_double_product(rs) - want) <= mp.mpf(2) ** -312 * want

    @staticmethod
    def pair_product(ss):
        """prod_{a<b} [9 (s_a^2 + s_a s_b + s_b^2 - 3) / ((s_a - 1)(s_b - 1))^2]^2
        in Fractions."""
        total = Fraction(1)
        for a, s in enumerate(ss):
            for t in ss[a + 1:]:
                total *= (9 * (s * s + s * t + t * t - 3) / ((s - 1) * (t - 1)) ** 2) ** 2
        return total

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pair_product_is_the_split_formula(self, n):
        # the four mirror factors of a pair multiply to a square and
        # g(w) g(1/w) = (s - 1)^2, so the 2n-root formula is the pair
        # product on s = w + 1/w, exactly, for any nonzero rational w
        rng = random.Random(n)
        for _ in range(20):
            ws = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 60))
                  for _ in range(n)]
            want = reflecting_product_split_fraction(ws)
            assert self.pair_product([w + 1 / w for w in ws]) == want

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_reflecting_product_rounds_the_pair_product(self, n):
        # dyadic wt-roots > 2 with 9 fractional bits enter at S exactly, so
        # only the cuts and the division round: within n^2 2^(1 - S)
        rng = random.Random(n)
        ss = [Fraction(rng.randint(2**10 + 1, 2**16), 2**9) for _ in range(n)]
        rs = replace(groundstate_roots(Boundary.REFLECTING, n, 256),
                     wt_roots=tuple(mp.mpf(s.numerator) / s.denominator for s in ss))
        want = self.pair_product(ss)
        S = 256 + bethe.GUARD_BITS + 4
        with mp.workprec(1024):
            want = mp.mpf(want.numerator) / want.denominator
            assert abs(reflecting_double_product(rs) - want) <= n * n * mp.mpf(2) ** (1 - S) * want

    def test_energy_to_the_rounding_of_the_roots(self):
        # E = -3L'/4 exactly on every groundstate; at 256 bits the block
        # floats land within 2^-319.6 relative of it for n <= 8, and a
        # scale 40 bits short leaves 2^-282.9
        with mp.workprec(512):
            for boundary in Boundary:
                for n in range(1, 9):
                    rs = groundstate_roots(boundary, n, 256)
                    lp = rs.L - 1 if boundary is Boundary.REFLECTING else rs.L
                    want = mp.mpf(-3) * lp / 4
                    assert abs(energy(rs) - want) <= mp.mpf(2) ** -312 * abs(want)

    def test_energy_without_roots(self):
        rs = solve_roots(elem_periodic(0), 256)
        assert energy(rs) == mp.mpf(rs.L) / 4
        assert isinstance(energy(rs), mp.mpf)

    def test_product_needs_a_reflecting_rootset(self):
        with pytest.raises(ValueError):
            reflecting_double_product(groundstate_roots(Boundary.TWISTED, 2, 128))


class TestComponentSums:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_small_component_sum_is_asm_count(self, n):
        rs = solve_roots(elem_periodic(n), PREC)
        val = component_sum_small(rs)
        assert abs(val - asm_count(n)) < mp.mpf(10) ** -20

    @pytest.mark.parametrize("n", range(1, 6))
    def test_large_component_sum_is_asm_count_squared(self, n):
        rs = solve_roots(elem_periodic(n), PREC)
        val = component_sum_large(rs)
        assert abs(val - asm_count(n) ** 2) < mp.mpf(10) ** -20

    @pytest.mark.parametrize("n", [9, 10])
    def test_sums_at_larger_n(self, n):
        rs = solve_roots(elem_periodic(n), PREC)
        a = asm_count(n)
        assert abs(component_sum_small(rs) - a) < mp.mpf(10) ** -20 * a
        assert abs(component_sum_large(rs) - a * a) < mp.mpf(10) ** -20 * a * a

    def test_scale_covers_the_cancellation(self):
        # The small sum at n = 12 cancels 12! products down to A_12.  With
        # ceil(log2 12!) = 29 extra bits in its scale it lands at 2^-316.2
        # relative, where the rounding of the roots themselves sets the
        # floor; a fixed 16 extra bits leave it at 2^-312.3, none at 2^-295.
        # The large sum lands at 2^-315.1 relative to A_12^2.
        rs = solve_roots(elem_periodic(12), 256)
        a = asm_count(12)
        with mp.workprec(512):
            assert abs(component_sum_small(rs) - a) <= mp.mpf(2) ** -314 * a
            assert abs(component_sum_large(rs) - a * a) <= mp.mpf(2) ** -314 * a * a


class TestOrderedSum:
    """The subset dynamic programme against direct enumeration of every
    ordering (and every sign choice), on random block-float tables."""

    @pytest.mark.parametrize("signs", [(1,), (1, -1)])
    @pytest.mark.parametrize("n", range(5))
    def test_matches_enumeration(self, n, signs):
        rng = random.Random(100 * n + len(signs))
        m = len(signs)

        def rand():
            return rng.randrange(-(2**60), 2**60), rng.randrange(-(2**60), 2**60), -60

        def value(t):
            return mp.mpc(mp.mpf((t[0], t[2])), mp.mpf((t[1], t[2])))

        nodes = range(m * n)
        pair = [[rand() for v in nodes] for u in nodes]
        slot = [[rand() for v in nodes] for k in range(n)]
        got = bethe._ordered_sum(pair, slot, PREC, PREC)
        with mp.workprec(PREC):
            want = mp.mpc(0)
            for perm in permutations(range(n)):
                for sigma in product(range(m), repeat=n):
                    vs = [x + n * t for x, t in zip(perm, sigma)]
                    term = mp.mpc(1)
                    for k in range(n):
                        term *= value(slot[k][vs[k]])
                        for b in range(k + 1, n):
                            term *= value(pair[vs[k]][vs[b]])
                    want += term
            assert abs(got - want) < TOL * max(1, abs(want))
        if n == 0:
            assert got == 1


class TestOrderedSumOracle:
    """The block-float component sums and a wavefunction component at
    seeded positions against the mpmath ordered sum on the same roots, run
    512 bits above the working precision."""

    CASES = [
        (b, n, precision)
        for b in Boundary
        for n in range(1, 5 if b is Boundary.REFLECTING else 7)
        for precision in (128, 256, 4096)
    ]

    @pytest.mark.parametrize("boundary, n, precision", CASES)
    def test_agrees_to_the_precision(self, boundary, n, precision):
        rs = groundstate_roots(boundary, n, precision)
        x = sorted(random.Random(1000 * n + precision).sample(range(1, rs.L + 1), n))
        ref = replace(rs, precision=precision + 512)
        values = [(wavefunction_component(rs, x), wavefunction_component_mpmath(ref, x)),
                  (component_sum_small(rs), perm_sum_mpmath(ref, 1)),
                  (component_sum_large(rs), perm_sum_mpmath(ref, 2))]
        with mp.workprec(precision + 512):
            for got, want in values:
                assert isinstance(got, mp.mpc)
                assert abs(got - want) <= mp.mpf(2) ** (16 - precision) * abs(want)


class TestWavefunction:
    def test_position_validation(self):
        rs = solve_roots(elem_periodic(2), PREC)
        with pytest.raises(ValueError):
            wavefunction_component(rs, [1])
        with pytest.raises(ValueError):
            wavefunction_component(rs, [3, 2])
        with pytest.raises(ValueError):
            wavefunction_component(rs, [0, 2])
        with pytest.raises(ValueError):
            wavefunction_component(rs, [1.5, 3])
        with pytest.raises(ValueError):
            wavefunction_component(solve_roots(elem_reflecting(2), PREC), [1.5, 3])

    @pytest.mark.parametrize("n", [2, 3])
    def test_periodic_component_ratio(self, n):
        # |psi_max / psi_min| = A_n for the alternating vs packed
        # configurations on the periodic chain
        rs = solve_roots(elem_periodic(n), PREC)
        packed = list(range(1, n + 1))
        alternating = list(range(1, 2 * n + 1, 2))
        small = wavefunction_component(rs, packed)
        large = wavefunction_component(rs, alternating)
        assert abs(abs(large / small) - asm_count(n)) < mp.mpf(10) ** -20
