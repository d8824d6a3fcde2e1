"""High-precision root extraction, certification and root-based sums."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb

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
    QPolynomial,
    elem_for,
    elem_periodic,
    elem_reflecting,
    elem_twisted,
)
from oracles import (
    aberth_mpmath,
    bethe_residual_mpmath,
    energy_mpmath,
    perm_sum_mpmath,
    reconstruct_error_mpmath,
    reflecting_double_product_mpmath,
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


class TestSolveRoots:
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_roots_satisfy_polynomial(self, boundary, n):
        qp = elem_for(boundary, n)
        rs = solve_roots(qp, PREC)
        with mp.workprec(PREC + 32):
            coeffs = [mp.mpf(c.numerator) / c.denominator for c in qp.coeffs]
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


def _mpc(root, scale):
    """An (re, im) int pair at the given scale as an mpc."""
    return mp.mpc(mp.mpf((root[0], -scale)), mp.mpf((root[1], -scale)))


class TestAberthStoppingRule:
    @pytest.mark.parametrize("boundary, n", [(Boundary.PERIODIC, 6), (Boundary.REFLECTING, 5)])
    def test_stops_at_rounding_floor(self, boundary, n):
        # At scale 192 a step of one ulp is still above 2^(4 - 256) relative
        # for these roots, so only the rounding-floor rule or a step that
        # rounds to zero can end the iteration.
        qp = elem_for(boundary, n)
        coeffs = qp.coeffs
        roots, iterations = bethe._aberth(coeffs, bethe._circle(coeffs, 192), 256, 192)
        assert iterations < 64 + 8 * 256 // 16
        rs = solve_roots(qp, 256)
        want = rs.wt_roots or rs.roots
        with mp.workprec(256):
            for r in roots:
                assert min(abs(_mpc(r, 192) - w) for w in want) < mp.mpf(2) ** -170

    def test_zero_step_denominator_nudges_the_root(self):
        # w^3 + 1 from (0, 1, -1): p'(0) = 0 and the Aberth sum at 0 is 0,
        # so the step p / (p' - p S) at the first root has no denominator
        coeffs = [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
        one = 1 << 53
        roots, _ = bethe._aberth(coeffs, [(0, 0), (one, 0), (-one, 0)], 53, 53)
        with mp.workprec(53):
            for r in roots:
                assert abs(_mpc(r, 53) ** 3 + 1) < mp.mpf(2) ** -45

    def test_float_seed_shortens_the_multiprecision_pass(self):
        # from the last rung of the ladder the full pass only polishes: one
        # step, and one to see that the roots stopped (a single scale-53
        # seed left 11 and 6)
        assert solve_roots(elem_reflecting(24), 256).iterations <= 3
        assert solve_roots(elem_periodic(6), 4096).iterations <= 3


class TestMpmathOracle:
    """The fixed-point kernel behind solve_roots against the mpmath Aberth
    iteration at 512 bits, started from the roots of the ladder's first
    rung, the scale-53 pass from the circle."""

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", [4, 10, 20])
    def test_roots_match(self, boundary, n):
        qp = elem_for(boundary, n)
        rs = groundstate_roots(boundary, n, 256)
        got = list(rs.wt_roots or rs.roots)
        coeffs = qp.coeffs
        with mp.workprec(512):
            cs = [mp.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
            rung, _ = bethe._aberth(coeffs, bethe._circle(coeffs, 53), 53, 53)
            start = [_mpc(r, 53) for r in rung]
            want, _ = aberth_mpmath(cs, start, 256)
            for w in want:
                near = min(got, key=lambda g: abs(g - w))
                assert abs(near - w) <= mp.mpf(2) ** (20 - 256) * abs(w)
                got.remove(near)


def solve_recording_passes(monkeypatch, qp, precision=256, fail=None):
    """solve_roots(qp, precision), recording every circle built as
    (scale, points) and every _aberth pass as (start, prec, scale, roots).
    fail = (i, result) makes pass i return the roots `result` instead, or
    raise `result` when it is an exception (recorded with roots None)."""
    circles, passes = [], []
    circle, aberth = bethe._circle, bethe._aberth

    def spy_circle(coeffs, scale):
        circles.append((scale, circle(coeffs, scale)))
        return circles[-1][1]

    def spy_aberth(coeffs, roots, prec, scale):
        start = list(roots)
        roots, iterations = aberth(coeffs, roots, prec, scale)
        if fail and fail[0] == len(passes):
            if isinstance(fail[1], Exception):
                passes.append((start, prec, scale, None))
                raise fail[1]
            roots = fail[1]
        passes.append((start, prec, scale, roots))
        return roots, iterations

    monkeypatch.setattr(bethe, "_circle", spy_circle)
    monkeypatch.setattr(bethe, "_aberth", spy_aberth)
    return solve_roots(qp, precision), circles, passes


class TestFloatSeed:
    """The precision ladder only seeds the full pass: its first rung walks
    in from the circle at scale 53, each later rung starts from the last
    one's roots at twice the precision, and when a rung fails the full
    pass starts from the circle and still converges."""

    @staticmethod
    def assert_ladder(circles, passes, precision):
        """One circle, at scale 53, starts the first rung; each later pass
        starts from the last one's roots, shifted to its scale; rungs double
        the precision at scale precision + extra; the full pass runs at
        precision + GUARD_BITS + extra, which the next rung would reach."""
        (start, prec, scale, _), *rungs, full = passes
        assert circles == [(53, start)] and (prec, scale) == (53, 53)
        extra = rungs[0][2] - 106
        for before, after in zip(passes, passes[1:]):
            shift = after[2] - before[2]
            assert shift > 0 and after[0] == [(xr << shift, xi << shift) for xr, xi in before[3]]
        for before, rung in zip(passes, rungs):
            assert rung[1] == 2 * before[1] and rung[2] == rung[1] + extra
        assert full[1:3] == (precision, precision + bethe.GUARD_BITS + extra)
        assert passes[-2][2] < full[2] <= 2 * passes[-2][1] + extra

    @pytest.mark.parametrize("boundary, n, precision", [
        (Boundary.PERIODIC, 20, 256), (Boundary.REFLECTING, 24, 256),
        (Boundary.TWISTED, 9, 64), (Boundary.PERIODIC, 6, 4096),
    ])
    def test_rungs_double_the_precision(self, monkeypatch, boundary, n, precision):
        rs, circles, passes = solve_recording_passes(monkeypatch, elem_for(boundary, n), precision)
        self.assert_ladder(circles, passes, precision)
        assert rs.reconstruction_error <= mp.mpf(2) ** (20 - precision)

    def test_coefficients_overflowing_a_double(self, monkeypatch):
        # (w - a)(w + a)(w - 3a) with a = 10^134: e_3 = -3a^3 ~ -10^402,
        # beyond the double range but not beyond the ints of the ladder
        a = 10**134
        qp = QPolynomial(Boundary.TWISTED, 3, tuple(map(Fraction, (1, 3 * a, -a * a, -3 * a**3))))
        rs, circles, passes = solve_recording_passes(monkeypatch, qp)
        self.assert_ladder(circles, passes, 256)
        assert rs.reconstruction_error <= mp.mpf(2) ** (20 - 256)
        with mp.workprec(256):
            assert sorted(mp.re(w) / a for w in rs.roots) == pytest.approx([-1, 1, 3], abs=1e-60)

    @staticmethod
    def assert_full_pass_from_the_circle(rs, circles, passes):
        """The full pass starts from a second circle, at its own scale."""
        assert len(circles) == 2 and circles[1] == (passes[-1][2], passes[-1][0])
        assert rs.reconstruction_error <= mp.mpf(2) ** (20 - 256)
        assert rs.residual < mp.mpf(10) ** -40

    @pytest.mark.parametrize("boundary, n", [(Boundary.PERIODIC, 8), (Boundary.REFLECTING, 6)])
    def test_coincident_float_roots(self, monkeypatch, boundary, n):
        coincident = [(1 << 53, 1 << 53)] * (n - 1) + [(0, 2 << 53)]
        rs, circles, passes = solve_recording_passes(monkeypatch, elem_for(boundary, n),
                                                     fail=(0, coincident))
        assert len(passes) == 2
        self.assert_full_pass_from_the_circle(rs, circles, passes)

    @pytest.mark.parametrize("rung, failure", [
        (0, ZeroDivisionError()), (1, ZeroDivisionError()), (2, ZeroDivisionError()),
        (1, [(1, 1)] * 8), (2, [(1, 1)] * 8),
    ], ids=["0-raises", "1-raises", "2-raises", "1-coincident", "2-coincident"])
    def test_failing_rung(self, monkeypatch, rung, failure):
        # periodic n = 8 at 256 bits climbs rungs 0, 1 and 2 (53, 106, 212 bits)
        rs, circles, passes = solve_recording_passes(monkeypatch, elem_periodic(8),
                                                     fail=(rung, failure))
        assert len(passes) == rung + 2
        self.assert_full_pass_from_the_circle(rs, circles, passes)


class TestNonConvergence:
    def test_reconstruction_failure_carries_fields(self, monkeypatch):
        monkeypatch.setattr(bethe, "_reconstruct_error", lambda coeffs, roots, scale: mp.mpf(1))
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(elem_periodic(4), PREC)
        err = info.value
        assert "reconstruction error" in str(err)
        assert err.degree == 4
        assert err.precision == PREC
        assert err.iterations >= 1
        assert err.correction == 1

    def test_iteration_cap_carries_fields(self):
        # (w - 1)^8: Aberth converges only linearly on an eightfold root,
        # so 90 iterations do not bring the relative step below 2^(4 - 53)
        coeffs = [Fraction(comb(8, k) * (-1) ** (8 - k)) for k in range(9)]
        with pytest.raises(NonConvergenceError) as info:
            bethe._aberth(coeffs, bethe._circle(coeffs, 1000), 53, 1000)
        err = info.value
        assert "stalled at correction" in str(err)
        assert (err.degree, err.precision, err.iterations) == (8, 53, 64 + 8 * 53 // 16)
        assert err.correction > mp.mpf(2) ** (4 - 53)

    def test_message_is_short_and_keeps_the_exponent(self, monkeypatch):
        # a message cut at 160 characters must still read as 1.04e-40
        tiny = "1.0379423292751122942761111189117939552395705548131500380e-40"
        monkeypatch.setattr(bethe, "_reconstruct_error",
                            lambda coeffs, roots, scale: mp.mpf(tiny))
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(elem_periodic(4), PREC)
        message = str(info.value)
        assert len(message) < 160
        assert "1.0379423e-40" in message
        assert "e-52" in message  # the tolerance 2^(20 - 192)


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
            assert reconstruct_error_mpmath(qp.coeffs, values) <= tol
            for got, want in ((mp.fsum(values), qp.evalues[1]),
                              (mp.fprod(values), qp.evalues[n])):
                want = mp.mpf(want.numerator) / want.denominator
                assert abs(got - want) <= n * tol * max(1, abs(want))

    def test_reflecting_product_n20(self):
        assert verify_reflecting_product(20, 256).equal


class TestLargeCoefficients:
    """Cubics with coefficients up to 10^2700, at 256 bits.  The mpmath
    kernel stalled at its cap on every three-real case and failed
    reconstruction on the huge constant term at k = 400, 500 and on the
    huge linear coefficient at k = 330, 400; a single scale-53 seed failed
    reconstruction on the huge constant term from k = 600."""

    @pytest.mark.parametrize("k", [300, 330, 400, 500])
    def test_three_real_roots_of_one_sign(self, k):
        # (w - a)(w - 2a)(w - 4a) with a = 10^k
        a = 10**k
        qp = QPolynomial(Boundary.TWISTED, 3, tuple(map(Fraction, (1, 7 * a, 14 * a * a, 8 * a**3))))
        rs = solve_roots(qp, 256)
        assert rs.reconstruction_error <= mp.mpf(2) ** (20 - 256)
        with mp.workprec(256):
            assert sorted(mp.re(w) / a for w in rs.roots) == pytest.approx([1, 2, 4], abs=1e-60)

    @pytest.mark.parametrize("k", [300, 330, 400, 500, 600, 700, 900])
    def test_huge_constant_term(self, k):
        # w^3 - 2w^2 + 3w - 10^k
        qp = QPolynomial(Boundary.TWISTED, 3, tuple(map(Fraction, (1, 2, 3, 10**k))))
        assert solve_roots(qp, 256).reconstruction_error <= mp.mpf(2) ** (20 - 256)

    @pytest.mark.parametrize("k", [300, 330, 400, 500])
    def test_huge_linear_coefficient(self, k):
        # w^3 - 3w^2 + 10^k w - 7: one root near 7 10^-k, two of size 10^(k/2)
        qp = QPolynomial(Boundary.TWISTED, 3, tuple(map(Fraction, (1, 3, 10**k, 7))))
        assert solve_roots(qp, 256).reconstruction_error <= mp.mpf(2) ** (20 - 256)

    def test_huge_linear_coefficient_stalls_loudly(self):
        # From k = 700 the scale-53 rung leaves two roots on the circle, the
        # next rung stalls, and the full pass, sent back to the circle,
        # stalls at its cap: a known limit, which must stay a structured
        # error and never a silent pass.
        qp = QPolynomial(Boundary.TWISTED, 3, tuple(map(Fraction, (1, 3, 10**700, 7))))
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(qp, 256)
        err = info.value
        assert "stalled at correction" in str(err)
        assert (err.degree, err.precision, err.iterations) == (3, 256, 64 + 8 * 256 // 16)
        assert err.correction > mp.mpf(2) ** (4 - 256)


class TestReconstructionOracle:
    """The integer reconstruction gate against the mpmath one
    (oracles.reconstruct_error_mpmath) at the same working precision, on
    the int roots solve_roots hands the gate and on those roots with their
    last 96 bits cleared, whose error stands far above the rounding of
    either gate.  Each gate rounds within about n (n + 1) prod (1 + |x_i|)
    ulp (see _reconstruct_error)."""

    CUBICS = {
        "three-real-300": (1, 7 * 10**300, 14 * 10**600, 8 * 10**900),
        "constant-600": (1, 2, 3, 10**600),
        "linear-500": (1, 3, 10**500, 7),
    }

    @pytest.mark.parametrize("qp", [
        *(elem_for(b, n) for b in Boundary for n in (4, 10, 20, 45)),
        *(QPolynomial(Boundary.TWISTED, 3, tuple(map(Fraction, c))) for c in CUBICS.values()),
    ], ids=[*(f"{b.value}-{n}" for b in Boundary for n in (4, 10, 20, 45)), *CUBICS])
    def test_agrees_on_the_same_roots(self, monkeypatch, qp):
        calls, gate = [], bethe._reconstruct_error
        monkeypatch.setattr(bethe, "_reconstruct_error",
                            lambda *args: calls.append(args) or gate(*args))
        solve_roots(qp, 256)
        (coeffs, roots, scale), = calls
        for cut in (0, 96):
            cut_roots = [(xr >> cut << cut, xi >> cut << cut) for xr, xi in roots]
            with mp.workprec(scale):
                ws = [_mpc(r, scale) for r in cut_roots]
                bound = 2 * qp.n * (qp.n + 1) * mp.fprod(1 + abs(w) for w in ws)
                bound *= mp.mpf(2) ** -scale
                got, want = gate(coeffs, cut_roots, scale), reconstruct_error_mpmath(coeffs, ws)
                assert abs(got - want) <= bound


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
        # w^3 - 3w^2 + 10^300 w - 7: a root near 7 10^-300 that a scale
        # without its extra bits would round to 0, and two of size 10^150
        qp = QPolynomial(Boundary.TWISTED, 3, tuple(map(Fraction, (1, 3, 10**300, 7))))
        rs = solve_roots(qp, 256)
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
        assert isinstance(got, mp.mpc)
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

    def test_reflecting_product_to_the_rounding_of_the_roots(self):
        # 3^(2n(n-1)) prod (w_i - q^2 w_j) / C^(4(n-1)) at n = 10 lands at
        # 2^-314.8 relative from A_V(21)^2 N_8(20)^4
        rs = groundstate_roots(Boundary.REFLECTING, 10, 256)
        with mp.workprec(512):
            want = mp.mpf(asm_v(21)) ** 2 * mp.mpf(n8(20)) ** 4
            assert abs(reflecting_double_product(rs) - want) <= mp.mpf(2) ** -312 * want

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
        assert isinstance(energy(rs), mp.mpc)

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
        rs = solve_roots(elem_periodic(12), 256)
        a = asm_count(12)
        with mp.workprec(512):
            assert abs(component_sum_small(rs) - a) <= mp.mpf(2) ** -314 * a


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
