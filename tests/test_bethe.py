"""High-precision root extraction, certification and root-based sums."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from mpmath import mp

import betheq.bethe as bethe
from betheq.asmcounts import asm_count
from betheq.bethe import (
    NonConvergenceError,
    component_sum_large,
    component_sum_small,
    energy,
    solve_roots,
    to_w,
    to_z,
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

PREC = 192
TOL = mp.mpf(2) ** (30 - PREC)


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
        poly = qp.poly()
        with mp.workprec(PREC + 32):
            coeffs = [mp.mpf(c.numerator) / c.denominator for c in poly.coeffs]
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


class TestAberthStoppingRule:
    @pytest.mark.parametrize("boundary, n", [(Boundary.PERIODIC, 6), (Boundary.REFLECTING, 5)])
    def test_stops_at_rounding_floor(self, boundary, n):
        # At 192 working bits no relative step can fall below 2^(4 - 256),
        # so only the rounding-floor rule can end the iteration.
        qp = elem_for(boundary, n)
        coeffs = list(qp.poly().coeffs)
        with mp.workprec(192):
            roots, iterations = bethe._aberth(coeffs, 256)
        assert iterations < 64 + 8 * 256 // 16
        rs = solve_roots(qp, 256)
        want = rs.wt_roots or rs.roots
        for r in roots:
            assert min(abs(r - w) for w in want) < mp.mpf(2) ** -170


class TestNonConvergence:
    def test_reconstruction_failure_carries_fields(self, monkeypatch):
        monkeypatch.setattr(bethe, "_reconstruct_error", lambda coeffs, roots: mp.mpf(1))
        with pytest.raises(NonConvergenceError) as info:
            solve_roots(elem_periodic(4), PREC)
        err = info.value
        assert "reconstruction error" in str(err)
        assert err.degree == 4
        assert err.precision == PREC
        assert err.iterations >= 1
        assert err.correction == 1


class TestStallSizes:
    """Sizes at which Aberth used to run into its iteration cap at 256
    bits: each root set must meet the reconstruction bound and Vieta's
    relations for e_1 and e_n."""

    @pytest.mark.parametrize(
        "boundary, n",
        [(Boundary.REFLECTING, 20), (Boundary.REFLECTING, 24), (Boundary.PERIODIC, 36)],
    )
    def test_solve_roots(self, boundary, n):
        qp = elem_for(boundary, n)
        rs = solve_roots(qp, 256)
        values = rs.wt_roots if boundary is Boundary.REFLECTING else rs.roots
        assert len(values) == n
        with mp.workprec(512):
            tol = mp.mpf(2) ** (20 - 256)
            assert bethe._reconstruct_error(list(qp.poly().coeffs), values) <= tol
            for got, want in ((mp.fsum(values), qp.evalues[1]),
                              (mp.fprod(values), qp.evalues[n])):
                want = mp.mpf(want.numerator) / want.denominator
                assert abs(got - want) <= n * tol * max(1, abs(want))

    def test_reflecting_product_n20(self):
        assert verify_reflecting_product(20, 256).equal


class TestResiduals:
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", range(1, 11))
    def test_bethe_equations_hold(self, boundary, n):
        rs = solve_roots(elem_for(boundary, n), 256)
        assert rs.residual < mp.mpf(10) ** -40


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


class TestOrderedSum:
    """The subset dynamic programme against direct enumeration of every
    ordering (and every sign choice)."""

    @pytest.mark.parametrize("signs", [(1,), (1, -1)])
    @pytest.mark.parametrize("n", range(5))
    def test_matches_enumeration(self, n, signs):
        rng = random.Random(100 * n + len(signs))

        def rand():
            return mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))

        nodes = [(x, s) for x in range(n) for s in signs]
        pair = {(u, v): rand() for u in nodes for v in nodes}
        slot = {(k, x, s): rand() for k in range(n) for x, s in nodes}
        with mp.workprec(PREC):
            want = mp.mpc(0)
            for perm in permutations(range(n)):
                for sigma in product(signs, repeat=n):
                    term = mp.mpc(1)
                    for k in range(n):
                        term *= slot[k, perm[k], sigma[k]]
                        for b in range(k + 1, n):
                            term *= pair[(perm[k], sigma[k]), (perm[b], sigma[b])]
                    want += term
            got = bethe._ordered_sum(
                n, lambda u, v: pair[u, v], lambda k, x, s: slot[k, x, s], signs
            )
            assert abs(got - want) < TOL * max(1, abs(want))
        if n == 0:
            assert got == 1


class TestWavefunction:
    def test_position_validation(self):
        rs = solve_roots(elem_periodic(2), PREC)
        with pytest.raises(ValueError):
            wavefunction_component(rs, [1])
        with pytest.raises(ValueError):
            wavefunction_component(rs, [3, 2])
        with pytest.raises(ValueError):
            wavefunction_component(rs, [0, 2])

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
