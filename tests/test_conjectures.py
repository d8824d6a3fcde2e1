"""The product identities: periodic/twisted exact, reflecting numeric."""

import json
from fractions import Fraction

import pytest
from mpmath import mp

from betheq import bethe, cli, conjectures
from betheq.asmcounts import asm_count, asm_ht, asm_v, n8
from betheq.conjectures import (
    VerificationReport,
    groundstate_schur_det,
    verify_component_sums,
    verify_periodic_product,
    verify_reflecting_product,
    verify_twisted_product,
)
from betheq.exact import QINV, Cyclo
from betheq.qfunctions import Boundary, elem_for, elem_periodic
from oracles import embed, to_z


def periodic_prefactor(n):
    """The periodic prefactor as transcribed from the paper:
    3^{n(n-1)/2} prod_j [(1/4) ((3j-1)/(2j-1))^2]^{n-1}."""
    per_factor = Fraction(1)
    for j in range(1, n + 1):
        per_factor *= Fraction(1, 4) * Fraction(3 * j - 1, 2 * j - 1) ** 2
    return Cyclo(Fraction(3) ** (n * (n - 1) // 2) * per_factor ** (n - 1))


def twisted_prefactor(n):
    """The twisted prefactor as transcribed from the paper:
    4^{n-1} 3^{(n-1)(n-2)/2} prod_j ((3j-1)/(n+j))^{2(n-1)} q^{-(n-1)}."""
    rational = Fraction(4) ** (n - 1) * Fraction(3) ** ((n - 1) * (n - 2) // 2)
    for j in range(1, n + 1):
        rational *= Fraction(3 * j - 1, n + j) ** (2 * (n - 1))
    return Cyclo(rational) * QINV ** (n - 1)


class TestDoubleProductKernel:
    @pytest.mark.parametrize("boundary, reference", [
        (Boundary.PERIODIC, periodic_prefactor),
        (Boundary.TWISTED, twisted_prefactor),
    ])
    def test_prefactor_matches_transcribed_form(self, monkeypatch, boundary, reference):
        # with the Schur factor set to 1, M = D^{2(n-1)}, the kernel returns its prefactor
        monkeypatch.setattr(conjectures, "_scaled_schur_dd",
                            lambda ints: ints[-1] ** (2 * (len(ints) - 2)))
        for n in range(1, 31):
            assert conjectures._double_product(elem_for(boundary, n)) == reference(n), n

    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.TWISTED])
    @pytest.mark.parametrize("n", range(2, 5))
    def test_matches_product_over_roots(self, boundary, n):
        qp = elem_for(boundary, n)
        rs = bethe.solve_roots(qp, 128)
        with mp.workprec(128):
            z = [to_z(w, 128) for w in rs.roots]
            direct = mp.fprod(1 + z[i] + z[i] * z[j]
                              for i in range(n) for j in range(n) if i != j)
            exact = embed(conjectures._double_product(qp), 128)
            assert abs(direct - exact) < mp.mpf(2) ** -100 * abs(exact)

    def test_periodic_value_with_q_part_is_unequal(self, monkeypatch, capsys):
        monkeypatch.setattr(conjectures, "_double_product", lambda qp: Cyclo(343, 1))
        rep = verify_periodic_product(3)
        assert rep.equal is False
        assert cli._report(rep)["lhs"] == {"a": "343", "b": "1"}
        assert cli.run(["verify", "conj", "--n", "3"]) == cli.EXIT_FAIL
        assert json.loads(capsys.readouterr().out)["equal"] is False


def cube_root_of_unity(p):
    """A primitive cube root of unity mod a prime p = 1 (mod 6)."""
    return next(w for w in (pow(g, (p - 1) // 3, p) for g in range(2, p)) if w != 1)


class TestModularSchur:
    """The resultant kernel against the Naegelsbach-Kostka determinant."""

    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.TWISTED])
    def test_equals_schur_det(self, boundary):
        for n in range(1, 31):
            qp = elem_for(boundary, n)
            scale = qp.ints[n] ** (2 * (n - 1))
            assert Fraction(conjectures._scaled_schur_dd(qp.ints), scale) \
                == groundstate_schur_det(qp), n

    @pytest.mark.parametrize("boundary, n, bad", [
        # the prime divides the coefficient of w^(n-1), so P - Pt drops degree
        (Boundary.PERIODIC, 8, 4177),
        (Boundary.TWISTED, 6, 109),
        # the degree-1 remainder of the sequence is a constant mod the prime
        (Boundary.PERIODIC, 5, 109),
        (Boundary.TWISTED, 5, 13),
    ])
    def test_prime_with_vanishing_leading_coefficient_is_dropped(self, boundary, n, bad):
        qp = elem_for(boundary, n)
        bound = sum(c * c for c in qp.ints) ** (n - 1)
        primes = [(bad, cube_root_of_unity(bad))] + conjectures._primes(
            (2 * bound).bit_length() // 30 + 1)
        residues, kept = conjectures._schur_dd_residues(qp.ints, primes)
        assert bad not in kept and len(kept) == len(primes) - 1
        scale = qp.ints[n] ** (2 * (n - 1))
        assert Fraction(conjectures._crt(residues, kept, bound), scale) == groundstate_schur_det(qp)

    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.TWISTED])
    def test_one_prime_short_of_the_bound_raises(self, boundary):
        qp = elem_for(boundary, 12)
        bound = sum(c * c for c in qp.ints) ** 11
        primes, modulus = [], 1
        for p, omega in conjectures._primes(1000):
            primes.append((p, omega))
            modulus *= p
            if modulus > 2 * bound:
                break
        residues, kept = conjectures._schur_dd_residues(qp.ints, primes)
        assert len(kept) == len(primes)
        assert conjectures._crt(residues, kept, bound) == conjectures._scaled_schur_dd(qp.ints)
        with pytest.raises(conjectures.ModulusError) as info:
            conjectures._crt(residues[:-1], kept[:-1], bound)
        err = info.value
        assert isinstance(err, ArithmeticError)
        assert err.primes == len(primes) - 1
        assert err.modulus_bits <= err.bound_bits + 1 == bound.bit_length() + 1

    @pytest.mark.parametrize("which, n, value", [
        ("conj", 59, lambda n: Cyclo(asm_count(n) ** 3)),
        ("conj1", 61, lambda n: Cyclo(asm_count(n) * asm_ht(2 * n - 1)) * QINV ** (n - 1)),
    ])
    def test_at_the_determinant_reach(self, capsys, which, n, value):
        # the Bareiss determinant took 5-10 s a call here (its 10 s reach
        # was n = 58-63, by host); the resultant takes about 0.1 s
        assert cli.run(["verify", which, "--n", str(n)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["equal"] is True and report["precision_bits"] is None
        want = value(n)
        assert report["lhs"] == report["rhs"] == (
            str(want.a) if which == "conj" else {"a": str(want.a), "b": str(want.b)})


class TestRegistry:
    @pytest.mark.parametrize("name, verifier", [
        ("conj", "verify_periodic_product"),
        ("conj1", "verify_twisted_product"),
        ("conj2", "verify_reflecting_product"),
        ("sums", "verify_component_sums"),
    ])
    def test_entries_call_through_module_globals(self, monkeypatch, name, verifier):
        # a tracer or a test that replaces the module global must see the call
        monkeypatch.setattr(conjectures, verifier, lambda *args: args)
        assert conjectures.VERIFIERS[name](3, 64)[0] == 3


class TestPeriodicProduct:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_asm_cubed(self, n):
        rep = verify_periodic_product(n)
        assert rep.equal
        assert rep.lhs == Fraction(asm_count(n)) ** 3
        assert rep.tolerance is None

    def test_known_values(self):
        assert verify_periodic_product(3).lhs == 343
        assert verify_periodic_product(4).lhs == 74088

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify_periodic_product(0)


class TestTwistedProduct:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_qpow_asm_ht(self, n):
        rep = verify_twisted_product(n)
        assert rep.equal
        assert rep.lhs == Cyclo(asm_count(n) * asm_ht(2 * n - 1)) * QINV ** (n - 1)

    def test_known_values(self):
        # n = 2: 6/q; n = 3: 175/q^2
        assert verify_twisted_product(2).lhs == Cyclo(6) * QINV
        assert verify_twisted_product(3).lhs == Cyclo(175) * QINV**2


class TestReflectingProduct:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_matches_symmetry_class_product(self, n):
        rep = verify_reflecting_product(n, 256)
        assert rep.equal
        assert rep.rhs == asm_v(2 * n + 1) ** 2 * n8(2 * n) ** 4

    def test_known_targets(self):
        assert verify_reflecting_product(2, 256).rhs == 144
        assert verify_reflecting_product(3, 256).rhs == 9897316


class TestComponentSums:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_sums_match_asm_counts(self, n):
        rep = verify_component_sums(n, 256)
        assert rep.equal
        assert rep.rhs == (asm_count(n), asm_count(n) ** 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify_component_sums(0)


class TestNumericVerdict:
    @pytest.mark.parametrize("verify", [verify_reflecting_product, verify_component_sums])
    def test_ignores_the_callers_precision(self, verify):
        # the roots, the values and the verdict each set their own precision
        with mp.workprec(20):
            low = verify(3)
        with mp.workprec(1000):
            high = verify(3)
        assert low == high == verify(3, bethe.DEFAULT_PRECISION)


class TestSchurDet:
    def test_degenerate_sizes(self):
        assert groundstate_schur_det(elem_periodic(1)) == 1

    def test_n2_value(self):
        # size-2 determinant over e-values (1, 11/5, 1)
        e = elem_periodic(2).evalues
        expect = e[1] * e[1] - e[0] * e[2]
        assert groundstate_schur_det(elem_periodic(2)) == expect


class TestReportSerialization:
    def test_exact_report_json(self):
        rep = verify_periodic_product(3)
        d = cli._report(rep)
        json.dumps(d)  # must be serializable
        assert d["lhs"] == "343"
        assert d["equal"] is True
        assert d["precision_bits"] is None
        assert d["tolerance"] is None

    def test_numeric_report_json(self):
        rep = verify_reflecting_product(1, 128)
        d = cli._report(rep)
        json.dumps(d)
        assert d["precision_bits"] == 128
        assert d["tolerance"] is not None

    def test_cyclo_report_json(self):
        d = cli._report(verify_twisted_product(2))
        json.dumps(d)
        assert d["lhs"] == {"a": "6", "b": "-6"}

    def test_imaginary_rounding_noise_is_dropped(self):
        tol = mp.mpf(2) ** (40 - 256)

        def lhs_json(lhs):
            return cli._report(VerificationReport(
                conjecture="conj2", n=1, lhs=lhs, rhs=mp.mpf(144), equal=True,
                precision_bits=256, tolerance=tol,
            ))["lhs"]

        a = lhs_json(mp.mpc(144, mp.mpf("9.36e-97")))
        b = lhs_json(mp.mpc(144, mp.mpf("-3.5e-92")))
        assert a == b == "144.0"
        assert lhs_json(mp.mpc(144, 1)) != a
