"""Exact Q-polynomial coefficients, rational forms, recursion, special
values and the binomial summation identities."""

import math
import random
from fractions import Fraction

import pytest

from betheq import qfunctions
from betheq.exact import ExactDivisionError, QINV, falling_binom, gen_binom
from betheq.qfunctions import (
    Boundary,
    QPolynomial,
    check_recursion_periodic,
    elem_for,
    elem_periodic,
    elem_reflecting,
    elem_twisted,
    hyp_failures,
    q_at_qinv,
    verify_hyp_identity,
)
from oracles import (
    Poly,
    Q,
    check_special_values,
    chebyshev_expand,
    evalues_fraction,
    hyp_failures_fraction,
    hyp_sides_fraction,
    q_rational_eval,
    qinv_product_value,
    rational_form_fraction,
)


def interpolate(points):
    """Exact Lagrange interpolation through (x, y) pairs."""
    poly = Poly([])
    for i, (xi, yi) in enumerate(points):
        term = Poly([Fraction(yi)])
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = term * Poly([-xj, Fraction(1)]).scale(Fraction(1, xi - xj))
        poly = poly + term
    return poly


def paper_periodic(n):
    """The paper's closed binomial sums for the periodic e-values."""
    third = Fraction(1, 3)
    c = gen_binom(n - third, n)
    ev = []
    for l in range(n + 1):
        tot = Fraction(0)
        for p in range(l // 3 + 1):
            tot += (
                gen_binom(2 * n - 3 * p + l, 2 * n)
                * gen_binom(n - third, n - p)
                * gen_binom(n + third, p)
                - gen_binom(2 * n - 3 * p + l - 1, 2 * n)
                * gen_binom(n - third, p)
                * gen_binom(n + third, n - p)
            )
        ev.append(tot / c)
    return tuple(ev)


def paper_twisted(n):
    """The paper's closed binomial sums for the twisted e-values."""
    third = Fraction(1, 3)
    c = gen_binom(n - third, n)
    ev = []
    for l in range(n + 1):
        tot = Fraction(0)
        for p in range(l // 3 + 2):
            tot += (
                gen_binom(2 * n - 3 * p + l - 1, 2 * n - 1)
                * gen_binom(n - third, n - p)
                * gen_binom(n - 2 * third, p)
                - gen_binom(2 * n - 3 * p + l + 1, 2 * n - 1)
                * gen_binom(n - third, p - 1)
                * gen_binom(n - 2 * third, n - p)
            )
        ev.append(tot / c)
    return tuple(ev)


class TestBoundary:
    def test_chain_lengths(self):
        assert Boundary.PERIODIC.chain_length(3) == 7
        assert Boundary.TWISTED.chain_length(3) == 6
        assert Boundary.REFLECTING.chain_length(3) == 6

    def test_elem_for_dispatch(self):
        for b in Boundary:
            assert elem_for(b, 2).boundary is b


class TestEValues:
    def test_periodic_n2(self):
        assert elem_periodic(2).evalues == (1, Fraction(11, 5), 1)

    def test_twisted_n1(self):
        assert elem_twisted(1).evalues == (1, Fraction(1, 2))

    def test_reflecting_n1(self):
        # L = 2: the single wt root is 4 (w = 2 + sqrt(3))
        assert elem_reflecting(1).evalues == (1, 4)

    def test_reflecting_n2_and_n3(self):
        assert elem_reflecting(2).evalues == (1, 8, 13)
        assert elem_reflecting(3).evalues == (1, 12, Fraction(1041, 26), Fraction(526, 13))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_periodic_paper_sums(self, n):
        assert elem_periodic(n).evalues == paper_periodic(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_twisted_paper_sums(self, n):
        assert elem_twisted(n).evalues == paper_twisted(n)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_wrong_term_raises(self, boundary, monkeypatch):
        form = qfunctions._rational_form

        def perturbed(b, n):
            terms, base, power, c = form(b, n)
            (a, j), *rest = terms
            return [(a + 1, j), *rest], base, power, c

        monkeypatch.setattr(qfunctions, "_rational_form", perturbed)
        with pytest.raises(ExactDivisionError):
            elem_for(boundary, 3)

    def test_wrong_normaliser_raises(self, monkeypatch):
        form = qfunctions._rational_form

        def doubled(b, n):
            terms, base, power, c = form(b, n)
            return terms, base, power, 2 * c

        monkeypatch.setattr(qfunctions, "_rational_form", doubled)
        with pytest.raises(ExactDivisionError, match="not monic"):
            elem_periodic(3)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_extra_factor_raises(self, boundary, monkeypatch):
        # Q_n(-base) != 0, so one factor of (base + x) too many leaves a
        # remainder at that factor
        form = qfunctions._rational_form
        powers = []

        def one_more(b, n):
            terms, base, power, c = form(b, n)
            powers.append(power)
            return terms, base, power + 1, c

        monkeypatch.setattr(qfunctions, "_rational_form", one_more)
        with pytest.raises(ExactDivisionError, match="remainder") as info:
            elem_for(boundary, 3)
        assert f"at factor {powers[0] + 1} of" in str(info.value)

    def test_periodic_n0_and_n1(self):
        assert elem_periodic(0).evalues == (1,)
        assert elem_periodic(1).evalues == (1, 1)

    def test_periodic_palindromic(self):
        # e_l = e_{n-l}: the periodic root set is closed under w -> 1/w
        # together with e_n = 1
        for n in range(1, 9):
            ev = elem_periodic(n).evalues
            assert ev == tuple(reversed(ev))

    def test_validation(self):
        with pytest.raises(ValueError):
            QPolynomial(Boundary.PERIODIC, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            QPolynomial(Boundary.TWISTED, 1, (2, 1))


def _sizes(boundary, max_n):
    return range(0 if boundary is Boundary.PERIODIC else 1, max_n + 1)


class TestIntRationalForm:
    """_rational_form in ints against the Fraction form it replaced
    (oracles.rational_form_fraction) and the e-values that form gives."""

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_returns_only_reduced_ints(self, boundary):
        for n in _sizes(boundary, 40):
            terms, base, power, c = qfunctions._rational_form(boundary, n)
            values = [base, power, c, *(x for term in terms for x in term)]
            assert all(type(x) is int for x in values), n
            assert c > 0 and math.gcd(c, *(a for a, _ in terms)) == 1, n

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_terms_match_fraction_oracle(self, boundary):
        for n in _sizes(boundary, 40):
            terms, base, power, c = qfunctions._rational_form(boundary, n)
            fterms, fbase, fpower, fc = rational_form_fraction(boundary, n)
            assert (base, power) == (fbase, fpower), n
            assert [(Fraction(a, c), j) for a, j in terms] == [(a / fc, j) for a, j in fterms], n

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_evalues_match_fraction_oracle(self, boundary):
        for n in _sizes(boundary, 60):
            assert elem_for(boundary, n).evalues == evalues_fraction(boundary, n), n


class TestRationalFormAgreement:
    """The e-values and the closed rational forms describe the same
    function.  Both read one coefficient table, so interpolating the
    evaluated form checks the exact division and, for the reflecting
    boundary, the Chebyshev expansion in wt.  TestEValues checks the table
    itself: against the paper's binomial sums for the periodic and twisted
    boundaries, and against pinned values for the reflecting one."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_periodic(self, n):
        qp = elem_periodic(n)
        pts = [Fraction(k) for k in range(2, n + 4)]
        got = interpolate([(w, q_rational_eval(Boundary.PERIODIC, n, w)) for w in pts])
        assert got == Poly(qp.coeffs)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_twisted(self, n):
        qp = elem_twisted(n)
        pts = [Fraction(k) for k in range(2, n + 4)]
        got = interpolate([(w, q_rational_eval(Boundary.TWISTED, n, w)) for w in pts])
        assert got == Poly(qp.coeffs)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reflecting(self, n):
        # the rational form is a function of w; the polynomial lives in
        # wt = w + 1/w, so interpolate against wt sample points
        qp = elem_reflecting(n)
        pts = [Fraction(k) for k in range(2, n + 4)]
        samples = [
            (w + 1 / w, q_rational_eval(Boundary.REFLECTING, n, w)) for w in pts
        ]
        assert interpolate(samples) == Poly(qp.coeffs)

    def test_int_point_stays_exact(self):
        got = q_rational_eval(Boundary.REFLECTING, 2, 2)
        assert isinstance(got, Fraction)
        assert got == q_rational_eval(Boundary.REFLECTING, 2, Fraction(2))

    def test_poles_raise(self):
        with pytest.raises(ZeroDivisionError):
            q_rational_eval(Boundary.PERIODIC, 2, Fraction(-1))
        with pytest.raises(ZeroDivisionError):
            q_rational_eval(Boundary.REFLECTING, 2, Fraction(1))


class TestRecursion:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_three_term_recursion(self, n):
        assert check_recursion_periodic(n)

    @pytest.mark.parametrize("delta", [1, Fraction(1, 7)], ids=["1", "1/7"])
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_perturbed_evalue_fails(self, n, delta, monkeypatch):
        elem = qfunctions.elem_periodic

        def perturbed(m):
            qp = elem(m)
            if m != n + 1:
                return qp
            ev = list(qp.evalues)
            ev[1] += delta
            return QPolynomial(qp.boundary, m, tuple(ev))

        monkeypatch.setattr(qfunctions, "elem_periodic", perturbed)
        assert not check_recursion_periodic(n)


class TestSpecialValues:
    @pytest.mark.parametrize("n", range(21))
    def test_all_special_values(self, n):
        assert check_special_values(n)

    def test_value_at_qinv_is_rational(self):
        for n in range(1, 8):
            s = q_at_qinv(elem_periodic(n))
            assert s.is_rational
            assert s.a == qinv_product_value(n)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_value_at_qinv_matches_horner(self, boundary):
        # reference: Horner's rule for Q_n at 1/q, times q^{2n}
        for n in range(1, 13):
            qp = elem_for(boundary, n)
            assert q_at_qinv(qp) == Q ** (2 * n) * Poly(qp.coeffs)(QINV)

    def test_qinv_product_small(self):
        assert qinv_product_value(1) == Fraction(1)
        assert qinv_product_value(2) == Fraction(4) * Fraction(3, 10)


def product_falling_binom(a, k):
    """Reference: binom(a, k) as the falling-factorial product."""
    if k < 0:
        return Fraction(0)
    a = Fraction(a)
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= Fraction(a - k + j, j)
    return out


def reference_hyp_identity(which, n, s, convention, variant):
    """Reference: both sides of a hypergeometric identity summed term by
    term, every binomial recomputed for each s.  Besides the reading src
    checks (generalized binomials, corrected lower index 2n - 1 in
    identity 2) it takes the two erratum readings: the truncating binomial
    gen_binom, and the printed lower index 2n."""
    B = {"generalized": product_falling_binom, "truncating": gen_binom}[convention]
    third = Fraction(1, 3)
    two_thirds = Fraction(2, 3)
    if which == 1:
        lhs = sum(
            B(3 * p - n + s, 2 * n) * B(n - third, p) * B(n + third, n - p)
            for p in range(n + 1)
        )
        rhs = sum(
            B(3 * p - n + s - 1, 2 * n) * B(n - third, n - p) * B(n + third, p)
            for p in range(n + 1)
        )
        return lhs == rhs
    bot = 2 * n - 1 if variant == "corrected" else 2 * n
    lhs = sum(
        B(3 * p - n + s, bot) * B(n - third, p) * B(n - two_thirds, n - p)
        for p in range(n + 1)
    )
    rhs = sum(
        B(3 * p - n + s + 2, bot) * B(n - third, n - p - 1) * B(n - two_thirds, p)
        for p in range(n + 1)
    )
    return lhs == rhs


def reference_hyp_failures(which, max_n, convention, variant):
    """The (n, s) pairs, 0 <= s <= 3n, n <= max_n, where the reference
    identity fails under the given reading."""
    return [
        (n, s)
        for n in range(max_n + 1)
        for s in range(3 * n + 1)
        if not reference_hyp_identity(which, n, s, convention, variant)
    ]


class TestHypIdentities:
    def test_falling_binom_integer_tops(self):
        for a in range(-30, 31):
            for k in range(-2, 25):
                assert falling_binom(a, k) == product_falling_binom(a, k), (a, k)

    def test_falling_binom_non_integer_tops(self):
        third = Fraction(1, 3)
        for n in range(-5, 31):
            for a in (n + third, n - third, n - 2 * third, 2 * n + 2 * third, 2 * n - 2 * third):
                for k in (-2, -1):
                    assert type(falling_binom(a, k)) is Fraction and falling_binom(a, k) == 0
                # the falling-factorial product, extended by one factor per k
                expect = Fraction(1)
                for k in range(41):
                    expect = expect * (a - k + 1) / k if k else expect
                    got = falling_binom(a, k)
                    assert type(got) is Fraction and got == expect, (a, k)
                assert expect == product_falling_binom(a, 40), a

    # src computes the generalized-binomial, corrected-index reading only;
    # the ids name that reading among the reference's four
    @pytest.mark.parametrize(
        "which", [1, 2], ids=["1-corrected-generalized", "2-corrected-generalized"]
    )
    def test_matches_reference(self, which):
        expect = []
        for n in range(9):
            for s in range(3 * n + 1):
                holds = reference_hyp_identity(which, n, s, "generalized", "corrected")
                assert verify_hyp_identity(which, n, s) == holds, (n, s)
                if not holds:
                    expect.append((n, s))
        assert hyp_failures(which, 8) == expect

    @pytest.mark.parametrize("which", [1, 2])
    def test_sides_proportional_to_fraction_oracle(self, which):
        # one common ratio over both sides, so the int sums agree exactly
        # when the Fraction sums do; a zero weight must stay zero
        for n in range(21):
            bot, lhs, rhs = qfunctions._hyp_sides(which, n)
            fbot, flhs, frhs = hyp_sides_fraction(which, n)
            assert bot == fbot, n
            pairs = list(zip(lhs + rhs, flhs + frhs))
            assert [top for (top, _), _ in pairs] == [top for _, (top, _) in pairs], n
            assert [w == 0 for (_, w), _ in pairs] == [f == 0 for _, (_, f) in pairs], n
            assert len({w / f for (_, w), (_, f) in pairs if f}) == 1, n

    @pytest.mark.parametrize("which", [1, 2])
    def test_matches_fraction_oracle(self, which):
        assert hyp_failures(which, 14) == hyp_failures_fraction(which, 14) == []

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("which", [1, 2])
    def test_raised_weight_matches_fraction_oracle(self, which, side, monkeypatch):
        sides = qfunctions._hyp_sides

        def raised(which, n):
            bot, *pair = sides(which, n)
            if n == 3:
                (top, w), *rest = pair[side - 1]
                pair[side - 1] = [(top, w + 1), *rest]
            return bot, *pair

        monkeypatch.setattr(qfunctions, "_hyp_sides", raised)
        fails = hyp_failures(which, 5)
        assert fails and {n for n, _ in fails} == {3}
        assert fails == hyp_failures_fraction(which, 5, sides=raised)

    def test_identity1_holds_generalized(self):
        assert hyp_failures(1, 10) == []

    def test_identity2_holds_corrected(self):
        assert hyp_failures(2, 10) == []

    def test_identity1_fails_truncating(self):
        # under the truncating binomial convention the identity breaks for
        # small shifts; the failures are exactly s <= n
        fails = reference_hyp_failures(1, 5, "truncating", "corrected")
        assert fails
        assert all(s <= n for n, s in fails)

    def test_identity2_printed_fails_everywhere(self):
        fails = reference_hyp_failures(2, 3, "generalized", "printed")
        assert (0, 0) in fails
        expected = {(n, s) for n in range(4) for s in range(3 * n + 1)}
        assert set(fails) == expected

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_hyp_identity(3, 1, 0)


class TestChebyshev:
    @pytest.mark.parametrize("n", range(8))
    def test_ratio_identity(self, n):
        # at wt = w + 1/w the polynomial equals (w^{n+1} - w^{-n-1})/(w - 1/w)
        p = chebyshev_expand(n)
        for w in (Fraction(2), Fraction(5, 3), Fraction(-7, 2)):
            wt = w + 1 / w
            expect = (w ** (n + 1) - w ** -(n + 1)) / (w - 1 / w)
            assert p(wt) == expect

    def test_clenshaw_sum_of_unit_weights(self):
        for m in range(41):
            assert Poly(qfunctions._chebyshev_sum([0] * m + [1])) == chebyshev_expand(m), m

    def test_clenshaw_sum_of_random_weights(self):
        rng = random.Random(20)
        weights = [rng.randint(-10**30, 10**30) for _ in range(91)]
        expect = Poly([])
        for m, w in enumerate(weights):
            expect = expect + chebyshev_expand(m).scale(w)
        got = qfunctions._chebyshev_sum(weights)
        assert all(type(c) is int for c in got) and Poly(got) == expect

    def test_q_powers(self):
        # q + 1/q = 1, so the expansion links to Q(q) evaluations
        p = chebyshev_expand(4)
        val = (Q**5 - QINV**5) / (Q - QINV)
        assert p(Q + QINV) == val
