"""Cyclotomic arithmetic over Q(q), q = exp(i pi/3), and exact polynomials."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from betheq.exact import (
    Cyclo,
    ExactDivisionError,
    QINV,
    falling_binom,
    gen_binom,
    int_binom,
    rat_to_str,
)
from oracles import Poly, Q, embed, poly_div_exact


class TestBinomials:
    def test_integer_values(self):
        assert gen_binom(5, 2) == 10
        assert gen_binom(6, 0) == 1
        assert gen_binom(4, 4) == 1

    def test_negative_bottom_is_zero(self):
        assert gen_binom(5, -1) == 0
        assert gen_binom(Fraction(1, 3), -2) == 0

    def test_integer_top_below_bottom_is_zero(self):
        assert gen_binom(2, 5) == 0
        assert gen_binom(-1, 2) == 0
        assert gen_binom(0, 1) == 0

    def test_rational_top_falling_factorial(self):
        assert gen_binom(Fraction(1, 3), 2) == Fraction(1, 3) * Fraction(-2, 3) / 2
        assert gen_binom(Fraction(-1, 3), 1) == Fraction(-1, 3)

    def test_falling_binom_negative_integer_top(self):
        # the generalized convention keeps negative integer tops nonzero
        assert falling_binom(-1, 2) == 1
        assert falling_binom(-2, 3) == -4
        assert falling_binom(5, 2) == 10

    def test_int_binom_is_the_falling_factorial_product(self):
        for a in range(-30, 31):
            for k in range(-3, 25):
                expect = math.prod(a - i for i in range(k)) // math.factorial(k) if k >= 0 else 0
                got = int_binom(a, k)
                assert type(got) is int and got == expect, (a, k)
        assert int_binom(-1, 2) == 1 and int_binom(-2, 3) == -4 and int_binom(-4, -1) == 0

    def test_conventions_agree_off_the_cut(self):
        for a in (Fraction(1, 3), Fraction(7, 2), 9):
            for k in range(5):
                assert falling_binom(a, k) == gen_binom(a, k)


class TestRatStrings:
    def test_round_trip(self):
        for x in (Fraction(3), Fraction(-11, 5), Fraction(0)):
            assert Fraction(rat_to_str(x)) == x

    def test_integer_form(self):
        assert rat_to_str(Fraction(7)) == "7"
        assert rat_to_str(Fraction(11, 5)) == "11/5"


class TestCyclo:
    def test_defining_relation(self):
        # q^2 = q - 1, so q^2 - q + 1 = 0
        assert Q * Q - Q + Cyclo(1) == Cyclo(0)

    def test_sixth_root(self):
        assert Q**6 == Cyclo(1)
        assert Q**3 == Cyclo(-1)

    def test_inverse(self):
        assert Q * QINV == Cyclo(1)
        assert Q.inverse() == QINV
        x = Cyclo(Fraction(3, 7), Fraction(-2, 5))
        assert x * x.inverse() == Cyclo(1)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            Cyclo(0).inverse()

    def test_pow_negative(self):
        assert Q**-1 == QINV
        assert Q**-2 == QINV * QINV

    def test_embed_matches_exp(self):
        with mp.workprec(64):
            z = embed(Q, 64)
            ref = mp.expjpi(mp.mpf(1) / 3)
            assert abs(z - ref) < mp.mpf(2) ** -60

    def test_json(self):
        x = Cyclo(Fraction(1, 2), -3)
        assert x.to_json() == {"a": "1/2", "b": "-3"}


class TestPoly:
    def test_arithmetic(self):
        p = Poly([1, 2, 1])  # (1 + w)^2
        q = Poly([1, 1])
        assert q * q == p
        assert p - q * q == Poly([])
        assert (p + q).coeffs == (2, 3, 1)

    def test_degree_and_trim(self):
        assert Poly([0, 0]).degree == -1
        assert Poly([1, 0, 0]).degree == 0

    def test_call_horner(self):
        p = Poly([Fraction(1), Fraction(-2), Fraction(1)])
        assert p(Fraction(3)) == 4

    def test_exact_division(self):
        p = Poly([Fraction(-1), Fraction(0), Fraction(0), Fraction(1)])  # w^3 - 1
        d = Poly([Fraction(-1), Fraction(1)])  # w - 1
        assert poly_div_exact(p, d) == Poly([Fraction(1)] * 3)

    def test_monic_division_keeps_ints(self):
        quot = poly_div_exact(Poly([1, 2, 1]), Poly([1, 1]))
        assert quot == Poly([1, 1])
        assert all(type(c) is int for c in quot.coeffs)

    @pytest.mark.parametrize("den", [Poly([2, 2]), Poly([1, Fraction(1, 2)]), Poly([])])
    def test_non_monic_divisor_raises(self, den):
        with pytest.raises(ValueError, match="not monic"):
            poly_div_exact(Poly([1, 2, 1]), den)

    def test_inexact_division_raises(self):
        p = Poly([Fraction(1), Fraction(0), Fraction(1)])
        d = Poly([Fraction(-1), Fraction(1)])
        with pytest.raises(ExactDivisionError):
            poly_div_exact(p, d)

    def test_cyclo_coefficients(self):
        p = Poly([Cyclo(-1), Cyclo(0, 1)])  # q w - 1
        assert p(QINV) == Cyclo(0)
