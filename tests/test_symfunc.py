"""Cross-identities between the symmetric function families."""

import random
from fractions import Fraction

import pytest

from betheq.symfunc import Partition, SymTable, schur_nk
from oracles import (
    complete_from_elem,
    complete_table,
    elem_brute,
    elem_from_complete,
    monomial_sym,
    schur_jt,
    schur_tableaux,
    schur_vandermonde,
)


def all_partitions(max_weight, max_parts):
    out = [()]

    def rec(prefix, remaining, cap):
        for p in range(min(cap, remaining), 0, -1):
            new = prefix + [p]
            if len(new) <= max_parts:
                out.append(tuple(new))
                rec(new, remaining - p, p)

    for w in range(1, max_weight + 1):
        rec([], w, w)
    # distinct shapes only
    return [Partition(t) for t in sorted(set(out), key=lambda t: (sum(t), t))]


PARTITIONS = all_partitions(8, 5)


def random_vars(rng, n):
    vals = set()
    while len(vals) < n:
        vals.add(Fraction(rng.randint(1, 60), rng.randint(1, 9)))
    return list(vals)


class TestPartition:
    def test_normalization(self):
        assert Partition([3, 2, 0, 0]).parts == (3, 2)
        assert Partition([]).parts == ()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_conjugate_involution(self):
        for p in PARTITIONS:
            assert p.conjugate().conjugate().parts == p.parts

    def test_conjugate_example(self):
        assert Partition([4, 2, 1]).conjugate().parts == (3, 2, 1, 1)


class TestDuality:
    def test_e_h_duality_roundtrip(self):
        rng = random.Random(42)
        for trial in range(10):
            n = rng.randint(3, 6)
            ws = random_vars(rng, n)
            e = elem_brute(ws)
            h = complete_table(e, n + 4)
            for k in range(n + 1):
                assert elem_from_complete(h, k) == e.val(k)

    def test_h_values_are_monomial_sums(self):
        # h_k = sum over all degree-k monomials
        ws = [Fraction(1, 2), Fraction(3), Fraction(5, 7)]
        e = elem_brute(ws)
        for k in range(4):
            expect = sum(
                monomial_sym(p, ws) for p in PARTITIONS if sum(p.parts) == k and len(p.parts) <= 3
            )
            assert complete_from_elem(e, k) == expect

    def test_generating_function(self):
        # prod (1 + w t) has coefficients e_k: check at a rational t
        ws = [Fraction(2), Fraction(-1, 3), Fraction(5)]
        e = elem_brute(ws)
        t = Fraction(4, 7)
        lhs = Fraction(1)
        for w in ws:
            lhs *= 1 + w * t
        rhs = sum(e.val(k) * t**k for k in range(len(ws) + 1))
        assert lhs == rhs


class TestSchurIdentities:
    """The four Schur evaluations agree on randomized exact data:
    all partitions of weight <= 8 with <= 5 parts, 3-6 variables."""

    def test_cross_agreement_random_suite(self):
        rng = random.Random(2026)
        trials = 0
        while trials < 50:
            n = rng.randint(3, 6)
            ws = random_vars(rng, n)
            p = PARTITIONS[rng.randrange(len(PARTITIONS))]
            if len(p.parts) > n:
                continue
            trials += 1
            e = elem_brute(ws)
            h = complete_table(e, sum(p.parts) + len(p.parts) + 1)
            nk = schur_nk(p, e)
            assert schur_jt(p, h) == nk
            assert schur_vandermonde(p, ws) == nk
            assert schur_tableaux(p, ws) == nk

    def test_empty_partition(self):
        ws = [Fraction(2), Fraction(3)]
        e = elem_brute(ws)
        p = Partition()
        assert schur_nk(p, e) == 1
        assert schur_tableaux(p, ws) == 1

    def test_single_row_is_complete(self):
        ws = [Fraction(1, 2), Fraction(4), Fraction(9, 5)]
        e = elem_brute(ws)
        for k in range(1, 5):
            assert schur_nk(Partition([k]), e) == complete_from_elem(e, k)

    def test_single_column_is_elementary(self):
        ws = [Fraction(1, 2), Fraction(4), Fraction(9, 5)]
        e = elem_brute(ws)
        for k in range(1, 4):
            assert schur_nk(Partition([1] * k), e) == e.val(k)

    def test_more_parts_than_variables_vanishes(self):
        ws = [Fraction(2), Fraction(3)]
        assert schur_tableaux(Partition([1, 1, 1]), ws) == 0
        assert schur_nk(Partition([1, 1, 1]), elem_brute(ws)) == 0

    def test_vandermonde_rejects_repeats(self):
        with pytest.raises(ZeroDivisionError):
            schur_vandermonde(Partition([2]), [Fraction(1), Fraction(1)])


class TestSymTable:
    def test_negative_index_zero(self):
        e = elem_brute([Fraction(1), Fraction(2)])
        assert e.val(-1) == 0

    def test_e_beyond_nvars_zero(self):
        e = elem_brute([Fraction(1), Fraction(2)])
        assert e.val(3) == 0

    def test_h_out_of_range_raises(self):
        e = elem_brute([Fraction(1), Fraction(2)])
        h = complete_table(e, 3)
        with pytest.raises(IndexError):
            h.val(4)

    def test_missing_e_value_raises(self):
        # e_2 and e_3 of 3 variables are not given: the table is refused
        # when it is built, so no index up to nvars reads as a silent 0
        with pytest.raises(ValueError, match="need e_0..e_3"):
            SymTable([1, Fraction(1, 2)], 3)

    def test_v0_must_be_one(self):
        with pytest.raises(ValueError):
            SymTable([2, 1], 1)

    def test_negative_nvars_raises(self):
        with pytest.raises(ValueError, match="nvars must be >= 0, got -1"):
            SymTable([1, 3, 3, 1], -1)
