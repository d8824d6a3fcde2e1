"""Exact determinants, Dodgson condensation and the ASM-sum expansion."""

import random
from fractions import Fraction

import pytest

from betheq.asmcounts import asm_count
from betheq.detlab import det_exact
from betheq.exact import Cyclo
from oracles import (
    ASMMatrix,
    CondensationSingularError,
    asm_enumerate,
    lambda_det_asm_sum,
    lambda_det_dodgson,
)


def leibniz(m):
    """Reference: the permutation expansion, skipping zero entries."""
    n = len(m)
    total = 0

    def expand(i, used, sign, term):
        nonlocal total
        if i == n:
            total = total + sign * term
            return
        for j in range(n):
            if j not in used and m[i][j] != 0:
                inversions = sum(1 for u in used if u > j)
                expand(i + 1, used | {j}, sign * (-1) ** inversions, term * m[i][j])

    expand(0, frozenset(), 1, 1)
    return total


def sparse_entry(rng, ring):
    """About two-thirds zeros; nonzeros drawn from the ring, with ints
    mixed in for the Fraction case."""
    if rng.random() < 2 / 3:
        return rng.choice([0, Fraction(0)]) if ring is not int else 0
    x = rng.choice([-9, -5, -2, -1, 1, 2, 3, 7])
    if ring is int or rng.random() < 0.3:
        return x
    return Fraction(x, rng.randint(1, 6))


def sparse_matrix(rng, n, ring):
    m = [[sparse_entry(rng, ring) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.15 and n > 1:
        # a singular matrix with no zero row: one row a multiple of another
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, 1, 3])
        m[i] = [x * c for x in m[j]]
    # pin the ring of the whole matrix through one entry
    i, j = rng.randrange(n), rng.randrange(n)
    m[i][j] = ring(m[i][j])
    return m


def random_matrix(rng, n, *, positive=False):
    def entry():
        num = rng.randint(1, 9) if positive else rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 5))

    return [[entry() for _ in range(n)] for _ in range(n)]


class TestDetExact:
    def test_known_integer_determinant(self):
        assert det_exact([[1, 2], [3, 4]]) == -2
        assert det_exact([[2, 0, 1], [1, 3, 2], [0, 1, 4]]) == 21

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0

    def test_empty_matrix(self):
        assert det_exact([]) == 1

    def test_bareiss_matches_field_path(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 5)
            m_int = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m_frac = [[Fraction(x) for x in row] for row in m_int]
            assert det_exact(m_int) == det_exact(m_frac)

    def test_multiplicativity(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n)
            b = random_matrix(rng, n)
            ab = [
                [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert det_exact(ab) == det_exact(a) * det_exact(b)

    @pytest.mark.parametrize("ring", [int, Fraction])
    def test_sparse_matches_leibniz(self, ring):
        rng = random.Random({int: 1, Fraction: 2}[ring])
        singular = 0
        for trial in range(400):
            m = sparse_matrix(rng, 1 + trial % 7, ring)
            frozen = [list(row) for row in m]
            d = det_exact(m)
            assert m == frozen
            assert type(d) is Fraction, m
            assert d == leibniz(m), m
            singular += d == 0
        assert 40 < singular < 360

    def test_stale_rows_become_pivots(self):
        # column 0 is nonzero only in rows 0 and 4, so rows 1-3 skip step 0;
        # row 3 is then swapped in as the step-1 pivot while still stale
        m = [
            [2, 1, 0, 0, 5],
            [0, 0, 3, 1, 0],
            [0, 0, 0, 4, 1],
            [0, 7, 0, 0, 2],
            [3, 0, 0, 1, 1],
        ]
        assert det_exact(m) == leibniz(m) != 0
        mf = [[Fraction(x, 1 + (i + j) % 3) for j, x in enumerate(row)] for i, row in enumerate(m)]
        assert det_exact(mf) == leibniz(mf) != 0

    def test_return_types(self):
        # a Fraction for every input, all-int and empty matrices included
        for m, value in (([], 1), ([[2, 1], [1, 1]], 1), ([[0, 1], [0, 2]], 0),
                         ([[Fraction(2), 1], [1, 1]], 1), ([[Fraction(0), 1], [0, 2]], 0),
                         ([[Fraction(1, 2), 1], [1, Fraction(1, 3)]], Fraction(-5, 6))):
            d = det_exact(m)
            assert type(d) is Fraction and d == value, m

    def test_rejects_entries_outside_the_rationals(self):
        with pytest.raises(TypeError):
            det_exact([[Cyclo(0, 1), 1], [1, 1]])
        with pytest.raises(TypeError):
            det_exact([[1, 0], [0, 0.5]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_exact([[1, 2, 3], [4, 5, 6]])


class TestASMEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_product_formula(self, n):
        assert len(asm_enumerate(n)) == asm_count(n)

    def test_all_distinct(self):
        asms = asm_enumerate(4)
        assert len({a.entries for a in asms}) == len(asms)

    def test_permutation_inversions(self):
        # for permutation matrices the inversion number is the ordinary one
        perm = [2, 0, 3, 1]
        entries = [[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)]
        a = ASMMatrix.from_entries(entries)
        classic = sum(
            1 for i in range(4) for k in range(i + 1, 4) if perm[i] > perm[k]
        )
        assert a.inversion_number == classic
        assert a.num_neg == 0

    def test_minimal_negative_example(self):
        entries = [[0, 1, 0], [1, -1, 1], [0, 1, 0]]
        a = ASMMatrix.from_entries(entries)
        assert a.num_neg == 1
        assert a.inversion_number == 2

    def test_invalid_asm_rejected(self):
        with pytest.raises(ValueError):
            ASMMatrix.from_entries([[1, 1], [0, -1]])


class TestLambdaDeterminant:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_dodgson_matches_asm_sum(self, n):
        rng = random.Random(100 + n)
        lams = [Fraction(2), Fraction(-3, 2), Fraction(1, 5)]
        for trial in range(10):
            m = random_matrix(rng, n, positive=True)
            lam = lams[trial % len(lams)]
            try:
                d = lambda_det_dodgson(m, lam)
            except CondensationSingularError:
                continue
            assert d == lambda_det_asm_sum(m, lam)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_lambda_minus_one_is_determinant(self, n):
        rng = random.Random(200 + n)
        for _ in range(10):
            m = random_matrix(rng, n, positive=True)
            try:
                d = lambda_det_dodgson(m, Fraction(-1))
            except CondensationSingularError:
                continue
            assert d == det_exact(m)
            assert lambda_det_asm_sum(m, Fraction(-1)) == det_exact(m)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_vandermonde_product(self, n):
        rng = random.Random(300 + n)
        ws = [Fraction(rng.randint(1, 50), rng.randint(1, 7)) for _ in range(n)]
        lam = Fraction(3, 2)
        m = [[ws[i] ** (n - j) for j in range(1, n + 1)] for i in range(n)]
        expect = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                expect *= ws[i] + lam * ws[j]
        if n <= 4:
            assert lambda_det_asm_sum(m, lam) == expect
        assert lambda_det_dodgson(m, lam) == expect

    def test_singular_interior_raises(self):
        m = [[1, 0, 1], [1, 0, 2], [3, 1, 1]]
        with pytest.raises(CondensationSingularError):
            lambda_det_dodgson(m, Fraction(2))
