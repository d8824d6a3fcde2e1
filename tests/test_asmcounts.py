"""Product formulas for ASM symmetry class counts against known sequences."""

import pytest

from betheq.asmcounts import _integer_product, asm_count, asm_ht, asm_v, n8
from oracles import asm_count_alt

# 1, 1, 2, 7, 42, 429, 7436, 218348, 10850216 is the ASM sequence
ASM_SEQ = [1, 1, 2, 7, 42, 429, 7436, 218348, 10850216]


class TestASMCount:
    @pytest.mark.parametrize("n", range(len(ASM_SEQ)))
    def test_known_values(self, n):
        assert asm_count(n) == ASM_SEQ[n]

    @pytest.mark.parametrize("n", range(12))
    def test_double_product_agrees(self, n):
        assert asm_count_alt(n) == asm_count(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            asm_count(-1)


class TestSymmetryClasses:
    def test_vertically_symmetric(self):
        # A_V(2n+1) for n = 0..4: 1, 1, 3, 26, 646
        assert [asm_v(2 * n + 1) for n in range(5)] == [1, 1, 3, 26, 646]

    def test_v_rejects_even(self):
        with pytest.raises(ValueError):
            asm_v(4)

    def test_n8_values(self):
        # N_8(2n) for n = 1..4: 1, 2, 11, 170
        assert [n8(2 * n) for n in range(1, 5)] == [1, 2, 11, 170]

    def test_n8_rejects_odd(self):
        with pytest.raises(ValueError):
            n8(5)

    def test_half_turn(self):
        # A_HT(2n+1) for n = 0..3: 1, 3, 25, 588
        assert [asm_ht(2 * n + 1) for n in range(4)] == [1, 3, 25, 588]

    def test_ht_rejects_even(self):
        with pytest.raises(ValueError):
            asm_ht(6)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_integral(self, n):
        # the rational accumulators must resolve to integers
        assert isinstance(asm_v(2 * n + 1), int)
        assert isinstance(n8(2 * n), int)
        assert isinstance(asm_ht(2 * n - 1), int)

    def test_non_integer_accumulator_raises(self):
        # a transcription error that leaves a denominator is loud
        with pytest.raises(ArithmeticError, match=r"A_V\(5\) did not resolve to an integer: 7/2"):
            _integer_product([(3, 4), (14, 3)], "A_V(5)")
