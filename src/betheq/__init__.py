"""Exact Bethe-root machinery for the XXZ chain at Delta = -1/2.

Q-polynomials for periodic, twisted and reflecting boundaries; Schur
values from their exact e-values; alternating-sign-matrix counts; exact
and high-precision verification of the product identities linking the
two; and a small exact-diagonalization oracle.
"""

from .exact import Cyclo, Poly, QINV, falling_binom, gen_binom
from .qfunctions import (
    Boundary,
    QPolynomial,
    elem_for,
    elem_periodic,
    elem_reflecting,
    elem_twisted,
)
from .asmcounts import asm_count, asm_ht, asm_v, n8
from .symfunc import Partition, SymTable, schur_nk
from .detlab import det_exact
from .bethe import RootSet, solve_roots
from .conjectures import (
    VerificationReport,
    verify_component_sums,
    verify_periodic_product,
    verify_reflecting_product,
    verify_twisted_product,
)

__version__ = "0.1.0"

__all__ = [
    "Cyclo",
    "Poly",
    "QINV",
    "falling_binom",
    "gen_binom",
    "Boundary",
    "QPolynomial",
    "elem_for",
    "elem_periodic",
    "elem_twisted",
    "elem_reflecting",
    "asm_count",
    "asm_v",
    "n8",
    "asm_ht",
    "Partition",
    "SymTable",
    "schur_nk",
    "det_exact",
    "RootSet",
    "solve_roots",
    "VerificationReport",
    "verify_periodic_product",
    "verify_twisted_product",
    "verify_reflecting_product",
    "verify_component_sums",
]
