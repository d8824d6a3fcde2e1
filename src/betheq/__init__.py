"""Exact Bethe-root machinery for the XXZ chain at Delta = -1/2.

Q-polynomials for periodic, twisted and reflecting boundaries; Schur
values from their exact e-values; alternating-sign-matrix counts; exact
and high-precision verification of the product identities linking the
two; and a small exact-diagonalization oracle.
"""

__version__ = "0.1.0"
