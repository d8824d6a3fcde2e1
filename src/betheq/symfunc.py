"""Partitions, e-value tables and Schur values over the rationals.

The central object is SymTable: a table of elementary symmetric function
values decoupled from the underlying variables.  schur_nk evaluates the
Naegelsbach-Kostka determinant directly on such a table, so Schur values
can be computed from e-values that are known without knowing the
variables themselves.
"""

from __future__ import annotations

from .detlab import det_exact

__all__ = ["Partition", "SymTable", "schur_nk"]


class Partition:
    """Non-increasing sequence of positive integers.

    Zero parts in the input are normalized away.  Increasing input is
    rejected.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if p != 0)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be non-increasing: {parts}")
        self.parts = parts

    def __repr__(self):
        return f"Partition{self.parts!r}"

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition()
        cols = self.parts[0]
        return Partition(
            sum(1 for p in self.parts if p > j) for j in range(cols)
        )


class SymTable:
    """Values e_0..e_N of the elementary symmetric functions in a fixed
    number of variables.

    e_0 = 1 always; e_k = 0 for k > nvars and for negative k (the usual
    convention in the determinantal identities).  A table that lacks any
    of e_0..e_nvars raises ValueError when it is built, so no missing
    e-value is ever read as 0.
    """

    __slots__ = ("values", "nvars")

    def __init__(self, values, nvars: int):
        values = list(values)
        if not values or values[0] != 1:
            raise ValueError("e-values must start with e_0 = 1")
        if len(values) < nvars + 1:
            raise ValueError(
                f"{nvars} variables need e_0..e_{nvars}, got {len(values)} e-values")
        for k in range(nvars + 1, len(values)):
            if values[k] != 0:
                raise ValueError(f"e_{k} must vanish beyond {nvars} variables")
        self.values = values
        self.nvars = nvars

    def val(self, k: int):
        if k < 0 or k > self.nvars:
            return 0
        return self.values[k]


def _jt_det(parts, table: SymTable):
    """The Jacobi-Trudi shaped determinant det(t_{parts_i - i + j}) of size
    len(parts) over the table's values."""
    k = len(parts)
    return det_exact([[table.val(parts[i] - i + j) for j in range(k)] for i in range(k)])


def schur_nk(p: Partition, e: SymTable):
    """Schur value from e-values: the Naegelsbach-Kostka determinant
    det(e_{mu'_i - i + j}) of size len(mu')."""
    return _jt_det(p.conjugate().parts, e)
