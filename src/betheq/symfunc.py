"""Partitions, semistandard tableaux and the m/e/h/s symmetric function
families.  The determinantal identities work over the rationals.

The central object is SymTable: a table of elementary (or complete)
symmetric function values decoupled from the underlying variables.  All
determinantal identities (duality, Jacobi-Trudi, Naegelsbach-Kostka) are
evaluated directly on such tables, so Schur values can be computed from
e-values that are known without knowing the variables themselves.
"""

from __future__ import annotations

from .detlab import det_exact

__all__ = [
    "Partition",
    "SymTable",
    "elem_brute",
    "complete_from_elem",
    "elem_from_complete",
    "complete_table",
    "schur_nk",
    "schur_jt",
    "schur_tableaux",
    "schur_vandermonde",
    "monomial_sym",
    "TableauGuardError",
]

TABLEAU_GUARD = 10**7


class TableauGuardError(ValueError):
    """Enumeration would exceed the tableau guard."""


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

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

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
    """Values v_0..v_N of an elementary or complete symmetric function
    family in a fixed number of variables.

    kind is "e" or "h".  v_0 = 1 always; for kind "e", v_k = 0 for
    k > nvars.  Negative indices give 0 (the usual convention in the
    determinantal identities).
    """

    __slots__ = ("kind", "values", "nvars")

    def __init__(self, kind: str, values, nvars: int):
        if kind not in ("e", "h"):
            raise ValueError(f"kind must be 'e' or 'h', got {kind!r}")
        values = list(values)
        if not values or values[0] != 1:
            raise ValueError("v_0 must be 1")
        if kind == "e":
            for k in range(nvars + 1, len(values)):
                if values[k] != 0:
                    raise ValueError(f"e_{k} must vanish beyond {nvars} variables")
        self.kind = kind
        self.values = values
        self.nvars = nvars

    def __len__(self):
        return len(self.values)

    def val(self, k: int):
        if k < 0:
            return 0
        if self.kind == "e" and k > self.nvars:
            return 0
        if k >= len(self.values):
            raise IndexError(
                f"{self.kind}-table holds indices up to {len(self.values) - 1}, "
                f"need {k}"
            )
        return self.values[k]


def elem_brute(variables) -> SymTable:
    """e-table of the given variables: coefficients of prod (1 + w_j t),
    built by incremental polynomial multiplication."""
    coeffs = [1]
    for w in variables:
        nxt = [1]
        for k in range(1, len(coeffs) + 1):
            prev = coeffs[k] if k < len(coeffs) else 0
            nxt.append(prev + coeffs[k - 1] * w)
        coeffs = nxt
    return SymTable("e", coeffs, len(coeffs) - 1)


def _jt_det(parts, table: SymTable):
    """The Jacobi-Trudi shaped determinant det(t_{parts_i - i + j}) of size
    len(parts) over the table's values."""
    k = len(parts)
    return det_exact([[table.val(parts[i] - i + j) for j in range(k)] for i in range(k)])


def complete_from_elem(e: SymTable, k: int):
    """h_k from an e-table via the duality determinant det(e_{1-i+j})."""
    if k < 0:
        return 0
    return _jt_det((1,) * k, e)


def elem_from_complete(h: SymTable, k: int):
    """e_k from an h-table via det(h_{1-i+j}); the dual direction."""
    if k < 0:
        return 0
    return _jt_det((1,) * k, h)


def complete_table(e: SymTable, upto: int) -> SymTable:
    """h-table with entries h_0..h_upto derived from an e-table."""
    return SymTable(
        "h", [complete_from_elem(e, k) for k in range(upto + 1)], e.nvars
    )


def schur_nk(p: Partition, e: SymTable):
    """Schur value from e-values: the Naegelsbach-Kostka determinant
    det(e_{mu'_i - i + j}) of size len(mu')."""
    return _jt_det(p.conjugate().parts, e)


def schur_jt(p: Partition, h: SymTable):
    """Schur value from h-values: the Jacobi-Trudi determinant
    det(h_{mu_i - i + j}) of size len(mu)."""
    return _jt_det(p.parts, h)


def schur_tableaux(p: Partition, variables):
    """Schur value as the sum over semistandard tableaux of shape p with
    entries in 1..len(variables): rows weakly increasing, columns strictly
    increasing.  Guarded enumeration."""
    variables = list(variables)
    n = len(variables)
    shape = p.parts
    if not shape:
        return 1
    if len(shape) > n:
        return 0 * variables[0] if n else 0
    count = 0
    total = 0
    rows = []

    def fill_row(r):
        nonlocal count, total
        if r == len(shape):
            count += 1
            if count > TABLEAU_GUARD:
                raise TableauGuardError(
                    f"more than {TABLEAU_GUARD} tableaux of shape {shape}"
                )
            term = 1
            for row in rows:
                for v in row:
                    term = term * variables[v - 1]
            total = total + term
            return
        width = shape[r]
        row = [0] * width

        def fill_cell(c):
            if c == width:
                rows.append(tuple(row))
                fill_row(r + 1)
                rows.pop()
                return
            lo = row[c - 1] if c > 0 else 1
            if r > 0:
                lo = max(lo, rows[r - 1][c] + 1)
            for v in range(lo, n + 1):
                row[c] = v
                fill_cell(c + 1)

        fill_cell(0)

    fill_row(0)
    return total


def schur_vandermonde(p: Partition, variables):
    """Schur value as the ratio det(w_i^{n-j+mu_j}) / det(w_i^{n-j}).

    Variables must be pairwise distinct; with a repeat the denominator
    determinant vanishes and a determinantal identity must be used instead.
    """
    variables = list(variables)
    n = len(variables)
    mu = list(p.parts) + [0] * (n - len(p.parts))
    if len(mu) > n:
        raise ValueError(f"partition {p!r} has more parts than variables")
    den = det_exact(
        [[variables[i] ** (n - 1 - j) for j in range(n)] for i in range(n)]
    )
    if den == 0:
        raise ZeroDivisionError("repeated variable: Vandermonde denominator is singular")
    num = det_exact(
        [[variables[i] ** (n - 1 - j + mu[j]) for j in range(n)] for i in range(n)]
    )
    return num / den


def monomial_sym(p: Partition, variables):
    """Monomial symmetric function: sum over distinct permutations of the
    exponent vector padded with zeros."""
    variables = list(variables)
    n = len(variables)
    if len(p.parts) > n:
        return 0 * variables[0] if n else 0
    expo = list(p.parts) + [0] * (n - len(p.parts))
    total = 0
    for perm in _orderings(expo):
        term = 1
        for w, k in zip(variables, perm):
            term = term * w**k
        total = total + term
    return total


def _orderings(multiset):
    """Each distinct ordering of a multiset, exactly once."""
    if not multiset:
        yield ()
        return
    for k in sorted(set(multiset)):
        rest = list(multiset)
        rest.remove(k)
        for tail in _orderings(rest):
            yield (k,) + tail
