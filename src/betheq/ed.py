"""Small-chain exact diagonalization oracle for the XXZ chain at
Delta = -1/2: periodic, twisted (phi = pi/3) and reflecting boundaries.

The sector Hamiltonian is kept sparse (`SectorMatrix`, about L/2 + 1
entries per row) and only ever multiplies vectors; `groundstate` finds the
lowest eigenpair with an explicitly restarted Arnoldi iteration (Saad,
Numerical Methods for Large Eigenvalue Problems, 2011), so memory grows
with dim = C(L, n), not dim^2.

Everything here is double precision and plain numpy on purpose.  The
module only cross-checks the exact and high-precision paths; it is never
the source of truth, and staying dependency-light keeps it honest as an
independent oracle.  The one random draw, the Arnoldi start vector, comes
from the standard library's `random.Random`, whose sequence Python keeps
across releases (NumPy's policy, NEP 19, leaves its Generator streams free
to change); so no betheq module loads numpy.random.
"""

from __future__ import annotations

import random

import numpy as np

from .qfunctions import Boundary

__all__ = [
    "SpinBasis",
    "SectorMatrix",
    "build_hamiltonian",
    "groundstate",
    "rs_observables",
    "default_sector",
    "ArnoldiError",
]

# largest L measured to work; see build_hamiltonian.  The periodic
# component ratio is A_n to a relative 3.0e-11 at L = 15 and 2.3e-9 at
# L = 17 (see rs_observables)
MAX_L = 18
DELTA = -0.5
TWIST_PHI = np.pi / 3
# +- (q - 1/q)/4 = +- i sqrt(3)/4; the sign is pinned by matching the Bethe
# wavefunction of the L = 2 reflecting chain (see tests).
BOUNDARY_FIELD = -1j * np.sqrt(3) / 4
KRYLOV_DIM = 40  # Arnoldi basis size per restart
ARNOLDI_TOL = 1e-13  # stop once ||H v - lambda v|| <= ARNOLDI_TOL ||H||_inf
ARNOLDI_MAX_RESTARTS = 200


class ArnoldiError(ArithmeticError):
    """Restarted Arnoldi did not converge within its restart cap."""


def default_sector(L: int) -> int:
    """Down-spin sector holding the groundstate: n = floor(L/2)."""
    return L // 2


class SpinBasis:
    """Fixed-magnetization basis: bit j set means a down spin at site j.

    States are the C(L, n) bitmasks with n set bits, in increasing integer
    order (lexicographic in the bit string read from site L - 1)."""

    def __init__(self, L: int, n: int):
        if not 0 <= n <= L:
            raise ValueError(f"bad sector n={n} for L={L}")
        self.L = L
        self.n = n
        self.states = [s for s in range(1 << L) if s.bit_count() == n]
        self.index = {s: i for i, s in enumerate(self.states)}

    def __len__(self):
        return len(self.states)


class SectorMatrix:
    """Sparse complex square matrix from (row, col, value) triplets,
    stored sorted by row and then column.  Repeated positions (only the
    L = 2 closed chains have them) add up in the order given: one stable
    argsort of the keys row * dim + col, then one np.add.reduceat of the
    values over each run of equal keys.  It offers `shape`, `@` on a
    vector and its infinity norm `norm_inf`."""

    def __init__(self, dim: int, rows, cols, values):
        self.shape = (dim, dim)
        keys = np.asarray(rows, dtype=np.int64) * dim + np.asarray(cols, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        self.rows, self.cols = np.divmod(keys[first], dim)
        self.values = np.add.reduceat(np.asarray(values, dtype=complex)[order], first)
        self.norm_inf = float(np.bincount(self.rows, np.abs(self.values), dim).max())

    def __matmul__(self, x):
        terms = self.values * x[self.cols]
        dim = self.shape[0]
        return (np.bincount(self.rows, terms.real, dim)
                + 1j * np.bincount(self.rows, terms.imag, dim))


def build_hamiltonian(L: int, boundary):
    """Sparse sector Hamiltonian
    H = -1/2 sum_bonds (sx sx + sy sy + Delta sz sz) (+ twist phase on the
    wrap bond, or boundary z-fields for the reflecting chain).

    Returns (basis, H) with H a `SectorMatrix`.  Periodic and twisted H are
    Hermitian (the seam phases of a hop and its reverse are conjugate); the
    reflecting H is not, since its boundary fields are imaginary, but its
    spectrum is real.

    L runs to MAX_L, the largest size measured to work, from 1 for the
    reflecting chain and from 2 for closed chains (one site would close
    onto itself).  Build plus
    `groundstate` without a hint, in a fresh process with one BLAS thread
    on a shared 2-vCPU host, took (peak process RSS, of which about 33 MB
    is the interpreter with numpy and betheq loaded):
    reflecting L = 16 (dim 12870) 0.4 s, 62 MB;
    periodic L = 17 (dim 24310) 0.6 s, 87 MB;
    reflecting L = 18 (dim 48620) 2.4 s, 133 MB.
    """
    boundary = Boundary(boundary)
    closed = boundary is not Boundary.REFLECTING
    low = 2 if closed else 1
    if not low <= L <= MAX_L:
        raise ValueError(f"L must be in {low}..{MAX_L} for the {boundary.value} chain, got {L}")
    basis = SpinBasis(L, default_sector(L))
    s = np.array(basis.states)
    diag = np.zeros(len(s), dtype=complex)
    rows, cols, values = [np.arange(len(s))], [np.arange(len(s))], [diag]
    for a in range(L if closed else L - 1):
        b = (a + 1) % L
        down_a, down_b = (s >> a) & 1, (s >> b) & 1
        diag += -0.5 * DELTA * (1 - 2 * down_a) * (1 - 2 * down_b)
        flip = np.flatnonzero(down_a != down_b)
        amp = np.full(len(flip), -1.0 + 0j)
        if boundary is Boundary.TWISTED and a == L - 1:
            # down spin crossing the seam picks up e^{-+ 2 i phi}
            amp *= np.exp(np.where(down_a[flip] == 1, -2j, 2j) * TWIST_PHI)
        rows.append(np.searchsorted(s, s[flip] ^ (1 << a | 1 << b)))
        cols.append(flip)
        values.append(amp)
    if boundary is Boundary.REFLECTING:
        diag += BOUNDARY_FIELD * (2 * ((s >> (L - 1)) & 1) - 2 * (s & 1))
    rows, cols, values = np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    return basis, SectorMatrix(len(s), rows, cols, values)


def _arnoldi(h, start, size):
    """Orthonormal Krylov basis (as rows) of h from the unit vector start
    and the Hessenberg projection of h on it.  Every new vector is
    orthogonalised twice against the whole basis; an invariant subspace
    (a new vector of norm at rounding level) ends the basis early."""
    basis = np.zeros((size, len(start)), dtype=complex)
    hess = np.zeros((size, size), dtype=complex)
    basis[0] = start
    floor = np.finfo(float).eps * h.norm_inf
    for j in range(size):
        w = h @ basis[j]
        for _ in range(2):
            coef = (basis[: j + 1] @ w.conj()).conj()
            w -= coef @ basis[: j + 1]
            hess[: j + 1, j] += coef
        if j + 1 == size:
            break
        beta = np.linalg.norm(w)
        if beta <= floor:
            return basis[: j + 1], hess[: j + 1, : j + 1]
        hess[j + 1, j] = beta
        basis[j + 1] = w / beta
    return basis, hess


def groundstate(h, shift_hint=None):
    """Eigenpair with the lowest real eigenvalue part of a `SectorMatrix`.

    Explicitly restarted Arnoldi from a fixed-seed random vector, which
    no symmetry sector is orthogonal to: the 2 dim draws rng.random() - 0.5
    of rng = random.Random(0), the first dim as real parts and the rest as
    imaginary parts (the standard library keeps this sequence across
    Python releases, see the module docstring).  Each restart builds a
    Krylov basis of KRYLOV_DIM vectors (fewer when dim is smaller) from
    the current vector, diagonalizes the small Hessenberg matrix, and
    restarts from the Ritz vector with the lowest real part, or the one nearest
    shift_hint when a hint (e.g. the Bethe energy) is given.  It stops
    once ||H v - lambda v|| <= ARNOLDI_TOL ||H||_inf for the unit vector v
    and its Rayleigh quotient lambda (non-strict, so an exact eigenvector
    of a zero matrix is accepted), and raises ArnoldiError after
    ARNOLDI_MAX_RESTARTS restarts.  The vector is normalized so its
    smallest-modulus component is exactly 1.
    """
    dim = h.shape[0]
    rng = random.Random(0)
    draws = np.fromiter((rng.random() - 0.5 for _ in range(2 * dim)), float, 2 * dim)
    vec = draws[:dim] + 1j * draws[dim:]
    vec /= np.linalg.norm(vec)
    bound = ARNOLDI_TOL * h.norm_inf
    residual = np.inf
    for _ in range(ARNOLDI_MAX_RESTARTS):
        basis, hess = _arnoldi(h, vec, min(KRYLOV_DIM, dim))
        ritz, coords = np.linalg.eig(hess)
        if shift_hint is None:
            k = int(np.argmin(ritz.real))
        else:
            k = int(np.argmin(np.abs(ritz - shift_hint)))
        vec = coords[:, k] @ basis
        vec /= np.linalg.norm(vec)
        hv = h @ vec
        val = np.vdot(vec, hv)
        residual = np.linalg.norm(hv - val * vec)
        if residual <= bound:
            break
    else:
        raise ArnoldiError(
            f"Arnoldi did not converge in {ARNOLDI_MAX_RESTARTS} restarts "
            f"(residual {residual:.3g})")
    nz = np.flatnonzero(np.abs(vec) > 0)
    smallest = nz[np.argmin(np.abs(vec[nz]))]
    return val, vec / vec[smallest]


def rs_observables(vec):
    """Ratio of largest to smallest component modulus, and the component
    sum.

    On the periodic groundstate of `groundstate` the ratio is A_n to a
    relative error that grows with L, as the smallest component is about
    1/A_n of the largest: 3.0e-11 at L = 15 and 2.3e-9 at L = 17.
    """
    mags = np.abs(vec)
    return {
        "ratio": float(mags.max() / mags.min()),
        "sum": complex(vec.sum()),
    }
