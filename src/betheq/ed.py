"""Small-chain exact diagonalization oracle for the XXZ chain at
Delta = -1/2: periodic, twisted (phi = pi/3) and reflecting boundaries.

Everything here is double precision on purpose.  The module only
cross-checks the exact and high-precision paths; it is never the source
of truth, and staying dependency-light keeps it honest as an independent
oracle.
"""

from __future__ import annotations

import numpy as np

from .qfunctions import Boundary

__all__ = [
    "SpinBasis",
    "build_hamiltonian",
    "groundstate",
    "rs_observables",
    "default_sector",
]

MAX_L = 14  # largest L measured to work; see build_hamiltonian
DELTA = -0.5
TWIST_PHI = np.pi / 3
# +- (q - 1/q)/4 = +- i sqrt(3)/4; the sign is pinned by matching the Bethe
# wavefunction of the L = 2 reflecting chain (see tests).
BOUNDARY_FIELD = -1j * np.sqrt(3) / 4


def default_sector(L: int, boundary: Boundary) -> int:
    """Down-spin sector holding the groundstate: n = floor(L/2)."""
    return L // 2


class SpinBasis:
    """Fixed-magnetization basis: bit j set means a down spin at site j.

    States are the C(L, n) bitmasks with n set bits, in increasing integer
    order (lexicographic in the bit string read from site 0)."""

    def __init__(self, L: int, n: int):
        if not 0 <= n <= L:
            raise ValueError(f"bad sector n={n} for L={L}")
        self.L = L
        self.n = n
        self.states = [s for s in range(1 << L) if bin(s).count("1") == n]
        self.index = {s: i for i, s in enumerate(self.states)}

    def __len__(self):
        return len(self.states)


def build_hamiltonian(L: int, boundary, n: int | None = None):
    """Dense sector Hamiltonian
    H = -1/2 sum_bonds (sx sx + sy sy + Delta sz sz) (+ twist phase on the
    wrap bond, or boundary z-fields for the reflecting chain).

    Returns (basis, H) with H complex; twisted and reflecting H are
    non-Hermitian but have real spectra.

    L is capped at MAX_L by memory: each dense complex sector array
    takes dim^2 * 16 bytes with dim = C(L, n), and groundstate holds about
    four of them at once (H, H - shift, its inverse and the shifted
    identity).  That is about 0.75 GB at L = 14 (dim 3432), 2.6 GB at
    L = 15 and 10.6 GB at L = 16.
    """
    boundary = Boundary(boundary)
    if L > MAX_L:
        raise ValueError(f"L must be <= {MAX_L}")
    if n is None:
        n = default_sector(L, boundary)
    basis = SpinBasis(L, n)
    dim = len(basis)
    h = np.zeros((dim, dim), dtype=complex)
    closed = boundary is not Boundary.REFLECTING
    bonds = [(j, (j + 1) % L) for j in range(L if closed else L - 1)]
    for idx, s in enumerate(basis.states):
        diag = 0.0
        for a, b in bonds:
            sa = 1 - 2 * ((s >> a) & 1)
            sb = 1 - 2 * ((s >> b) & 1)
            diag += -0.5 * DELTA * sa * sb
            if sa != sb:
                t = s ^ (1 << a) ^ (1 << b)
                amp = -1.0 + 0j
                if boundary is Boundary.TWISTED and a == L - 1 and b == 0:
                    # down spin crossing the seam picks up e^{-+ 2 i phi}
                    moving_down_to_first = ((s >> a) & 1) == 1
                    amp *= np.exp((-2j if moving_down_to_first else 2j) * TWIST_PHI)
                h[basis.index[t], idx] += amp
        if boundary is Boundary.REFLECTING:
            s1 = 1 - 2 * (s & 1)
            sL = 1 - 2 * ((s >> (L - 1)) & 1)
            h[idx, idx] += BOUNDARY_FIELD * (s1 - sL)
        h[idx, idx] += diag
    return basis, h


def groundstate(h, shift_hint=None, tol: float = 1e-13, max_iter: int = 200):
    """Eigenpair with the lowest real eigenvalue part.

    With a shift hint (e.g. the Bethe energy minus 1e-3), inverse
    iteration on H - shift converges in a handful of steps and sidesteps
    full non-Hermitian diagonalization; without one, fall back to dense
    eigendecomposition.  The vector is normalized so its smallest-modulus
    component is exactly 1.
    """
    dim = h.shape[0]
    if shift_hint is None:
        evals, evecs = np.linalg.eig(h)
        k = int(np.argmin(evals.real))
        vec = evecs[:, k]
        val = evals[k]
    else:
        shift = complex(shift_hint) - 1e-3
        vec = np.ones(dim, dtype=complex) / np.sqrt(dim)
        val = None
        for attempt in range(4):
            a = h - shift * np.eye(dim)
            try:
                ainv = np.linalg.inv(a)
            except np.linalg.LinAlgError:
                shift += 1e-5 * (attempt + 1)
                continue
            for _ in range(max_iter):
                nxt = ainv @ vec
                nxt /= np.linalg.norm(nxt)
                k = int(np.argmax(np.abs(nxt)))
                resid_vec = h @ nxt
                val = resid_vec[k] / nxt[k]
                if np.linalg.norm(resid_vec - val * nxt) < tol * np.linalg.norm(h, np.inf):
                    vec = nxt
                    break
                vec = nxt
            else:
                raise ArithmeticError("inverse iteration did not converge")
            break
        else:
            raise ArithmeticError("could not factor H - shift")
    nz = np.flatnonzero(np.abs(vec) > 0)
    smallest = nz[np.argmin(np.abs(vec[nz]))]
    vec = vec / vec[smallest]
    return val, vec


def rs_observables(vec):
    """Ratio of largest to smallest component modulus, the component sum,
    and the sum of squared components."""
    mags = np.abs(vec)
    return {
        "ratio": float(mags.max() / mags.min()),
        "sum": complex(vec.sum()),
        "sum_sq": complex((vec**2).sum()),
    }
