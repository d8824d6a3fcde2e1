"""Exact diagonalization oracle vs the exact/high-precision pipeline."""

import numpy as np
import pytest
from mpmath import mp

import betheq.bethe as bethe
import betheq.ed as ed
from betheq.asmcounts import asm_count
from betheq.ed import (
    MAX_L,
    SpinBasis,
    build_hamiltonian,
    default_sector,
    groundstate,
    rs_observables,
)
from betheq.qfunctions import Boundary, elem_for, elem_periodic
from oracles import to_z

PREC = 128


def bethe_energy(boundary, n):
    rs = bethe.solve_roots(elem_for(boundary, n), PREC)
    return complex(bethe.energy(rs)), rs


class TestBasis:
    def test_dimension(self):
        assert len(SpinBasis(6, 3)) == 20
        assert len(SpinBasis(5, 0)) == 1

    def test_rejects_bad_sector(self):
        with pytest.raises(ValueError):
            SpinBasis(4, 5)

    def test_default_sector(self):
        assert default_sector(7) == 3
        assert default_sector(6) == 3


class TestHamiltonian:
    def test_periodic_is_hermitian(self):
        _, h = build_hamiltonian(6, Boundary.PERIODIC)
        h = h.toarray()
        assert np.allclose(h, h.conj().T)

    def test_twisted_spectrum_real(self):
        _, h = build_hamiltonian(6, Boundary.TWISTED)
        evals = np.linalg.eigvals(h.toarray())
        assert np.max(np.abs(evals.imag)) < 1e-10

    def test_reflecting_spectrum_real(self):
        # non-normal matrix: eigenvalues of near-degenerate pairs carry
        # sqrt(eps)-level imaginary noise, hence the loose tolerance
        _, h = build_hamiltonian(6, Boundary.REFLECTING)
        evals = np.linalg.eigvals(h.toarray())
        assert np.max(np.abs(evals.imag)) < 1e-6

    def test_size_guard(self):
        with pytest.raises(ValueError):
            build_hamiltonian(MAX_L + 1, Boundary.PERIODIC)
        for boundary in Boundary:
            with pytest.raises(ValueError):
                build_hamiltonian(0, boundary)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_matvec_matches_dense(self, boundary):
        _, h = build_hamiltonian(7, boundary)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
        dense = h.toarray() @ x
        assert np.max(np.abs(h @ x - dense)) < 1e-14 * h.norm_inf * np.max(np.abs(x))

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("L", [2, 3, 6])
    def test_norm_inf(self, boundary, L):
        # L = 2 closed chains add two hops into one entry
        _, h = build_hamiltonian(L, boundary)
        assert h.norm_inf == np.linalg.norm(h.toarray(), np.inf)


class TestGroundstateObservables:
    """ED runs without the Bethe energy as a hint, so each check also
    asserts that the Bethe state is the lowest one."""

    @pytest.mark.parametrize("L", [3, 5, 7, 9, 11, 13])
    def test_periodic_component_ratio_is_asm_count(self, L):
        n = (L - 1) // 2
        _, h = build_hamiltonian(L, Boundary.PERIODIC)
        _, vec = groundstate(h)
        obs = rs_observables(vec)
        assert abs(obs["ratio"] - asm_count(n)) < 1e-8 * asm_count(n)

    @pytest.mark.parametrize("L", [3, 5, 7, 9, 11, 13])
    def test_periodic_energy_matches_bethe(self, L):
        n = (L - 1) // 2
        eb, _ = bethe_energy(Boundary.PERIODIC, n)
        _, h = build_hamiltonian(L, Boundary.PERIODIC)
        val, _ = groundstate(h)
        assert abs(val - eb) < 1e-10

    @pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
    def test_twisted_energy_matches_bethe(self, L):
        eb, _ = bethe_energy(Boundary.TWISTED, L // 2)
        _, h = build_hamiltonian(L, Boundary.TWISTED)
        val, _ = groundstate(h)
        assert abs(val - eb) < 1e-10

    @pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
    def test_reflecting_energy_matches_bethe(self, L):
        eb, _ = bethe_energy(Boundary.REFLECTING, L // 2)
        _, h = build_hamiltonian(L, Boundary.REFLECTING)
        val, _ = groundstate(h)
        assert abs(val - eb) < 1e-10

    @pytest.mark.parametrize("L", [3, 5, 7, 9, 11])
    def test_periodic_z_sum(self, L):
        n = (L - 1) // 2
        _, rs = bethe_energy(Boundary.PERIODIC, n)
        with mp.workprec(PREC):
            total = sum(
                to_z(w, PREC) + 1 / to_z(w, PREC) for w in rs.roots
            )
        assert abs(complex(total) - (n + 1)) < 1e-10

    def test_groundstate_without_hint(self):
        _, h = build_hamiltonian(5, Boundary.PERIODIC)
        val, vec = groundstate(h)
        assert abs(val - (-15 / 4)) < 1e-10

    def test_normalization(self):
        _, h = build_hamiltonian(7, Boundary.PERIODIC)
        _, vec = groundstate(h)
        mags = np.abs(vec)
        assert abs(mags.min() - 1.0) < 1e-9

    def test_reflecting_above_dense_cap(self):
        # L = 16 was out of reach of the dense solver (about 10 GB)
        eb, _ = bethe_energy(Boundary.REFLECTING, 8)
        _, h = build_hamiltonian(16, Boundary.REFLECTING)
        val, _ = groundstate(h)
        assert abs(val - eb) < 1e-10


def dense_groundstate(h):
    """Reference: full dense eigendecomposition, lowest real part."""
    evals, evecs = np.linalg.eig(h.toarray())
    k = int(np.argmin(evals.real))
    return evals[k], evecs[:, k]


def same_up_to_scale(vec, ref):
    k = int(np.argmax(np.abs(ref)))
    return np.max(np.abs(vec * (ref[k] / vec[k]) - ref)) / np.abs(ref[k])


class TestArnoldi:
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("L", range(2, 9))
    def test_matches_dense_eig(self, boundary, L):
        _, h = build_hamiltonian(L, boundary)
        ref_val, ref_vec = dense_groundstate(h)
        val, vec = groundstate(h)
        assert abs(val - ref_val) < 1e-12
        assert same_up_to_scale(vec, ref_vec) < 1e-10

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_hint_gives_same_pair(self, boundary):
        eb, _ = bethe_energy(boundary, 5)
        _, h = build_hamiltonian(10, boundary)
        val, vec = groundstate(h)
        hinted_val, hinted_vec = groundstate(h, shift_hint=eb.real)
        assert abs(val - hinted_val) < 1e-12
        assert same_up_to_scale(hinted_vec, vec) < 1e-10

    def test_forced_nonconvergence(self, monkeypatch):
        _, h = build_hamiltonian(6, Boundary.REFLECTING)
        monkeypatch.setattr(ed, "ARNOLDI_TOL", 0.0)
        monkeypatch.setattr(ed, "ARNOLDI_MAX_RESTARTS", 3)
        with pytest.raises(ArithmeticError) as info:
            groundstate(h)
        message = str(info.value)
        assert len(message) < 80
        assert "3 restarts" in message
        residual = message.rsplit("residual ", 1)[1].rstrip(")")
        assert f"{float(residual):.3g}" == residual


class TestWavefunctionMatch:
    """The ED groundstate vector is proportional to the Bethe wavefunction
    component-by-component; this pins every sign and phase convention in
    the Hamiltonian (including the reflecting boundary field sign)."""

    @pytest.mark.parametrize(
        "boundary,L",
        [
            (Boundary.PERIODIC, 5),
            (Boundary.PERIODIC, 7),
            (Boundary.TWISTED, 4),
            (Boundary.REFLECTING, 4),
            (Boundary.REFLECTING, 6),
            (Boundary.REFLECTING, 8),
        ],
    )
    def test_vector_proportional_to_bethe_components(self, boundary, L):
        n = L // 2
        eb, rs = bethe_energy(boundary, n)
        basis, h = build_hamiltonian(L, boundary)
        _, vec = groundstate(h, shift_hint=eb.real)
        psi = []
        for s in basis.states:
            positions = [j + 1 for j in range(L) if (s >> j) & 1]
            psi.append(complex(bethe.wavefunction_component(rs, positions)))
        psi = np.array(psi)
        k = int(np.argmax(np.abs(psi)))
        if boundary is Boundary.TWISTED:
            # the seam-localized twist is a diagonal gauge transform away
            # from the Bethe form, so only the moduli are gauge-invariant
            scale = np.abs(vec[k] / psi[k])
            assert np.max(np.abs(np.abs(vec) - scale * np.abs(psi))) < 1e-8 * np.max(
                np.abs(vec)
            )
        else:
            ratio = vec[k] / psi[k]
            assert np.max(np.abs(vec - ratio * psi)) < 1e-8 * np.max(np.abs(vec))
