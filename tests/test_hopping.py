import math

import numpy as np
import pytest

from qmbh_lab import hopping


def gaussian_amplitudes(spec, width_sites=6.0):
    x = spec.coordinates()
    return hopping.AmplitudeVector(np.exp(-x**2 / (2 * (width_sites * spec.b) ** 2)))


def whole_chain_kernel(spec):
    return hopping.NonlocalKernel((spec.n_sites // 2) * spec.b * 1.5, spec.b)


class TestDispersion:
    def test_effective_mass_formula_values(self):
        assert hopping.ChainSpec(64, 1.0, 2.0, 1.0).m_prime() == 0.5
        assert hopping.ChainSpec(64, 2.0, 2.0, 1.0).m_prime() == 0.125

    def test_fit_against_formula(self):
        spec = hopping.ChainSpec(256, 0.3, 1.4, 0.7)
        d = hopping.dispersion(spec)
        assert d.agreement == pytest.approx(1.0, abs=0.01)

    def test_numeric_matches_analytic_spectrum(self):
        spec = hopping.ChainSpec(128, 0.5, 0.3, 1.1)
        d = hopping.dispersion(spec)
        analytic = hopping.analytic_dispersion(spec, d.k)
        assert np.max(np.abs(np.sort(d.energies) - np.sort(analytic))) <= 1e-10

    @pytest.mark.parametrize("n_sites", [256, 257, 512])
    def test_dft_spectrum_matches_dense_eigvalsh(self, n_sites):
        spec = hopping.ChainSpec(n_sites, 0.3, 1.4, 0.7)
        d = hopping.dispersion(spec)
        dense = np.linalg.eigvalsh(hopping.hamiltonian(spec))
        assert np.max(np.abs(np.sort(d.energies) - dense)) <= 1e-12
        # each DFT eigenvalue sits on its own mode, with no reordering
        analytic = hopping.analytic_dispersion(spec, d.k)
        assert np.max(np.abs(d.energies - analytic)) <= 1e-12

    def test_symmetry_and_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            spec = hopping.ChainSpec(int(rng.integers(64, 257) // 2 * 2),
                                     float(rng.uniform(0.1, 2.0)),
                                     float(rng.uniform(-1, 1)),
                                     float(rng.uniform(0.2, 2.0)))
            d = hopping.dispersion(spec, fit_window=0.5)
            e_of = dict(zip(d.k.tolist(), d.energies.tolist()))
            for k, e in e_of.items():
                if -k in e_of:
                    assert abs(e_of[-k] - e) <= 1e-9
            zero = int(np.argmin(np.abs(d.k)))
            assert d.energies[zero] == pytest.approx(float(d.energies.min()),
                                                     abs=1e-12)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            hopping.ChainSpec(8, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            hopping.ChainSpec(64, 1.0, 0.0, -1.0)


class TestCirculantGroundState:
    @pytest.mark.parametrize("n_sites", [64, 512])
    @pytest.mark.parametrize("shift", [0.0, 0.37, 0.7])
    def test_lowest_mode_is_uniform(self, n_sites, shift):
        # periodic chain plus a constant diagonal is circulant: the dense
        # eigensolver's lowest eigenvector is the k = 0 mode 1/sqrt(N b)
        spec = hopping.ChainSpec(n_sites, 0.25, 2 * 0.9, 0.9)
        _, vecs = np.linalg.eigh(hopping.hamiltonian(spec, constant_shift=shift))
        g = hopping.AmplitudeVector(vecs[:, 0]).normalized(spec.b).values
        g = g * np.sign(g[0].real)
        uniform = 1 / math.sqrt(n_sites * spec.b)
        assert np.max(np.abs(g - uniform)) <= 1e-12

    def test_returned_state_is_uniform(self):
        spec = hopping.ChainSpec(512, 0.25, 1.8, 0.9)
        half_extent = (spec.n_sites // 2) * spec.b
        kern = hopping.NonlocalKernel.for_chain(spec, half_extent / 2 - 8 * spec.b)
        _, psi, _ = hopping.self_consistent_mass(spec, kern, gaussian_amplitudes(spec))
        uniform = 1 / math.sqrt(spec.n_sites * spec.b)
        assert np.max(np.abs(psi.values - uniform)) <= 1e-12


class TestSelfConsistentMass:
    def test_uniform_window_one_iteration(self):
        spec = hopping.ChainSpec(512, 0.25, 1.8, 0.9)
        em, _, history = hopping.self_consistent_mass(
            spec, whole_chain_kernel(spec), gaussian_amplitudes(spec))
        assert em.m0 == pytest.approx(1.0, rel=1e-12)
        assert em.iterations == 1
        assert em.converged

    def test_constant_shift_commutes_with_spectrum(self):
        spec = hopping.ChainSpec(64, 0.5, 2 * 1.0, 1.0)
        free = np.linalg.eigvalsh(hopping.hamiltonian(spec))
        shifted = np.linalg.eigvalsh(hopping.hamiltonian(spec, constant_shift=1.0))
        assert np.max(np.abs(shifted - (free + 1.0))) <= 1e-12

    def test_windowed_fixed_point(self):
        spec = hopping.ChainSpec(512, 0.25, 1.8, 0.9)
        half_extent = (spec.n_sites // 2) * spec.b
        kern = hopping.NonlocalKernel.for_chain(spec, half_extent / 2 - 8 * spec.b)
        em, psi, history = hopping.self_consistent_mass(
            spec, kern, gaussian_amplitudes(spec))
        assert em.converged
        assert 0.0 < em.m0 < 1.0
        m0_seq = [h[1] for h in history]
        assert all(m0_seq[i + 1] <= m0_seq[i] + 1e-15 for i in range(len(m0_seq) - 1))
        assert history[-1][2] <= 1e-8

        # oracle: scan the m0 -> window-integral map with a dense eigensolver;
        # the fixed point is unique and matches the iterated one
        u = kern.u(spec.coordinates())
        kinetic = hopping.ChainSpec(spec.n_sites, spec.b, 2 * spec.a, spec.a)

        def window_integral(m0):
            h = hopping.hamiltonian(kinetic, constant_shift=m0)
            _, vecs = np.linalg.eigh(h)
            g = vecs[:, 0]
            g = g / math.sqrt(float(np.sum(np.abs(g) ** 2)) * spec.b)
            return float(np.dot(np.abs(g) ** 2, u) * spec.b)

        grid = np.linspace(0.05, 0.95, 10)
        gap = [window_integral(m) - m for m in grid]
        signs = np.sign(gap)
        assert int(np.sum(signs[:-1] != signs[1:])) == 1
        assert em.m0 == pytest.approx(window_integral(em.m0), abs=2e-8)

    def test_phase_rotation_invariance(self):
        spec = hopping.ChainSpec(256, 0.25, 1.8, 0.9)
        kern = whole_chain_kernel(spec)
        psi = gaussian_amplitudes(spec)
        rotated = hopping.AmplitudeVector(psi.values * np.exp(0.731j))
        em_a, _, _ = hopping.self_consistent_mass(spec, kern, psi)
        em_b, _, _ = hopping.self_consistent_mass(spec, kern, rotated)
        assert em_a.m0 == em_b.m0

    def test_zero_mode_eigenvalue_equals_m0(self):
        # with E0 = 2A the free band starts at zero, so the k = 0 eigenvalue
        # of the linearized Hamiltonian is exactly m0
        spec = hopping.ChainSpec(512, 0.25, 1.8, 0.9)
        half_extent = (spec.n_sites // 2) * spec.b
        kern = hopping.NonlocalKernel.for_chain(spec, half_extent / 2 - 8 * spec.b)
        em, _, _ = hopping.self_consistent_mass(spec, kern, gaussian_amplitudes(spec))
        h = hopping.hamiltonian(hopping.ChainSpec(spec.n_sites, spec.b, 2 * spec.a,
                                                  spec.a), constant_shift=em.m0)
        assert float(np.linalg.eigvalsh(h)[0]) == pytest.approx(em.m0, rel=1e-8)

    def test_nonconvergence_flagged(self):
        spec = hopping.ChainSpec(256, 0.25, 1.8, 0.9)
        half_extent = (spec.n_sites // 2) * spec.b
        kern = hopping.NonlocalKernel.for_chain(spec, half_extent / 2 - 8 * spec.b)
        em, psi, history = hopping.self_consistent_mass(
            spec, kern, gaussian_amplitudes(spec), max_iter=1)
        assert not em.converged
        assert em.iterations == 1
        assert np.isfinite(em.m0)

    def test_kernel_outside_chain_rejected(self):
        spec = hopping.ChainSpec(64, 0.5, 1.8, 0.9)
        kern = hopping.NonlocalKernel(r_w=14.0, w=2.0)  # 14 + 8 > 16
        with pytest.raises(ValueError, match="beyond the chain"):
            hopping.self_consistent_mass(spec, kern, gaussian_amplitudes(spec))


class TestEmergentHamiltonianCheck:
    def setup_method(self):
        spec = hopping.ChainSpec(512, 0.25, 1.8, 0.9)
        self.em, _, _ = hopping.self_consistent_mass(
            spec, whole_chain_kernel(spec), gaussian_amplitudes(spec))

    def test_small_momentum_bound(self):
        mc = self.em.m * self.em.c
        checks, dev = hopping.emergent_hamiltonian_check(self.em, 0.1 * mc)
        # oracle: the quartic Taylor remainder at u = (p/mc)^2 = 0.01,
        # 1 + u/2 - sqrt(1 + u)
        oracle = 1 + 0.01 / 2 - math.sqrt(1.01)
        assert dev == pytest.approx(oracle, rel=1e-6)
        assert dev <= 1.5e-5
        assert all(c.passed for c in checks)

    def test_rest_energy_exact(self):
        mc = self.em.m * self.em.c
        checks, _ = hopping.emergent_hamiltonian_check(self.em, 0.5 * mc)
        by_id = {c.id: c for c in checks}
        assert by_id["rest-energy-at-p-zero"].computed == 1.0

    def test_luminal_momentum_deviation(self):
        mc = self.em.m * self.em.c
        _, dev = hopping.emergent_hamiltonian_check(self.em, mc)
        # oracle: direct evaluation, 3/2 - sqrt(2)
        assert dev == pytest.approx(1.5 - math.sqrt(2.0), rel=1e-9)
        assert dev > 1.5e-5  # fails the small-momentum tolerance, as it should

    def test_requires_convergence(self):
        bad = hopping.EmergentMass(m0=0.5, m_prime=1.0, c=1.0, iterations=500,
                                   converged=False)
        with pytest.raises(ValueError, match="converge"):
            hopping.emergent_hamiltonian_check(bad, 0.1)


class TestChainEvolution:
    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            hopping.AmplitudeVector(np.zeros(16)).normalized(1.0)
