import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmbh_lab import hopping


def gaussian_amplitudes(spec, width_sites=6.0):
    x = spec.coordinates()
    return hopping.AmplitudeVector(np.exp(-x**2 / (2 * (width_sites * spec.b) ** 2)))


def whole_chain_kernel(spec):
    return hopping.NonlocalKernel((spec.n_sites // 2) * spec.b * 1.5, spec.b)


def hamiltonian(spec, constant_shift=0.0):
    """Oracle: the dense periodic chain, E0 + shift on the diagonal, -A off it."""
    n = spec.n_sites
    h = np.zeros((n, n))
    np.fill_diagonal(h, spec.e0 + constant_shift)
    idx = np.arange(n)
    h[idx, (idx + 1) % n] = -spec.a
    h[idx, (idx - 1) % n] = -spec.a
    return h


def analytic_dispersion(spec, k):
    """Oracle: the band E(k) = E0 - 2A cos(k b)."""
    return spec.e0 - 2 * spec.a * np.cos(k * spec.b)


def exact_curvature_mass(k, e):
    """Oracle: hbar^2 over twice the k^2 coefficient of the least-squares
    quadratic through (k, E), eliminated in rational arithmetic over the
    float64 data."""
    k, e = [Fraction(v) for v in k.tolist()], [Fraction(v) for v in e.tolist()]
    cols = [[Fraction(1)] * len(k), k, [v * v for v in k]]
    rows = [[sum(a * b for a, b in zip(u, v)) for v in cols + [e]] for u in cols]
    for i in range(3):
        for j in range(i + 1, 3):
            f = rows[j][i] / rows[i][i]
            rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    return float(rows[2][2] / (2 * rows[2][3]))


class TestDispersion:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(st.integers(128, 4096), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3),
           st.floats(1e-3, 1e3))
    def test_curvature_mass_is_exact_least_squares(self, n_sites, b, e0, a):
        d = hopping.dispersion(hopping.ChainSpec(n_sites, b, e0, a))
        sel = np.abs(d.k * b) <= 0.1
        exact = exact_curvature_mass(d.k[sel], d.energies[sel])
        assert d.m_prime_fit == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", [(256, 0.3, 1.4, 0.7), (128, 0.5, 0.3, 1.1),
                                      (4096, 2.0, -5.0, 3.0)])
    def test_curvature_mass_matches_polyfit(self, spec):
        # polyfit itself is off by up to 7e-8 relative where E0 dwarfs the
        # band (|E0| = 1e3, A = 1e-3); these chains are well inside that
        spec = hopping.ChainSpec(*spec)
        d = hopping.dispersion(spec)
        sel = np.abs(d.k * spec.b) <= 0.1
        curvature = 2 * np.polyfit(d.k[sel], d.energies[sel], 2)[0]
        assert d.m_prime_fit == pytest.approx(1 / curvature, rel=1e-12, abs=0)

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
        analytic = analytic_dispersion(spec, d.k)
        assert np.max(np.abs(np.sort(d.energies) - np.sort(analytic))) <= 1e-10

    @pytest.mark.parametrize("n_sites", [256, 257, 512])
    def test_dft_spectrum_matches_dense_eigvalsh(self, n_sites):
        spec = hopping.ChainSpec(n_sites, 0.3, 1.4, 0.7)
        d = hopping.dispersion(spec)
        assert np.array_equal(d.energies, hopping.spectrum(spec))
        k = hopping.mode_wavenumbers(spec)
        for shift in (0.0, 0.37, 0.7):
            energies = hopping.spectrum(
                hopping.ChainSpec(n_sites, spec.b, spec.e0 + shift, spec.a))
            dense = np.linalg.eigvalsh(hamiltonian(spec, constant_shift=shift))
            assert np.max(np.abs(np.sort(energies) - dense)) <= 1e-12
            # each DFT eigenvalue sits on its own mode, with no reordering
            analytic = analytic_dispersion(spec, k) + shift
            assert np.max(np.abs(energies - analytic)) <= 1e-12

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
        _, vecs = np.linalg.eigh(hamiltonian(spec, constant_shift=shift))
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
        free = np.linalg.eigvalsh(hamiltonian(spec))
        shifted = np.linalg.eigvalsh(hamiltonian(spec, constant_shift=1.0))
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
            h = hamiltonian(kinetic, constant_shift=m0)
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

    def test_luminal_momentum_deviation(self):
        mc = self.em.m * self.em.c
        _, dev = hopping.emergent_hamiltonian_check(self.em, mc)
        # oracle: direct evaluation, 3/2 - sqrt(2)
        assert dev == pytest.approx(1.5 - math.sqrt(2.0), rel=1e-9)
        assert dev > 1.5e-5  # fails the small-momentum tolerance, as it should

    def test_requires_convergence(self):
        bad = hopping.EmergentMass(m0=0.5, m_prime=1.0, iterations=500, converged=False)
        with pytest.raises(ValueError, match="converge"):
            hopping.emergent_hamiltonian_check(bad, 0.1)


class TestChainEvolution:
    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            hopping.AmplitudeVector(np.zeros(16)).normalized(1.0)
