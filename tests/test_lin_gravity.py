import math

import numpy as np
import pytest

from qmbh_lab import lin_gravity as lg
from qmbh_lab.constants import BUILTIN_PARTICLES, CGS, ParticleSpec

ELECTRON = BUILTIN_PARTICLES["electron"]


def electron_ring(n=1024, radius_factor=1.0):
    r = lg.default_radius(ELECTRON) * radius_factor
    return lg.ShellSource.ring(ELECTRON.mass, r, n, CGS.c)


class TestSources:
    def test_ring_element_budget(self):
        s = electron_ring()
        assert s.n_elements == 1024
        assert np.all(np.isclose(np.linalg.norm(s.positions, axis=1), s.radius,
                                 rtol=1e-12))

    def test_sphere_element_budget(self):
        s = lg.ShellSource.sphere(1.0, 2.0, 5000, 3.0)
        assert np.allclose(np.linalg.norm(s.positions, axis=1), 2.0, rtol=1e-12)

    def test_omega(self):
        s = electron_ring()
        assert s.omega == pytest.approx(2 * ELECTRON.mass * CGS.c**2 / CGS.hbar,
                                        rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            lg.ShellSource.ring(0.0, 1.0, 16, 1.0)
        with pytest.raises(ValueError):
            lg.ShellSource.sphere(1.0, 1.0, 4, 1.0)
        with pytest.raises(ValueError, match="massless"):
            lg.default_radius(BUILTIN_PARTICLES["neutrino"])


class TestMassIntegral:
    def test_ring_recovers_mass(self):
        assert lg.mass_integral(electron_ring()) == pytest.approx(ELECTRON.mass,
                                                                  rel=1e-12)

    def test_sphere_recovers_mass(self):
        s = lg.ShellSource.sphere(ELECTRON.mass, 1.0, 10000, CGS.c)
        assert lg.mass_integral(s) == pytest.approx(ELECTRON.mass, rel=1e-12)

    def test_linearity(self):
        full = electron_ring()
        half = lg.ShellSource.ring(ELECTRON.mass / 2, full.radius, 1024, CGS.c)
        assert lg.mass_integral(half) == pytest.approx(lg.mass_integral(full) / 2,
                                                       rel=1e-12)


class TestSpinIntegral:
    def test_ring_gives_half_hbar(self):
        assert lg.spin_integral(electron_ring()) == pytest.approx(CGS.hbar / 2,
                                                                  rel=1e-6)

    def test_sphere_gives_pi_eighths_hbar(self):
        s = lg.ShellSource.sphere(ELECTRON.mass, lg.default_radius(ELECTRON),
                                  10000, CGS.c)
        spin = lg.spin_integral(s)
        assert spin == pytest.approx(math.pi * CGS.hbar / 8, rel=1e-4)
        assert spin == pytest.approx(0.3927 * CGS.hbar, rel=1e-3)

    def test_sphere_quadrature_refinement(self):
        # oracle: the shell average of sin(theta) is pi/4; refinement shrinks
        # the residual
        target = math.pi * CGS.hbar / 8
        radius = lg.default_radius(ELECTRON)
        errs = []
        for n in (1000, 10000, 100000):
            s = lg.ShellSource.sphere(ELECTRON.mass, radius, n, CGS.c)
            errs.append(abs(lg.spin_integral(s) / target - 1))
        assert errs[2] < errs[1] < errs[0]
        assert errs[1] <= 1e-4

    def test_lever_arm_linearity(self):
        assert lg.spin_integral(electron_ring(radius_factor=2.0)) == pytest.approx(
            CGS.hbar, rel=1e-6)

    def test_linearity_in_mass_and_radius(self):
        rng = np.random.default_rng(13)
        base = lg.ShellSource.ring(1.0, 1.0, 256, 2.0)
        s0 = lg.spin_integral(base)
        for _ in range(10):
            fm, fr = rng.uniform(0.1, 10.0, 2)
            scaled = lg.ShellSource.ring(float(fm), float(fr), 256, 2.0)
            assert lg.spin_integral(scaled) == pytest.approx(s0 * fm * fr, rel=1e-12)


class TestFarPotential:
    def test_monopole_limit(self):
        s = electron_ring()
        r = 1e4 * s.radius
        # oracle: multipole remainder of a ring on its axis is (R/r)^2 / 2
        assert lg.far_potential(s, r, theta=0.0) == pytest.approx(
            -CGS.G * ELECTRON.mass / r, rel=1e-8)

    def test_halving_with_distance(self):
        s = electron_ring()
        r = 5e3 * s.radius
        a = lg.far_potential(s, r)
        b = lg.far_potential(s, 2 * r)
        assert b / a == pytest.approx(0.5, rel=1e-7)

    def test_axis_vs_equator(self):
        s = electron_ring()
        r = 1e4 * s.radius
        axis = lg.far_potential(s, r, theta=0.0)
        equator = lg.far_potential(s, r, theta=math.pi / 2)
        assert abs(axis - equator) / abs(axis) <= (s.radius / r) ** 2

    def test_quadratic_error_decay(self):
        s = electron_ring()
        errors = []
        for r in (200, 400, 800, 1600):
            rr = r * s.radius
            errors.append(abs(lg.far_potential(s, rr) / (-CGS.G * ELECTRON.mass / rr)
                              - 1))
        for a, b in zip(errors, errors[1:]):
            assert b <= a / 4 * 1.2

    def test_near_zone_rejected(self):
        s = electron_ring()
        with pytest.raises(ValueError, match="near zone"):
            lg.far_potential(s, 50 * s.radius)


class TestChargeEstimate:
    def test_raw_cgs_values(self):
        checks = {c.id: c for c in lg.charge_estimate(electron_ring(), ELECTRON)}
        ratio = checks["mass-charge-cgs-ratio"]
        # oracle: direct CGS evaluation G m^2 c^5 / (e' e)
        assert ratio.computed == pytest.approx(2.7922617883448746, rel=1e-12)
        assert ratio.passed
        implied = checks["implied-charge-vs-elementary"]
        assert implied.computed == pytest.approx(1.3411804973331125e-09, rel=1e-12)
        assert implied.passed
        assert abs(math.log10(implied.computed / CGS.e)) <= 1.5

    def test_quadrature_consistency(self):
        checks = {c.id: c for c in lg.charge_estimate(electron_ring(), ELECTRON)}
        quad = checks["trace-potential-quadrature-vs-closed-form"]
        assert quad.passed
        assert quad.reference == pytest.approx(
            8 * CGS.G * ELECTRON.mass**2 * CGS.c**5 / CGS.hbar, rel=1e-15)

    def test_dimensional_mismatch_flagged(self):
        checks = lg.charge_estimate(electron_ring(), ELECTRON)
        assert any("dimensionally" in c.note for c in checks)

    def test_quadratic_mass_scaling(self):
        heavy = ParticleSpec("heavy", 10 * ELECTRON.mass, ELECTRON.charge, 0.5)
        ring = lg.ShellSource.ring(heavy.mass, lg.default_radius(heavy), 512, CGS.c)
        light = {c.id: c for c in lg.charge_estimate(electron_ring(512), ELECTRON)}
        scaled = {c.id: c for c in lg.charge_estimate(ring, heavy)}
        grow = (scaled["implied-charge-vs-elementary"].computed
                / light["implied-charge-vs-elementary"].computed)
        assert grow == pytest.approx(100.0, rel=1e-12)


class TestShellTraceA0:
    def test_inverse_distance_falloff(self):
        s = electron_ring()
        r_values = np.geomspace(100 * s.radius, 1e4 * s.radius, 15)
        a0, slope, coeff = lg.shell_trace_a0(s, r_values)
        assert slope == pytest.approx(-1.0, abs=0.02)

    def test_coefficient_matches_quadrature_path(self):
        s = electron_ring()
        r_values = np.geomspace(100 * s.radius, 1e4 * s.radius, 15)
        _, _, coeff = lg.shell_trace_a0(s, r_values)
        quad = {c.id: c for c in lg.charge_estimate(s, ELECTRON)}[
            "trace-potential-quadrature-vs-closed-form"].computed
        assert 1.0 / 3.0 <= coeff / quad <= 3.0


def per_probe_sum(s, probe):
    """Oracle: the per-probe loop the batched sums replaced, fsum of
    m_i / |x_i - probe| over a Python list."""
    dist = np.linalg.norm(s.positions - probe, axis=1)
    return math.fsum((s.masses / dist).tolist())


class TestBatchedSums:
    # each batched term has the bits of the per-probe norm and every row sum
    # is exact, so the results are equal, not close

    @pytest.fixture(params=["electron", "proton", "muon", "charm"])
    def sources(self, request):
        p = BUILTIN_PARTICLES[request.param]
        radius = lg.default_radius(p)
        return (lg.ShellSource.ring(p.mass, radius, 1024, CGS.c),
                lg.ShellSource.sphere(p.mass, radius, 10000, CGS.c))

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi / 2])
    def test_far_potential_matches_per_probe_loop(self, sources, theta):
        for s in sources:
            r_values = np.geomspace(100 * s.radius, 1e4 * s.radius, 13)
            batched = lg.far_potential(s, r_values, theta)
            for r, phi in zip(r_values, batched):
                probe = np.array([r * math.sin(theta), 0.0, r * math.cos(theta)])
                assert phi == -CGS.G * per_probe_sum(s, probe)
                scalar = lg.far_potential(s, float(r), theta)
                assert type(scalar) is float and scalar == phi

    def test_trace_a0_matches_per_probe_loop(self, sources):
        for s in sources:
            r_values = np.geomspace(100 * s.radius, 1e4 * s.radius, 17)
            a0, _, _ = lg.shell_trace_a0(s, r_values)
            factor = 2 * (1 + CGS.c) * 2 * s.omega * (CGS.c**2 - 1) * CGS.G
            assert a0.tolist() == [factor * per_probe_sum(s, np.array([r, 0.0, 0.0]))
                                   for r in r_values]

    def test_element_sums_match_list_fsum(self, sources):
        for s in sources:
            assert lg.mass_integral(s) == math.fsum(s.masses.tolist())
            lever = np.hypot(s.positions[:, 0], s.positions[:, 1])
            assert lg.spin_integral(s) == math.fsum((s.masses * lever).tolist()) * s.speed

    def test_any_near_probe_rejected(self):
        s = electron_ring()
        with pytest.raises(ValueError, match="near zone"):
            lg.far_potential(s, np.array([1e4, 50.0, 1e3]) * s.radius)


class TestWeylFields:
    @staticmethod
    def grid_omega(fn, n=32, lo=0.6, hi=1.6, nt=5, dt=0.01):
        ax = np.linspace(lo, hi, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        omega = np.stack([fn(i * dt, x, y, z) for i in range(nt)])
        return omega, dt, (ax[1] - ax[0],) * 3, (x, y, z)

    def test_gradient_field_has_no_curl(self):
        omega, dt, sp, _ = self.grid_omega(
            lambda t, x, y, z: (1 + 0.5 * t) * np.sin(x) * np.cos(y) * z)
        w = lg.weyl_em_fields(omega, dt, sp)
        assert np.max(np.abs(w.b_field)) <= 1e-10 * np.max(np.abs(w.e_field))

    def test_static_field_is_inert(self):
        omega, dt, sp, _ = self.grid_omega(lambda t, x, y, z: np.sin(x * y) + z)
        w = lg.weyl_em_fields(omega, dt, sp)
        assert np.max(np.abs(w.phi)) == 0.0
        assert np.max(np.abs(w.e_field)) == 0.0

    def test_doubled_coulomb(self):
        q = 2.5
        omega, dt, sp, (x, y, z) = self.grid_omega(
            lambda t, xx, yy, zz: t * q / np.sqrt(xx**2 + yy**2 + zz**2))
        w = lg.weyl_em_fields(omega, dt, sp)
        r = np.sqrt(x**2 + y**2 + z**2)
        e_mag = np.sqrt((w.e_field**2).sum(axis=0))
        core = (slice(4, -4),) * 3
        assert np.max(np.abs(e_mag[core] / (2 * q / r**2)[core] - 1)) <= 1e-2
        assert w.doubling_residual <= 1e-10
        assert w.doubling_factor == 2.0


class TestConfinement:
    def setup_method(self):
        self.mass = 1.8  # GeV in natural units hbar = c = 1
        self.r_m = 1 / (2 * self.mass)
        self.source = lg.ShellSource.ring(self.mass, self.r_m, 256, 1.0)
        self.samples = np.geomspace(0.1 * self.r_m, 10 * self.r_m, 16)

    def test_charm_ratio(self):
        fit = lg.confinement_expansion(self.source, self.mass, self.samples)
        assert fit.ratio_closed_form == pytest.approx(25.92, rel=1e-12)
        assert fit.ratio == pytest.approx(fit.ratio_closed_form, rel=0.01)
        assert abs(math.log10(fit.ratio / 1.0)) <= 1.5

    def test_quadratic_mass_scaling(self):
        m2 = 2 * self.mass
        src = lg.ShellSource.ring(m2, 1 / (2 * m2), 256, 1.0)
        samples = np.geomspace(0.1 / (2 * m2), 10 / (2 * m2), 16)
        fit2 = lg.confinement_expansion(src, m2, samples)
        fit1 = lg.confinement_expansion(self.source, self.mass, self.samples)
        assert fit2.ratio / fit1.ratio == pytest.approx(4.0, rel=1e-12)

    def test_no_spurious_confinement(self):
        h = lg.confinement_profile(self.mass, self.samples, include_linear=False)
        basis = np.stack([1.0 / self.samples, self.samples], axis=1)
        coef, *_ = np.linalg.lstsq(basis, h, rcond=None)
        assert abs(coef[1]) <= 1e-10 * abs(coef[0])

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            lg.confinement_expansion(self.source, self.mass, self.samples[:3])
        with pytest.raises(ValueError, match="within"):
            lg.confinement_expansion(self.source, self.mass,
                                     np.array([0.01, 0.2, 0.5, 1.0]) * self.r_m)

    def test_mismatched_source_rejected(self):
        wrong = lg.ShellSource.ring(self.mass, 2 * self.r_m, 256, 1.0)
        with pytest.raises(ValueError, match="rotation rate"):
            lg.confinement_expansion(wrong, self.mass, self.samples)
