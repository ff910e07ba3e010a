import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qmbh_lab import lin_gravity as lg
from qmbh_lab.constants import BUILTIN_PARTICLES, CGS, ParticleSpec

ELECTRON = BUILTIN_PARTICLES["electron"]


def electron_ring(n=1024):
    return lg.ShellSource.ring(ELECTRON.mass, lg.default_radius(ELECTRON), n, CGS.c)


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


class TestMassIntegral:
    def test_sphere_recovers_mass(self):
        s = lg.ShellSource.sphere(ELECTRON.mass, 1.0, 10000, CGS.c)
        assert lg.mass_integral(s) == pytest.approx(ELECTRON.mass, rel=1e-12)

    @pytest.mark.parametrize("particle", ["electron", "proton", "muon", "charm"])
    def test_luminal_ring_recovers_mass_exactly(self, particle):
        # 1024 equal elements of m / 1024, summed exactly
        p = BUILTIN_PARTICLES[particle]
        ring = lg.ShellSource.ring(p.mass, lg.default_radius(p), 1024, CGS.c)
        assert lg.mass_integral(ring) == p.mass

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

    @pytest.mark.parametrize("particle", ["electron", "proton", "muon", "charm"])
    def test_double_radius_doubles_spin_exactly(self, particle):
        # doubling the radius scales every position, lever arm and product by
        # a power of two, and the element sum is exact
        p = BUILTIN_PARTICLES[particle]
        radius = lg.default_radius(p)
        ring, ring2 = (lg.ShellSource.ring(p.mass, f * radius, 1024, CGS.c)
                       for f in (1, 2))
        assert lg.spin_integral(ring2) == 2 * lg.spin_integral(ring)

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


def exact_least_squares_pair(p, q, y):
    """Oracle: the least-squares (a, b) of y ~ a p + b q in rational
    arithmetic over the float64 data, by Cramer's rule, rounded once."""
    p, q, y = ([Fraction(v) for v in a.tolist()] for a in (p, q, y))
    pp, pq, qq, py, qy = (sum(a * b for a, b in zip(u, v))
                          for u, v in ((p, p), (p, q), (q, q), (p, y), (q, y)))
    det = pp * qq - pq * pq
    return float((py * qq - pq * qy) / det), float((pp * qy - pq * py) / det)


class TestShellTraceA0:
    @pytest.mark.parametrize("particle", ["electron", "proton", "muon", "charm"])
    @pytest.mark.parametrize("n", [13, 15, 17])
    def test_slope_is_exact_least_squares_rounded_once(self, particle, n):
        p = BUILTIN_PARTICLES[particle]
        radius = lg.default_radius(p)
        s = lg.ShellSource.ring(p.mass, radius, 1024, CGS.c)
        r_values = np.geomspace(100 * radius, 1e4 * radius, n)
        a0, slope, _ = lg.shell_trace_a0(s, r_values)
        log_r = np.log(r_values)
        _, exact = exact_least_squares_pair(np.ones_like(log_r), log_r, np.log(np.abs(a0)))
        assert slope == exact

    @pytest.mark.parametrize("r_values", [[3e-9], [2e-9] * 4])
    def test_fewer_than_two_distinct_radii_rejected(self, r_values):
        with pytest.raises(ValueError, match=re.escape(f"2 distinct radii; got {r_values}")):
            lg.shell_trace_a0(electron_ring(), r_values)

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


def probe_terms(s, probe):
    """m_i / |x_i - probe| for each element, from a per-probe np.linalg.norm."""
    return s.masses / np.linalg.norm(s.positions - probe, axis=1)


def ray(r_values, theta):
    """The probes (r sin(theta), 0, r cos(theta)) of far_potential."""
    return [np.array([r * math.sin(theta), 0.0, r * math.cos(theta)]) for r in r_values]


def equator(r_values):
    """The probes (r, 0, 0) of shell_trace_a0."""
    return [np.array([r, 0.0, 0.0]) for r in r_values]


def trace_factor(s):
    return 2 * (1 + CGS.c) * 2 * s.omega * (CGS.c**2 - 1) * CGS.G


# NumPy's pairwise sum of n <= 16384 positive terms rounds at most
# 16 + 3 + log2(n / 128) = 26 times along any path, and the potential takes
# one more product: 27 roundings of at most eps each, inside 32 eps
PROBE_SUM_RTOL = 32 * np.finfo(np.float64).eps


class TestBatchedSums:
    # each batched term has the bits of the per-probe norm and each row is
    # reduced alone, so the results equal the per-probe loop's .sum(), not
    # just close

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
            assert batched.tolist() == [-CGS.G * probe_terms(s, q).sum()
                                        for q in ray(r_values, theta)]
            for r, phi in zip(r_values, batched):
                scalar = lg.far_potential(s, float(r), theta)
                assert type(scalar) is float and scalar == phi

    def test_trace_a0_matches_per_probe_loop(self, sources):
        for s in sources:
            r_values = np.geomspace(100 * s.radius, 1e4 * s.radius, 17)
            a0, _, _ = lg.shell_trace_a0(s, r_values)
            assert a0.tolist() == [trace_factor(s) * probe_terms(s, q).sum()
                                   for q in equator(r_values)]

    @pytest.mark.parametrize("particle", ["electron", "proton", "muon", "charm"])
    # the luminal ring, the default sphere and the largest shell-spin accepts
    @pytest.mark.parametrize("shape, n", [("ring", 1024), ("sphere", 10000),
                                          ("sphere", 16384)])
    def test_probe_sums_within_32_eps_of_fsum(self, particle, shape, n):
        # oracle: math.fsum of each probe's terms, exact and rounded once
        p = BUILTIN_PARTICLES[particle]
        radius = lg.default_radius(p)
        s = getattr(lg.ShellSource, shape)(p.mass, radius, n, CGS.c)
        r_values = np.geomspace(100 * radius, 1e4 * radius, 13)

        def within_bound(computed, factor, probes):
            exact = factor * np.array([math.fsum(probe_terms(s, q).tolist()) for q in probes])
            return np.abs(computed / exact - 1).max() <= PROBE_SUM_RTOL

        for theta in (0.0, 1.0, math.pi / 2):
            phi = lg.far_potential(s, r_values, theta)
            assert within_bound(phi, -CGS.G, ray(r_values, theta))
        a0, _, _ = lg.shell_trace_a0(s, r_values)
        assert within_bound(a0, trace_factor(s), equator(r_values))

    def test_element_sums_match_list_fsum(self, sources):
        for s in sources:
            assert lg.mass_integral(s) == math.fsum(s.masses.tolist())
            lever = np.hypot(s.positions[:, 0], s.positions[:, 1])
            assert lg.spin_integral(s) == math.fsum((s.masses * lever).tolist()) * s.speed

    def test_any_near_probe_rejected(self):
        s = electron_ring()
        with pytest.raises(ValueError, match="near zone"):
            lg.far_potential(s, np.array([1e4, 50.0, 1e3]) * s.radius)


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

    @pytest.mark.parametrize("mass", [0.065, 0.5, 1.8, 1.95])
    def test_fit_is_exact_rational_solve(self, mass):
        r_m = 1 / (2 * mass)
        src = lg.ShellSource.ring(mass, r_m, 256, 1.0)
        samples = np.geomspace(0.1 * r_m, 10 * r_m, 16)
        fit = lg.confinement_expansion(src, mass, samples)
        h = lg.confinement_profile(mass, samples)
        alpha, sigma = exact_least_squares_pair(1.0 / samples, samples, h)
        assert abs(fit.alpha_c - alpha) <= np.spacing(abs(alpha))
        assert abs(fit.sigma_l - sigma) <= np.spacing(abs(sigma))

    def test_equal_radii_rejected(self):
        message = "2 distinct; got [0.25, 0.25, 0.25, 0.25]"
        with pytest.raises(ValueError, match=re.escape(message)):
            lg.confinement_expansion(self.source, self.mass, np.full(4, 0.25))

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
