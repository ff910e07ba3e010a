import math

import numpy as np
import pytest

from qmbh_lab import kerr_newman as kn
from qmbh_lab.constants import BUILTIN_PARTICLES, CGS, ParticleSpec

ELECTRON = BUILTIN_PARTICLES["electron"]

# geometrized electron scales from the pinned constants table
ELECTRON_M_STAR = 6.764774332023642e-56
ELECTRON_A_STAR = 1.930796338621417e-11
ELECTRON_Q_STAR = 1.3806784693441786e-34


def synthetic_params(m_star, q_star, a_star):
    """Invert the geometrization so the derived lengths land where asked."""
    mass = m_star * CGS.c**2 / CGS.G
    charge = q_star * CGS.c**2 / math.sqrt(CGS.G)
    ang = a_star * mass * CGS.c
    return kn.KNParams(mass=mass, charge=charge, angular_momentum=ang)


class TestGeometrization:
    def test_electron_lengths(self):
        p = kn.KNParams.from_particle(ELECTRON)
        assert p.m_star == pytest.approx(ELECTRON_M_STAR, rel=1e-12)
        assert p.a_star == pytest.approx(ELECTRON_A_STAR, rel=1e-12)
        assert abs(p.q_star) == pytest.approx(ELECTRON_Q_STAR, rel=1e-12)

    def test_spin_default(self):
        p = kn.KNParams.from_particle(ELECTRON)
        assert p.angular_momentum == CGS.hbar / 2

    def test_mass_validation(self):
        with pytest.raises(ValueError, match="mass"):
            kn.KNParams(mass=0.0, charge=0.0, angular_momentum=0.0)


class TestHorizons:
    def test_electron_complex_horizon(self):
        h = kn.horizons(kn.KNParams.from_particle(ELECTRON))
        assert h.naked
        assert h.r_plus.real == pytest.approx(ELECTRON_M_STAR, rel=1e-3)
        assert h.r_plus.imag == pytest.approx(1.930796338621417e-11, rel=1e-3)

    def test_schwarzschild_limit(self):
        p = synthetic_params(1.0, 0.0, 0.0)
        h = kn.horizons(p)
        assert not h.naked
        assert h.r_plus == pytest.approx(2.0, rel=1e-12)
        assert h.r_minus == pytest.approx(0.0, abs=1e-12)

    def test_extremal_degenerate_root(self):
        p = synthetic_params(1.0, 0.0, 1.0)
        h = kn.horizons(p)
        assert not h.naked
        assert h.r_plus == pytest.approx(1.0, rel=1e-12)
        assert h.r_minus == pytest.approx(1.0, rel=1e-12)

    def test_root_identities_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, q, a = rng.uniform(0.1, 2.0, 3)
            p = synthetic_params(float(m), float(q), float(a))
            h = kn.horizons(p)
            s = h.r_plus + h.r_minus
            prod = h.r_plus * h.r_minus
            assert s.real == pytest.approx(2 * p.m_star, rel=1e-12)
            assert abs(s.imag) <= 1e-12 * abs(s.real)
            assert abs(prod) == pytest.approx(p.q_star**2 + p.a_star**2, rel=1e-10)
            # naked predicate consistent with the complex branch
            assert h.naked == (abs(h.r_plus.imag) > 0)


class TestFarFields:
    def test_electron_dipole_magnitude(self):
        p = kn.KNParams.from_particle(ELECTRON)
        s = kn.far_fields(p, 1.0, math.pi / 2)
        # e * a* is the Bohr-magneton value
        assert abs(s.b_theta) == pytest.approx(9.274010067717145e-21, rel=1e-9)
        assert abs(s.b_r) <= 1e-12 * abs(s.b_theta)
        assert abs(s.e_r) == pytest.approx(CGS.e, rel=1e-9)
        assert s.phi_grav == pytest.approx(-CGS.G * ELECTRON.mass, rel=1e-12)

    def test_axis_geometry(self):
        p = kn.KNParams.from_particle(ELECTRON)
        s = kn.far_fields(p, 2.0, 0.0)
        assert s.b_theta == 0.0
        assert abs(s.b_r) == pytest.approx(2 * CGS.e * p.a_star / 8, rel=1e-12)

    def test_power_laws(self):
        p = kn.KNParams.from_particle(ELECTRON)
        near = kn.far_fields(p, 1.0, 1.0)
        far = kn.far_fields(p, 2.0, 1.0)
        assert far.phi_grav / near.phi_grav == pytest.approx(0.5, rel=1e-12)
        assert far.e_r / near.e_r == pytest.approx(0.25, rel=1e-12)
        assert far.b_r / near.b_r == pytest.approx(0.125, rel=1e-12)
        assert far.b_theta / near.b_theta == pytest.approx(0.125, rel=1e-12)

    def test_near_zone_rejected(self):
        p = kn.KNParams.from_particle(ELECTRON)
        with pytest.raises(ValueError, match="near zone"):
            kn.far_fields(p, 50 * p.a_star, 1.0)

    def test_dipole_is_divergence_free(self):
        p = kn.KNParams.from_particle(ELECTRON)
        for theta in np.linspace(0.05, math.pi - 0.05, 25):
            assert kn.div_b_residual(p, 1.0, float(theta)) <= 1e-8

    def test_dipole_component_structure(self):
        # B_r / B_theta = 2 cos(theta)/sin(theta) at fixed r, away from poles
        p = kn.KNParams.from_particle(ELECTRON)
        for theta in np.linspace(0.3, math.pi - 0.3, 9):
            s = kn.far_fields(p, 3.0, float(theta))
            assert s.b_r / s.b_theta == pytest.approx(
                2 * math.cos(theta) / math.sin(theta), rel=1e-12)


class TestGFactor:
    def test_electron(self):
        p = kn.KNParams.from_particle(ELECTRON)
        assert kn.g_factor(p) == pytest.approx(2.0, rel=1e-12)

    def test_parameter_independence(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            mass = float(np.exp(rng.uniform(-30, 5)))
            charge = float(rng.uniform(0.1, 5.0)) * CGS.e
            ang = float(np.exp(rng.uniform(-30, 5)))
            p = kn.KNParams(mass=mass, charge=charge, angular_momentum=ang)
            assert kn.g_factor(p) == pytest.approx(2.0, rel=1e-12)

    def test_scale_invariance(self):
        base = kn.KNParams(mass=1e-20, charge=3 * CGS.e, angular_momentum=1e-26)
        for s in (1e-6, 1.0, 1e6):
            scaled = kn.KNParams(mass=s * base.mass, charge=s * base.charge,
                                 angular_momentum=s * base.angular_momentum)
            assert kn.g_factor(scaled) == pytest.approx(kn.g_factor(base), rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="angular momentum"):
            kn.g_factor(kn.KNParams(mass=1.0, charge=1.0, angular_momentum=0.0))
        with pytest.raises(ValueError, match="charge"):
            kn.g_factor(kn.KNParams(mass=1.0, charge=0.0, angular_momentum=1.0))


class TestMetricSlice:
    def test_corotating_half_slice(self):
        a = 1.0
        s = kn.metric_slice(a, 1e-8 * a, 1e-8 * a, a, math.pi / 2, 0.5)
        assert s.dt2_coeff == pytest.approx(-0.5, abs=1e-6)
        assert s.dr2_coeff == pytest.approx(0.5, abs=1e-6)
        assert s.doubling_factor == 2.0

    def test_null_slice(self):
        a = 1.0
        s = kn.metric_slice(a, 1e-8 * a, 1e-8 * a, a, math.pi / 2, 1 / math.sqrt(2))
        assert abs(s.dt2_coeff) <= 1e-6

    def test_general_lambda_quadratic(self):
        # with m = e = 0 exactly, the dt^2 coefficient is 2 lam^2 - 1 at r = a
        a = 2.0
        for lam in (0.2, 0.5, 0.9, 1.3):
            s = kn.metric_slice(a, 0.0, 0.0, a, math.pi / 2, lam)
            assert s.dt2_coeff == pytest.approx(2 * lam**2 - 1, abs=1e-12)
            assert s.dr2_coeff == pytest.approx(0.5, rel=1e-12)

    def test_singular_point_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            kn.metric_slice(1.0, 1e-8, 1e-8, 0.0, math.pi / 2, 0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="lam"):
            kn.metric_slice(1.0, 0.0, 0.0, 1.0, math.pi / 2, 0.0)
        with pytest.raises(ValueError, match="^a must be"):
            kn.metric_slice(0.0, 0.0, 0.0, 1.0, math.pi / 2, 0.5)
