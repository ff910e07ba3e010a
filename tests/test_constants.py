import math

import numpy as np
import pytest

from qmbh_lab.constants import (BUILTIN_PARTICLES, CGS, ParticleSpec, RatioCheck,
                                classical_radius, compton_wavelength,
                                coupling_identities, extreme_scales,
                                gravity_em_ratio, half_compton_wavelength,
                                monopole_strength)

ELECTRON = BUILTIN_PARTICLES["electron"]

# frozen oracle values: direct evaluation of the closed forms with the pinned
# constants table (hbar = 1.054571817e-27, c = 2.99792458e10, G = 6.67430e-8,
# e = 4.80320471e-10)
ELECTRON_COMPTON = 3.861592677242834e-11
PROTON_COMPTON_AT_SPEC_MASS = 2.1031166684149002e-14
ELECTRON_CLASSICAL = 2.8179403216549487e-13
HBAR_C_OVER_E2 = 137.0359992214086
MONOPOLE_N1 = 3.2910597844991303e-08
ELECTRON_T = 1.2880886674083155e-21
ELECTRON_GRAVITY_EM = 4.165608759948062e42


class TestComptonWavelength:
    def test_electron(self):
        assert compton_wavelength(ELECTRON) == pytest.approx(ELECTRON_COMPTON, rel=1e-12)
        # the historical rounded figure 3.8e-11 cm is within 2%
        assert compton_wavelength(ELECTRON) == pytest.approx(3.8e-11, rel=0.02)

    def test_proton_at_quoted_mass(self):
        p = ParticleSpec("proton-quoted", 1.6726e-24, CGS.e, 0.5)
        assert compton_wavelength(p) == pytest.approx(PROTON_COMPTON_AT_SPEC_MASS,
                                                      rel=1e-12)

    def test_half_value(self):
        assert half_compton_wavelength(ELECTRON) == pytest.approx(
            ELECTRON_COMPTON / 2, rel=1e-15)

    def test_scales_inversely_with_mass(self):
        # doubling the mass exactly halves the output (power-of-two scaling
        # commutes with rounding)
        rng = np.random.default_rng(7)
        for m in np.exp(rng.uniform(-60, 5, 50)):
            a = ParticleSpec("a", float(m), 1.0, 0.0)
            b = ParticleSpec("b", float(2 * m), 1.0, 0.0)
            assert compton_wavelength(b) == compton_wavelength(a) / 2


class TestClassicalRadius:
    def test_electron(self):
        assert classical_radius(ELECTRON) == pytest.approx(ELECTRON_CLASSICAL, rel=1e-12)
        assert classical_radius(ELECTRON) == pytest.approx(2.8e-13, rel=0.01)

    def test_quadratic_in_charge(self):
        doubled = ParticleSpec("2e", ELECTRON.mass, 2 * ELECTRON.charge, 0.5)
        assert classical_radius(doubled) == 4 * classical_radius(ELECTRON)

    def test_chargeless_rejected(self):
        with pytest.raises(ValueError, match="charge"):
            classical_radius(ParticleSpec("n", 1e-24, 0.0, 0.5))


class TestCouplingIdentities:
    def test_direct_ratio(self):
        checks = {c.id: c for c in coupling_identities(ELECTRON)}
        direct = checks["hbar-c-over-e2"]
        assert direct.computed == pytest.approx(HBAR_C_OVER_E2, rel=1e-12)
        assert direct.passed  # 137.04 +- 0.5

    def test_rounded_lengths(self):
        checks = {c.id: c for c in coupling_identities(ELECTRON)}
        rounded = checks["hbar-c-over-e2-rounded"]
        assert rounded.computed == pytest.approx(3.8e-11 / 2.8e-13, rel=1e-15)
        assert rounded.computed == pytest.approx(135.7, abs=0.5)
        assert rounded.passed

    def test_shell_identity_exact(self):
        checks = {c.id: c for c in coupling_identities(ELECTRON)}
        assert abs(checks["e-phi-equals-rest-energy"].computed - 1.0) <= 1e-12

    def test_charge_independent_of_sign(self):
        flipped = ParticleSpec("positron", ELECTRON.mass, -ELECTRON.charge, 0.5)
        a = coupling_identities(ELECTRON)[0].computed
        b = coupling_identities(flipped)[0].computed
        assert a == b


class TestGravityEmRatio:
    def test_electron_value(self):
        check = gravity_em_ratio(ELECTRON)
        assert check.computed == pytest.approx(ELECTRON_GRAVITY_EM, rel=1e-12)
        assert check.computed == pytest.approx(4.17e42, rel=0.01)

    def test_passes_three_decades_of_1e40(self):
        check = gravity_em_ratio(ELECTRON)
        assert check.reference == 1e40
        assert abs(math.log10(check.computed / 1e40)) <= 3
        assert check.passed

    def test_constructed_identity(self):
        m = 1.0 / math.sqrt(CGS.G)  # G m^2 = (1 esu)^2
        unit = ParticleSpec("unit", m, 1.0, 0.0)
        assert gravity_em_ratio(unit).computed == pytest.approx(1.0, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="zero charge"):
            gravity_em_ratio(ParticleSpec("neutral", ELECTRON.mass, 0.0, 0.5))


class TestMonopoleStrength:
    def test_n1(self):
        assert monopole_strength(1) == pytest.approx(MONOPOLE_N1, rel=1e-12)

    def test_linearity(self):
        assert monopole_strength(2) == 2 * monopole_strength(1)

    def test_ratio_to_coupling(self):
        mu_over_e = monopole_strength(1) / CGS.e
        direct = coupling_identities(ELECTRON)[0].computed
        assert mu_over_e == pytest.approx(direct / 2, rel=1e-12)
        assert mu_over_e == pytest.approx(68.5, abs=0.1)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, math.nan, math.inf])
    def test_invalid_winding(self, bad):
        with pytest.raises(ValueError, match="^n must be"):
            monopole_strength(bad)


class TestExtremeScales:
    def test_electron_values(self):
        s = extreme_scales(ELECTRON)
        assert s["t"] == pytest.approx(ELECTRON_T, rel=1e-12)
        assert s["x"] == pytest.approx(ELECTRON_COMPTON, rel=1e-12)
        assert s["momentum"] == pytest.approx(ELECTRON.mass * CGS.c, rel=1e-15)


class TestRatioCheck:
    def test_relative_semantics(self):
        assert RatioCheck.relative("a", 1.004, 1.0, 0.005).passed
        assert not RatioCheck.relative("a", 1.006, 1.0, 0.005).passed

    def test_order_of_magnitude_semantics(self):
        assert RatioCheck.order_of_magnitude("a", 4.2e42, 1e40, 3).passed
        assert not RatioCheck.order_of_magnitude("a", 4.2e44, 1e40, 3).passed
        assert not RatioCheck.order_of_magnitude("a", -1.0, 1e40, 3).passed

    def test_upper_bound_encoding(self):
        assert RatioCheck.upper_bound("a", 0.0, 1e-3).passed
        assert RatioCheck.upper_bound("a", 1e-3, 1e-3).passed
        assert not RatioCheck.upper_bound("a", 1.0000001e-3, 1e-3).passed

    def test_interval_encoding(self):
        assert RatioCheck.interval("a", 0.01, 0.01, 1.0).passed
        assert RatioCheck.interval("a", 1.0, 0.01, 1.0).passed
        assert not RatioCheck.interval("a", 0.0099, 0.01, 1.0).passed
        assert not RatioCheck.interval("a", 1.01, 0.01, 1.0).passed

    def test_deterministic(self):
        a = RatioCheck.relative("x", 1.23456, 1.23, 0.01)
        b = RatioCheck.relative("x", 1.23456, 1.23, 0.01)
        assert a == b

    def test_round_trip(self):
        check = RatioCheck.order_of_magnitude("r", 2.5e9, 1e9, 1.0, note="n")
        assert RatioCheck.from_dict(check.to_dict()) == check

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="tolerance kind"):
            RatioCheck("x", 1.0, 1.0, "absolute", 0.1)


class TestParticleSpec:
    def test_invalid_spin(self):
        with pytest.raises(ValueError, match="spin"):
            ParticleSpec("x", 1.0, 0.0, 0.3)

    def test_negative_mass(self):
        with pytest.raises(ValueError, match="mass"):
            ParticleSpec("x", -1.0, 0.0, 0.5)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
    def test_mass_outside_domain_rejected(self, mass):
        # every derived scale divides by the mass, so no particle, built or
        # replaced, may have one outside (0, inf)
        with pytest.raises(ValueError, match="^mass must be"):
            ParticleSpec("x", mass, 0.0, 0.5)
        with pytest.raises(ValueError, match="^mass must be"):
            ELECTRON._replace(mass=mass)


class TestCatalog:
    def test_builtin_membership(self):
        assert list(BUILTIN_PARTICLES) == ["electron", "proton", "muon", "charm"]
