"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here and nowhere else.
"""

import contextlib
import math

import numpy as np
import pytest

from qmbh_lab import bohm, dirac, experiments, hopping, kerr_newman, lin_gravity
from qmbh_lab.constants import (BUILTIN_PARTICLES, CGS, ParticleSpec,
                                coupling_identities, gravity_em_ratio,
                                half_compton_wavelength)

ELECTRON = BUILTIN_PARTICLES["electron"]


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL - {description}")
        raise
    print(f"criterion {number:2d} PASS - {description}")


def test_criterion_1_constants_coupling():
    with criterion(1, "hbar c/e^2 = 137.04+-0.5, rounded 135.7+-0.5, e*Phi = mc^2"):
        checks = {c.id: c for c in coupling_identities(ELECTRON)}
        assert abs(checks["hbar-c-over-e2"].computed - 137.04) <= 0.5
        assert abs(checks["hbar-c-over-e2-rounded"].computed - 135.7) <= 0.5
        assert abs(checks["e-phi-equals-rest-energy"].computed - 1.0) <= 1e-12


def test_criterion_2_kerr_newman_electron():
    with criterion(2, "electron horizon 6.765e-56 + 1.9308e-11 i, naked; "
                      "Schwarzschild r+ = 2M*"):
        p = kerr_newman.KNParams.from_particle(ELECTRON)
        h = kerr_newman.horizons(p)
        assert h.naked
        assert abs(h.r_plus.imag / 1.9308e-11 - 1) <= 1e-3
        assert abs(h.r_plus.imag / half_compton_wavelength(ELECTRON) - 1) <= 1e-3
        assert abs(h.r_plus.real / 6.765e-56 - 1) <= 1e-3
        schw = kerr_newman.KNParams(mass=CGS.c**2 / CGS.G, charge=0.0,
                                    angular_momentum=0.0)
        hs = kerr_newman.horizons(schw)
        assert abs(hs.r_plus.real / (2 * schw.m_star) - 1) <= 1e-12
        assert hs.r_plus.imag == 0.0


def test_criterion_3_g_factor():
    with criterion(3, "g factor = 2 within 1e-12 for arbitrary (M, Q > 0, L > 0)"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            p = kerr_newman.KNParams(
                mass=float(np.exp(rng.uniform(-40, 10))),
                charge=float(np.exp(rng.uniform(-12, 2))),
                angular_momentum=float(np.exp(rng.uniform(-40, 5))))
            assert abs(kerr_newman.g_factor(p) - 2.0) <= 1e-12 * 2.0


def test_criterion_4_metric_slice():
    with criterion(4, "slice at r=a: dt^2 -> -1/2, dr^2 -> +1/2 (1e-6), "
                      "doubling factor 2"):
        a = 1.0
        s = kerr_newman.metric_slice(a, 1e-8 * a, 1e-8 * a, a, math.pi / 2, 0.5)
        assert abs(s.dt2_coeff - (-0.5)) <= 1e-6
        assert abs(s.dr2_coeff - 0.5) <= 1e-6
        assert s.doubling_factor == 2.0


def test_criterion_5_linearized_gravity_integrals():
    with criterion(5, "ring spin hbar/2 (1e-6); sphere pi hbar/8 (1e-4); "
                      "far potential -Gm/r (1e-8) at r = 1e4 R"):
        radius = lin_gravity.default_radius(ELECTRON)
        ring = lin_gravity.ShellSource.ring(ELECTRON.mass, radius, 1024, CGS.c)
        assert abs(lin_gravity.spin_integral(ring) / (CGS.hbar / 2) - 1) <= 1e-6
        sphere = lin_gravity.ShellSource.sphere(ELECTRON.mass, radius, 10000, CGS.c)
        assert abs(lin_gravity.spin_integral(sphere)
                   / (math.pi * CGS.hbar / 8) - 1) <= 1e-4
        r = 1e4 * radius
        phi = lin_gravity.far_potential(ring, r, theta=0.0)
        assert abs(phi / (-CGS.G * ELECTRON.mass / r) - 1) <= 1e-8


def test_criterion_6_charge_arithmetic():
    with criterion(6, "G m^2 c^5/(e'e) = 2.79+-0.05; implied charge within 1.5 "
                      "decades; e^2/Gm^2 = 4.17e42+-1% (3-decade 1e40 pass)"):
        ring = lin_gravity.ShellSource.ring(
            ELECTRON.mass, lin_gravity.default_radius(ELECTRON), 1024, CGS.c)
        checks = {c.id: c for c in lin_gravity.charge_estimate(ring, ELECTRON)}
        assert abs(checks["mass-charge-cgs-ratio"].computed - 2.79) <= 0.05
        implied = checks["implied-charge-vs-elementary"].computed
        assert abs(math.log10(implied / CGS.e)) <= 1.5
        ratio = gravity_em_ratio(ELECTRON)
        assert abs(ratio.computed / 4.17e42 - 1) <= 0.01
        assert abs(math.log10(ratio.computed / 1e40)) <= 3.0
        assert ratio.passed


def test_criterion_7_confinement_ratio():
    with criterion(7, "linear/Coulomb ratio = 8 (M c^2/hbar)^2 within 1%; "
                      "25.92 GeV^2 within 1.5 decades of the 1/hbar^2 scale"):
        mass = 1.8
        r_m = 1 / (2 * mass)
        src = lin_gravity.ShellSource.ring(mass, r_m, 256, 1.0)
        samples = np.geomspace(0.1 * r_m, 10 * r_m, 16)
        fit = lin_gravity.confinement_expansion(src, mass, samples)
        assert abs(fit.ratio / fit.ratio_closed_form - 1) <= 0.01
        assert abs(fit.ratio_closed_form - 25.92) <= 1e-9
        assert abs(math.log10(fit.ratio / 1.0)) <= 1.5


def test_criterion_8_bohm_module():
    with criterion(8, "m Gamma = h (1%), loop-independent (1e-3); half winding "
                      "h/2 (1e-3); continuity <= 1e-3; Q constancy <= 1e-3 E"):
        n, dx = 256, 0.1
        grid = bohm.vortex_state(n, dx, core_radius=2 * dx)
        f = bohm.decompose(grid)
        c = n // 2
        loops = [
            bohm.LoopPath.rectangle(c - 10, c - 10, c + 10, c + 10),
            bohm.LoopPath.rectangle(c - 30, c - 18, c + 12, c + 25),
            bohm.LoopPath.rectangle(c - 55, c - 55, c + 55, c + 55),
        ]
        quanta = [bohm.circulation(f, lp).half_quanta for lp in loops]
        # m Gamma / h = half_quanta / 2 for the unit vortex
        assert abs(quanta[0] / 2 - 1.0) <= 0.01
        assert max(quanta) - min(quanta) <= 1e-3

        x = grid.axis()
        X, Y = np.meshgrid(x, x, indexing="ij")
        half = bohm.synthetic_fields(np.ones((n, n)), 0.5 * np.arctan2(Y, X), dx,
                                     phase_period=math.pi)
        res = bohm.circulation(half, loops[1])
        assert abs(res.half_quanta - 1.0) <= 1e-3  # m Gamma = h/2

        g0 = bohm.gaussian_state(n, 40.0 / n, sigma=1.5, k=(1.0, 0.5))
        dt = 5e-4
        mid = bohm.evolve(g0, dt, 400)
        before = bohm.evolve(g0, dt, 399)
        after = bohm.evolve(g0, dt, 401)
        assert bohm.continuity_residual(before, mid, after, dt) <= 1e-3

        box = 16.0
        dxh = box / n
        xh = (np.arange(n) - n // 2) * dxh
        XH, YH = np.meshgrid(xh, xh, indexing="ij")
        psi = np.exp(-(XH**2 + YH**2) / 2).astype(complex)
        gh = bohm.WaveGrid2D(psi, dxh)
        fh = bohm.decompose(gh)
        total = bohm.quantum_potential(fh) + (XH**2 + YH**2) / 2
        assert float(total[~fh.node_mask].std()) <= 1e-3  # E = 1


def test_criterion_9_dirac_module():
    with criterion(9, "zbw: Omega within 5% of 2mc^2/hbar, A <= 1.1 hbar/2mc, "
                      "10x averaging suppression; w- ladder and pure branch"):
        packet = dirac.build_gaussian(sigma_x=10.0, x0=0.0, p0=0.0, seed=(1, 1))
        t_max = 6 * 2 * math.pi / packet.zbw_omega
        trace = dirac.mean_position_trace(packet, t_max, 768)
        assert abs(trace.fit.omega / packet.zbw_omega - 1) <= 0.05
        assert trace.fit.amplitude <= 1.1 * packet.compton_length / 2

        window = math.pi * packet.hbar / (packet.mass * packet.c**2)
        averaged = dirac.time_average(trace, window)
        assert averaged.fit.amplitude <= trace.fit.amplitude / 10

        fractions = []
        for sigma in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
            p = dirac.build_gaussian(sigma_x=sigma, x0=0.0, p0=0.0, seed=(1, 0))
            fractions.append(dirac.energy_fractions(p).w_minus)
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[1] >= 1e-2    # sigma_x = lambda_C
        assert fractions[-1] <= 1e-4   # sigma_x = 100 lambda_C

        pure = dirac.project_branch(packet, +1)
        pure_trace = dirac.mean_position_trace(pure, t_max, 768)
        assert pure_trace.fit.amplitude <= 1e-6 * packet.compton_length


def test_criterion_10_hopping_module():
    with criterion(10, "m' fit within 1%; m0 fixed point (1e-8, one step at "
                       "U==1); quadratic-vs-relativistic deviation <= 1.5e-5"):
        disp = hopping.dispersion(hopping.ChainSpec(256, 0.3, 1.4, 0.7))
        assert abs(disp.agreement - 1.0) <= 0.01

        spec = hopping.ChainSpec(512, 0.25, 1.8, 0.9)
        x = spec.coordinates()
        psi0 = hopping.AmplitudeVector(np.exp(-x**2 / (2 * (6 * spec.b) ** 2)))
        whole = hopping.NonlocalKernel((spec.n_sites // 2) * spec.b * 1.5, spec.b)
        em, _, history = hopping.self_consistent_mass(spec, whole, psi0, tol=1e-8)
        assert em.converged
        assert em.iterations == 1
        assert abs(em.m0 - 1.0) <= 1e-12

        _, deviation = hopping.emergent_hamiltonian_check(em, 0.1 * em.m * em.c)
        assert deviation <= 1.5e-5


def test_criterion_11_determinism_and_exit_codes(tmp_path):
    with criterion(11, "byte-identical tables on identical config; run-all "
                       "exit equals failure count"):
        a, b = tmp_path / "a", tmp_path / "b"
        ra = experiments.run(experiments.ExperimentSpec("zbw", {}, a))
        rb = experiments.run(experiments.ExperimentSpec("zbw", {}, b))
        for name in ra.tables:
            assert (a / name).read_bytes() == (b / name).read_bytes()

        reports, failures = experiments.run_all(tmp_path / "full")
        assert len(reports) == len(experiments.EXPERIMENTS) == 13
        assert failures == sum(1 for r in reports if r.status != "pass")
        assert failures == 0

        _, forced = experiments.run_all(tmp_path / "forced",
                                        overrides={"zbw.omega_tol": "0"},
                                        only=["zbw", "kn-horizon"])
        assert forced == 1
