"""Public library entry points reject a bad number with a ValueError that
names the argument, before any arithmetic on it warns or divides by zero.

`CASES` lists single calls; `ENTRY_POINTS` drives a property test
(Hypothesis; MacIver et al., JOSS 4(43), 1891, 2019) over every public
constructor and function argument with a declared numeric domain."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmbh_lab import bohm, dirac, hopping, kerr_newman, lin_gravity
from qmbh_lab.constants import (BUILTIN_PARTICLES, Constants, ParticleSpec,
                                monopole_strength)

NAN, INF = math.nan, math.inf


def confinement(mass):
    r_m = 1 / (2 * 1.8)
    source = lin_gravity.ShellSource.ring(1.8, r_m, 256, 1.0)
    return lin_gravity.confinement_expansion(source, mass,
                                             np.geomspace(0.1 * r_m, 10 * r_m, 16))


CASES = [
    ("n_sites", lambda: hopping.ChainSpec(16.5, 0.3, 1.4, 0.7)),
    ("n_sites", lambda: hopping.ChainSpec(8, 0.3, 1.4, 0.7)),
    ("a", lambda: hopping.ChainSpec(256, 0.3, 1.4, NAN)),
    ("a", lambda: hopping.ChainSpec(256, 0.3, 1.4, INF)),
    ("a", lambda: hopping.ChainSpec(256, 0.3, 1.4, -0.7)),
    ("b", lambda: hopping.ChainSpec(256, INF, 1.4, 0.7)),
    ("b", lambda: hopping.ChainSpec(256, NAN, 1.4, 0.7)),
    ("b", lambda: hopping.ChainSpec(256, 0.0, 1.4, 0.7)),
    ("e0", lambda: hopping.ChainSpec(256, 0.3, NAN, 0.7)),
    ("e0", lambda: hopping.ChainSpec(256, 0.3, -INF, 0.7)),
    ("sigma_x", lambda: dirac.build_gaussian(sigma_x=NAN, x0=0.0, p0=0.0, seed=(1, 0))),
    ("sigma_x", lambda: dirac.build_gaussian(sigma_x=INF, x0=0.0, p0=0.0, seed=(1, 0))),
    ("sigma", lambda: bohm.gaussian_state(64, 0.1, sigma=0)),
    ("sigma", lambda: bohm.gaussian_state(64, 0.1, sigma=NAN)),
    ("sigma", lambda: bohm.gaussian_state(64, 0.1, sigma=INF)),
    ("mass", lambda: confinement(0.0)),
    ("mass", lambda: confinement(NAN)),
    ("r_w", lambda: hopping.NonlocalKernel(NAN, 1.0)),
    ("w", lambda: hopping.NonlocalKernel(1.0, INF)),
    ("mass", lambda: lin_gravity.ShellSource.ring(NAN, 1.0, 16, 1.0)),
    ("speed", lambda: lin_gravity.ShellSource.ring(1.0, 1.0, 16, INF)),
    ("radius", lambda: lin_gravity.ShellSource.sphere(1.0, NAN, 16, 1.0)),
    ("dx", lambda: bohm.gaussian_state(64, 0.0, sigma=1.0)),
    ("dx", lambda: bohm.gaussian_state(64, NAN, sigma=1.0)),
    ("dx", lambda: bohm.WaveGrid2D(np.ones((64, 64)), NAN)),
    ("x0", lambda: dirac.build_gaussian(1.0, x0=NAN, p0=0.0, seed=(1, 0))),
    ("p0", lambda: dirac.build_gaussian(1.0, x0=0.0, p0=INF, seed=(1, 0))),
    ("mass", lambda: kerr_newman.KNParams(NAN, 1.0, 1.0)),
    ("a", lambda: kerr_newman.metric_slice(NAN, 0.0, 0.0, 1.0, math.pi / 2, 0.5)),
    ("mass", lambda: ParticleSpec("x", NAN, 0.0, 0.5)),
    ("dt", lambda: bohm.continuity_residual(*TRIPLE, NAN)),
    ("dt", lambda: bohm.continuity_residual(*TRIPLE, 0.0)),
    ("steps", lambda: bohm.evolve(TRIPLE[0], 1e-3, -1)),
    ("dt", lambda: bohm.continuity_residual(*TRIPLE, -5e-4)),
    ("dt", lambda: bohm.evolve(bohm.gaussian_state(64, 0.2, 1.0), NAN, 1)),
    ("core_radius", lambda: bohm.vortex_state(64, 0.1, core_radius=0.0)),
    ("core_radius", lambda: bohm.vortex_fields(bohm.centered_axis(64, 0.1), 0.1, 0.0)),
    ("r", lambda: lin_gravity.shell_trace_a0(RING, [NAN, 1e4])),
    ("r", lambda: lin_gravity.shell_trace_a0(RING, [0.0, 1e4])),
    ("grid_plus", lambda: bohm.continuity_residual(
        *TRIPLE[:2], bohm.gaussian_state(128, 40.0 / 128, 1.5), 5e-4)),
    ("grid_minus", lambda: bohm.continuity_residual(
        bohm.WaveGrid2D(TRIPLE[0].psi, 0.5), *TRIPLE[1:], 5e-4)),
]


@pytest.mark.parametrize("name, call", CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(CASES)])
def test_bad_value_raises_value_error_naming_it(name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            call()


# values outside each domain: nan and +-inf are outside all of them; floats()
# with a bound draws from its unbounded side up to the infinity there
SPECIAL = st.sampled_from([NAN, INF, -INF])
POSITIVE = SPECIAL | st.floats(max_value=0.0)            # (0, inf)
FINITE = SPECIAL                                          # (-inf, inf)
NONZERO = SPECIAL | st.sampled_from([0.0, -0.0])          # finite and != 0
# positive integers given as floats: also the non-integers above 1
WINDING = POSITIVE | st.floats(1.0, 1e6, exclude_min=True).filter(
    lambda v: not v.is_integer())


def below(hi):
    """(0, hi)."""
    return POSITIVE | st.floats(min_value=hi)


def at_least(least):
    """Integers >= least."""
    return st.integers(max_value=least - 1)


CHAIN = hopping.ChainSpec(128, 0.25, 1.8, 0.9)
PACKET = dirac.build_gaussian(1.0, 0.0, 0.0, (1, 1))
TRACE = dirac.mean_position_trace(PACKET, 16 * math.pi, 256)
RING = lin_gravity.ShellSource.ring(1.0, 1.0, 64, 1.0)
SPAN = float(TRACE.times[-1] - TRACE.times[0])
KN_ELECTRON = kerr_newman.KNParams.from_particle(BUILTIN_PARTICLES["electron"])


# an evolved 64-grid triple, as bohm-vortex's continuity stage takes it
TRIPLE = [bohm.evolve(bohm.gaussian_state(64, 40.0 / 64, 1.5, k=(1.0, 0.5)), 5e-4, steps)
          for steps in (399, 400, 401)]


def far_potential_among_good_radii(r):
    return lin_gravity.far_potential(RING, np.array([1e3, r, 1e4]))


def shell_trace_among_good_radii(r):
    return lin_gravity.shell_trace_a0(RING, np.array([1e3, r, 1e4]))


def far_fields_among_good_colatitudes(theta):
    return kerr_newman.far_fields(KN_ELECTRON, 1e-6, np.array([0.5, theta, 2.0]))


# (entry point, a valid call's arguments, the domain of each checked argument)
ENTRY_POINTS = [
    (Constants, {}, {name: POSITIVE for name in Constants._fields}),
    (ParticleSpec, dict(name="x", mass=1.0, charge=0.0, spin=0.5), {"mass": POSITIVE}),
    (monopole_strength, dict(n=1), {"n": WINDING}),
    (bohm.WaveGrid2D, dict(psi=np.ones((64, 64)), dx=0.1), {"dx": POSITIVE}),
    (bohm.gaussian_factor, dict(n=64, dx=0.1, sigma=1.0),
     {"dx": POSITIVE, "sigma": POSITIVE}),
    (bohm.gaussian_state, dict(n=64, dx=0.1, sigma=1.0),
     {"dx": POSITIVE, "sigma": POSITIVE}),
    (bohm.evolve, dict(grid=bohm.gaussian_state(64, 0.2, 1.0), dt=1e-3, steps=1),
     {"dt": FINITE}),
    (bohm.continuity_residual, dict(zip(("grid_minus", "grid_center", "grid_plus"), TRIPLE),
                                    dt=5e-4),
     {"dt": POSITIVE}),
    (bohm.vortex_state, dict(n=64, dx=0.1, core_radius=0.2), {"core_radius": POSITIVE}),
    (bohm.vortex_fields, dict(x=bohm.centered_axis(64, 0.1), dx=0.1, core_radius=0.2),
     {"core_radius": POSITIVE}),
    (dirac.build_gaussian, dict(sigma_x=1.0, x0=0.0, p0=0.0, seed=(1, 0)),
     {"sigma_x": POSITIVE, "x0": FINITE, "p0": FINITE}),
    (dirac.mean_position_trace, dict(packet=PACKET, t_max=1.0, samples=64),
     {"t_max": POSITIVE}),
    (dirac.zbw_traces, dict(packet=PACKET, t_max=1.0, samples=64), {"t_max": POSITIVE}),
    (dirac.time_average, dict(trace=TRACE, T=math.pi), {"T": below(SPAN / 4)}),
    (hopping.ChainSpec, dict(n_sites=256, b=0.3, e0=1.4, a=0.7),
     {"n_sites": at_least(16), "b": POSITIVE, "e0": FINITE, "a": POSITIVE}),
    (hopping.NonlocalKernel, dict(r_w=1.0, w=1.0), {"r_w": POSITIVE, "w": POSITIVE}),
    (hopping.dispersion, dict(spec=hopping.ChainSpec(256, 0.3, 1.4, 0.7), fit_window=0.1),
     {"fit_window": POSITIVE}),
    (hopping.self_consistent_mass,
     dict(spec=CHAIN, kernel=hopping.NonlocalKernel.for_chain(CHAIN, 4.0),
          psi0=hopping.AmplitudeVector(np.ones(CHAIN.n_sites)), tol=1e-8),
     {"tol": POSITIVE}),
    (hopping.emergent_hamiltonian_check,
     dict(em=hopping.EmergentMass(m0=1.0, m_prime=1.0, iterations=1, converged=True),
          p_max=0.1),
     {"p_max": POSITIVE}),
    (kerr_newman.KNParams, dict(mass=1.0, charge=1.0, angular_momentum=1.0),
     {"mass": POSITIVE}),
    (kerr_newman.far_fields, dict(p=KN_ELECTRON, r=1e-6, theta=1.0),
     {"r": POSITIVE, "theta": FINITE}),
    (far_fields_among_good_colatitudes, dict(theta=1.0), {"theta": FINITE}),
    (kerr_newman.div_b_residual, dict(p=KN_ELECTRON, r=1e-6, theta=1.0),
     {"theta": FINITE}),
    (kerr_newman.metric_slice, dict(a=1.0, m=0.0, e=0.0, r=1.0, theta=math.pi / 2, lam=0.5),
     {"a": POSITIVE, "m": FINITE, "e": FINITE, "r": FINITE, "theta": FINITE,
      "lam": NONZERO}),
    (lin_gravity.ShellSource.ring, dict(mass=1.0, radius=1.0, n_elements=16, speed=1.0),
     {"mass": POSITIVE, "radius": POSITIVE, "n_elements": at_least(3),
      "speed": POSITIVE}),
    (lin_gravity.ShellSource.sphere, dict(mass=1.0, radius=1.0, n_elements=16, speed=1.0),
     {"mass": POSITIVE, "radius": POSITIVE, "n_elements": at_least(16),
      "speed": POSITIVE}),
    (lin_gravity.far_potential, dict(s=RING, r=1e3), {"r": POSITIVE, "theta": FINITE}),
    (far_potential_among_good_radii, dict(r=1e3), {"r": POSITIVE}),
    (shell_trace_among_good_radii, dict(r=1e3), {"r": POSITIVE}),
    (confinement, dict(mass=1.8), {"mass": POSITIVE}),
]


@st.composite
def _bad_argument(draw, domains):
    name = draw(st.sampled_from(sorted(domains)))
    return name, draw(domains[name])


@pytest.mark.parametrize("call, valid, domains", ENTRY_POINTS,
                         ids=[call.__qualname__ for call, _, _ in ENTRY_POINTS])
def test_value_outside_its_domain_raises_value_error_naming_it(call, valid, domains):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**valid)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(_bad_argument(domains))
    def check(case):
        name, value = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} must be "):
                call(**{**valid, name: value})

    check()
