"""Public library entry points reject a bad number with a ValueError that
names the argument, before any arithmetic on it warns or divides by zero."""

import math
import warnings

import numpy as np
import pytest

from qmbh_lab import bohm, dirac, hopping, kerr_newman, lin_gravity
from qmbh_lab.constants import ParticleSpec

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
]


@pytest.mark.parametrize("name, call", CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(CASES)])
def test_bad_value_raises_value_error_naming_it(name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            call()
