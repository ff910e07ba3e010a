"""Kerr-Newman parameters in geometrized units: horizons, far fields, metric slices.

Masses and charges are converted to lengths, M* = G M / c^2 and
Q* = sqrt(G) Q / c^2, with the spin length a* = L / (M c). Horizons are the
roots of the quadratic Delta = r^2 - 2 M* r + Q*^2 + a*^2:

    r+- = M* +- sqrt(M*^2 - Q*^2 - a*^2)

taken as principal complex values, so the over-extreme ("naked") regime
M*^2 < Q*^2 + a*^2 shows up as a conjugate pair M* +- i b rather than an
error. For an electron-scale particle b lands on half the reduced Compton
wavelength while M* is 45 orders of magnitude smaller.

The slice helper reproduces the Boyer-Lindquist arithmetic of a corotating
observer at r = a with the nonstandard Delta = r^2 - 2mr + a^2 + m^2 + e^2
(it differs from the horizon polynomial by the +m^2 term); the horizon
routine keeps the textbook form.
"""

import cmath
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .constants import CGS, require


class KNParams(namedtuple("KNParams", "mass charge angular_momentum")):
    """Mass (g), charge (esu) and angular momentum (erg s), in the pinned CGS table."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require("mass", self.mass)
        return self

    @property
    def m_star(self):
        return CGS.G * self.mass / CGS.c**2

    @property
    def q_star(self):
        return math.sqrt(CGS.G) * self.charge / CGS.c**2

    @property
    def a_star(self):
        return self.angular_momentum / (self.mass * CGS.c)

    @classmethod
    def from_particle(cls, p):
        """Particle -> KN parameters with L = spin * hbar."""
        return cls(mass=p.mass, charge=p.charge, angular_momentum=p.spin * CGS.hbar)


class HorizonResult(NamedTuple):
    r_plus: complex
    r_minus: complex
    naked: bool


def horizons(p):
    """Roots of the textbook Delta, principal branch for negative radicands."""
    m, q, a = p.m_star, p.q_star, p.a_star
    radicand = m * m - q * q - a * a
    root = cmath.sqrt(complex(radicand, 0.0))
    return HorizonResult(r_plus=m + root, r_minus=m - root, naked=radicand < 0.0)


class FarFieldSample(NamedTuple):
    r: float
    theta: float                  # float or array; b_r and b_theta follow it
    phi_grav: float
    e_r: float
    b_r: float
    b_theta: float


def far_fields(p, r, theta):
    """Leading far-zone multipoles: monopole potential and charge, dipole field.
    `theta` may be an array of colatitudes; the dipole components broadcast
    over it."""
    near = 100.0 * max(p.a_star, p.m_star)
    if require("r", r) < near:
        raise ValueError(f"far-field request at r={r:g} cm inside the near zone (<{near:g})")
    finite = np.isfinite(theta)
    if not finite.all():
        raise ValueError(f"theta must be finite, got {float(np.extract(~finite, theta)[0])!r}")
    q, a = p.charge, p.a_star
    return FarFieldSample(
        r=r,
        theta=theta,
        phi_grav=-CGS.G * p.mass / r,
        e_r=q / r**2,
        b_r=2 * q * a * np.cos(theta) / r**3,
        b_theta=q * a * np.sin(theta) / r**3,
    )


def magnetic_moment(p):
    """Dipole moment read off the B_r coefficient: mu = Q a*."""
    return p.charge * p.a_star


def g_factor(p):
    """mu / (L Q / 2 M c): equals 2 for any (M, Q != 0, L > 0)."""
    if p.angular_momentum <= 0:
        raise ValueError("g-factor needs positive angular momentum")
    if p.charge == 0:
        raise ValueError("g-factor undefined for zero charge")
    classical = p.angular_momentum * p.charge / (2 * p.mass * CGS.c)
    return magnetic_moment(p) / classical


def div_b_residual(p, r, theta):
    """Spherical divergence of the dipole field at (r, theta), over the field
    scale; `theta` may be an array, and the residual broadcasts over it.

    Both terms use 4th-order central differences of step 5e-3 r and 5e-3 rad;
    the residual is |sum| relative to the dipole derivative scale 2|mu|/r^4
    (the individual terms' magnitude at the pole), so it stays meaningful
    where the terms themselves cross zero.
    """
    def term_r(rr):
        return rr**2 * far_fields(p, rr, theta).b_r

    def term_theta(th):
        return np.sin(th) * far_fields(p, r, th).b_theta

    def deriv4(f, x0, h):
        return (8 * (f(x0 + h) - f(x0 - h)) - (f(x0 + 2 * h) - f(x0 - 2 * h))) / (12 * h)

    d_r = deriv4(term_r, r, 5e-3 * r) / r**2
    d_theta = deriv4(term_theta, theta, 5e-3) / (r * np.sin(theta))
    scale = 2 * abs(magnetic_moment(p)) / r**4
    if scale == 0.0:
        return np.zeros_like(d_theta)
    return np.abs(d_r + d_theta) / scale


class MetricSlice(NamedTuple):
    dt2_coeff: float
    dr2_coeff: float
    doubling_factor: float


def metric_slice(a, m, e, r, theta, lam):
    """Line element along dphi = (lam/a) dt at fixed theta, natural units.

    Uses Delta = r^2 - 2 m r + a^2 + m^2 + e^2 and rho^2 = r^2 + a^2 cos^2.
    At r = a, theta = pi/2 with m, e << a the dt^2 coefficient closes on
    2 lam^2 - 1 and the dr^2 coefficient on 1/2. The doubling factor is the
    ratio of the luminal azimuthal rate (a dphi'/dt = 1) to lam: 1/lam,
    equal to 2 on the lam = 1/2 slice.
    """
    require("a", a)
    for name, value in (("m", m), ("e", e), ("r", r), ("theta", theta)):
        require(name, value, -math.inf)
    if require("lam", lam, -math.inf) == 0:
        raise ValueError("lam must be nonzero")
    delta = r * r - 2 * m * r + a * a + m * m + e * e
    rho2 = r * r + (a * math.cos(theta)) ** 2
    # zero within roundoff of the coordinate scale counts as singular: cos of
    # a float pi/2 never lands exactly on zero
    scale2 = max(r * r, a * a)
    if delta <= 1e-24 * scale2 or rho2 <= 1e-24 * scale2:
        raise ValueError("requested point is singular (Delta = 0 or rho^2 = 0)")
    sin2 = math.sin(theta) ** 2
    dt2 = -(delta / rho2) * (1 - lam * sin2) ** 2 \
        + (sin2 / rho2) * ((r * r + a * a) * lam / a - a) ** 2
    dr2 = rho2 / delta
    return MetricSlice(dt2_coeff=dt2, dr2_coeff=dr2, doubling_factor=1.0 / lam)
