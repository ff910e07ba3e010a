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
from dataclasses import dataclass

from .constants import CGS, Constants


@dataclass(frozen=True)
class KNParams:
    """Mass (g), charge (esu), angular momentum (erg s) plus the constants set."""

    mass: float
    charge: float
    angular_momentum: float
    constants: Constants = CGS

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")

    @property
    def m_star(self):
        k = self.constants
        return k.G * self.mass / k.c**2

    @property
    def q_star(self):
        k = self.constants
        return math.sqrt(k.G) * self.charge / k.c**2

    @property
    def a_star(self):
        return self.angular_momentum / (self.mass * self.constants.c)

    @classmethod
    def from_particle(cls, p, constants=CGS, angular_momentum=None):
        """Particle -> KN parameters; L defaults to spin * hbar."""
        if angular_momentum is None:
            angular_momentum = p.spin * constants.hbar
        return cls(mass=p.mass, charge=p.charge,
                   angular_momentum=angular_momentum, constants=constants)


@dataclass(frozen=True)
class HorizonResult:
    r_plus: complex
    r_minus: complex
    naked: bool

    @property
    def b(self):
        """Imaginary part of r+: the naked-regime 'width'."""
        return self.r_plus.imag


def horizons(p):
    """Roots of the textbook Delta, principal branch for negative radicands."""
    m, q, a = p.m_star, p.q_star, p.a_star
    radicand = m * m - q * q - a * a
    root = cmath.sqrt(complex(radicand, 0.0))
    return HorizonResult(r_plus=m + root, r_minus=m - root, naked=radicand < 0.0)


@dataclass(frozen=True)
class FarFieldSample:
    r: float
    theta: float
    phi_grav: float
    e_r: float
    b_r: float
    b_theta: float


def far_fields(p, r, theta):
    """Leading far-zone multipoles: monopole potential and charge, dipole field."""
    near = 100.0 * max(p.a_star, p.m_star)
    if r < near:
        raise ValueError(f"far-field request at r={r:g} cm inside the near zone (<{near:g})")
    k = p.constants
    q, a = p.charge, p.a_star
    return FarFieldSample(
        r=r,
        theta=theta,
        phi_grav=-k.G * p.mass / r,
        e_r=q / r**2,
        b_r=2 * q * a * math.cos(theta) / r**3,
        b_theta=q * a * math.sin(theta) / r**3,
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
    classical = p.angular_momentum * p.charge / (2 * p.mass * p.constants.c)
    return magnetic_moment(p) / classical


def div_b_residual(p, r, theta, h_rel=5e-3):
    """Spherical divergence of the dipole field at (r, theta), over the field scale.

    Both derivative terms are evaluated with 4th-order central differences;
    the residual is |sum| relative to the dipole derivative scale 2|mu|/r^4
    (the individual terms' magnitude at the pole), so it stays meaningful
    where the terms themselves cross zero.
    """
    def term_r(rr):
        return rr**2 * far_fields(p, rr, theta).b_r

    def term_theta(th):
        return math.sin(th) * far_fields(p, r, th).b_theta

    def deriv4(f, x0, h):
        return (8 * (f(x0 + h) - f(x0 - h)) - (f(x0 + 2 * h) - f(x0 - 2 * h))) / (12 * h)

    hr = h_rel * r
    hth = h_rel
    d_r = deriv4(term_r, r, hr) / r**2
    d_theta = deriv4(term_theta, theta, hth) / (r * math.sin(theta))
    scale = 2 * abs(magnetic_moment(p)) / r**4
    if scale == 0.0:
        return 0.0
    return abs(d_r + d_theta) / scale


@dataclass(frozen=True)
class MetricSlice:
    dt2_coeff: float
    dr2_coeff: float
    doubling_factor: float
    delta: float
    rho2: float


def metric_slice(a, m, e, r, theta, lam):
    """Line element along dphi = (lam/a) dt at fixed theta, natural units.

    Uses Delta = r^2 - 2 m r + a^2 + m^2 + e^2 and rho^2 = r^2 + a^2 cos^2.
    At r = a, theta = pi/2 with m, e << a the dt^2 coefficient closes on
    2 lam^2 - 1 and the dr^2 coefficient on 1/2. The doubling factor is the
    ratio of the luminal azimuthal rate (a dphi'/dt = 1) to lam: 1/lam,
    equal to 2 on the lam = 1/2 slice.
    """
    if a <= 0:
        raise ValueError("spin length a must be positive")
    if lam == 0:
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
    return MetricSlice(dt2_coeff=dt2, dr2_coeff=dr2, doubling_factor=1.0 / lam,
                       delta=delta, rho2=rho2)
