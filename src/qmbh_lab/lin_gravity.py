"""Linearized-gravity quadrature over a luminal rotating source.

The source is a ring or spherical shell of mass elements all moving
azimuthally at speed c, radius defaulting to hbar/(2 m c). Direct element
sums give the mass monopole, the spin S_z = sum(m_i c l_i) (hbar/2 for the
ring, pi hbar/8 for the shell), and the far gravitational potential. The
stationary-rotation shortcut d/dt -> (1 + c) d/dtau with |dT/dtau| = 2 omega T
turns the retarded integral for the trace potential into the same element
sums and reproduces the raw-CGS magnitude G m^2 c^5 compared against e'e.

Near the source, keeping the zeroth and second Taylor terms of the retarded
kernel yields a Coulomb-plus-linear profile whose coefficient ratio is
8 (M c^2 / hbar)^2 — the confinement-style check.

Two summation rules. The element quadratures (mass, spin and the trace
potential's source sum) are math.fsum: exact, rounded once, so they do not
depend on how the elements are ordered or split, and the luminal ring's mass
comes back to the bit. The far-zone distance sums take all probes of a source
as rows of one array and reduce each row alone with NumPy's pairwise sum: for
n <= 16384 positive terms that is at most 16 + 3 + log2(n / 128) roundings,
so a potential lies within 32 eps (relative) of the exact sum. The trace
potential's log-log slope and the Coulomb-plus-linear fit are closed-form
least-squares solves on exact integer sums, rounded once; the rank test is
exact: < 2 distinct radii raise ValueError.
"""

import math
from typing import NamedTuple

import numpy as np

from .constants import CGS, RatioCheck, half_compton_wavelength, require

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class ShellSource(NamedTuple):
    """Discretized rotating source: equal-mass elements at |v| = c, azimuthal."""

    radius: float                 # cm
    mass: float                   # g, total
    speed: float                  # cm/s, every element exactly this
    positions: np.ndarray         # (n, 3)
    masses: np.ndarray            # (n,)

    @property
    def n_elements(self):
        return self.masses.size

    @property
    def omega(self):
        """Rotation rate c / R (equals 2 m c^2 / hbar at the default radius)."""
        return self.speed / self.radius

    @staticmethod
    def _check(mass, radius, n_elements, speed, least):
        if n_elements < least:
            raise ValueError(f"n_elements must be >= {least}, got {n_elements!r}")
        for name, value in (("mass", mass), ("radius", radius), ("speed", speed)):
            require(name, value)

    @classmethod
    def ring(cls, mass, radius, n_elements, speed):
        cls._check(mass, radius, n_elements, speed, 3)
        ang = 2 * math.pi * np.arange(n_elements) / n_elements
        pos = np.stack([radius * np.cos(ang), radius * np.sin(ang),
                        np.zeros(n_elements)], axis=1)
        return cls(radius, mass, speed, pos,
                   np.full(n_elements, mass / n_elements))

    @classmethod
    def sphere(cls, mass, radius, n_elements, speed):
        """Fibonacci shell: midpoint-uniform in cos(theta), golden-angle azimuths."""
        cls._check(mass, radius, n_elements, speed, 16)
        i = np.arange(n_elements)
        z = 1.0 - (2.0 * i + 1.0) / n_elements
        s = np.sqrt(1.0 - z**2)
        phi = GOLDEN_ANGLE * i
        pos = radius * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
        return cls(radius, mass, speed, pos,
                   np.full(n_elements, mass / n_elements))


# the shell radius hbar / (2 m c) of particle p
default_radius = half_compton_wavelength


def _least_squares_pair(p, q, y):
    """Least-squares (a, b) of y ~ a p + b q, each rounded once from the exact
    solution: Cramer's rule on the 2x2 normal equations, with every element read
    as a Python int times one 2**k so that the sums are exact integers."""
    k = int(np.frexp(np.concatenate((p, q, y)))[1].min()) - 53
    p, q, y = ([int(math.ldexp(v, -k)) for v in a.tolist()] for a in (p, q, y))
    pp, pq, qq, py, qy = (sum(a * b for a, b in zip(u, v))
                          for u, v in ((p, p), (p, q), (q, q), (p, y), (q, y)))
    det = pp * qq - pq * pq
    return (py * qq - pq * qy) / det, (pp * qy - pq * py) / det


def mass_integral(s):
    """Element quadrature of the energy density: the total mass back, g."""
    return math.fsum(memoryview(s.masses))


def spin_integral(s):
    """S_z = sum over elements of lever arm x momentum density, erg s."""
    lever = np.hypot(s.positions[:, 0], s.positions[:, 1])
    return math.fsum(memoryview(s.masses * lever)) * s.speed


def _inverse_distance_sums(s, px, pz):
    """Sum over elements of m_i / |x_i - p| for each probe p = (px, 0, pz).
    The squared distances are built in place in np.linalg.norm's order,
    (dx^2 + dy^2) + dz^2, so every term has the bits of a per-probe norm, and
    each row is NumPy's pairwise sum, with the bits of a per-probe .sum():
    for positive terms within (16 + 3 + log2(n / 128)) eps of the exact sum."""
    x, y, z = s.positions.T
    d2 = x - px[:, None]
    d2 *= d2
    d2 += y * y
    dz = z - pz[:, None]
    dz *= dz
    d2 += dz
    np.sqrt(d2, out=d2)
    np.divide(s.masses, d2, out=d2)
    return d2.sum(axis=1)


def _checked_radii(r):
    """r as a float array, each radius finite and > 0."""
    radii = np.asarray(r, dtype=np.float64)
    for value in radii.reshape(-1).tolist():
        require("r", value)
    return radii


def far_potential(s, r, theta=0.0):
    """Direct-sum gravitational potential at colatitude theta and distance r,
    a float for a scalar r or an array for a 1-D array of radii."""
    radii = _checked_radii(r)
    flat = radii.reshape(-1)
    require("theta", theta, -math.inf)
    if radii.min() < 100 * s.radius:
        raise ValueError(f"probe at r={radii.min():g} is inside the near zone "
                         f"(<{100 * s.radius:g})")
    phi = -CGS.G * _inverse_distance_sums(s, flat * math.sin(theta), flat * math.cos(theta))
    return phi if radii.ndim else float(phi[0])


def charge_estimate(s, particle):
    """Raw-CGS charge arithmetic for the rotating shell.

    (a) the trace-potential quadrature 2c * sum(2 G m_i c^2 omega) against its
        closed form 8 G m^2 c^5 / hbar (consistency of the discretization);
    (b) G m^2 c^5 against e' e;
    (c) the implied charge G m^2 c^5 / e' against e, order-of-magnitude.

    The two sides of (b) differ dimensionally; the unstated (length/time)^5
    conversion is left at unity and raw CGS magnitudes are compared, which is
    flagged in the returned note.
    """
    omega = s.omega
    quad = 2 * CGS.c * math.fsum(memoryview(2 * CGS.G * s.masses * CGS.c**2 * omega))
    closed = 8 * CGS.G * particle.mass**2 * CGS.c**5 / CGS.hbar
    raw = CGS.G * particle.mass**2 * CGS.c**5
    reference = CGS.esu_ref * abs(particle.charge)
    implied = raw / CGS.esu_ref
    note = ("raw-CGS comparison: the sides differ dimensionally by a "
            "(length/time)^5 factor left at unity")
    checks = [
        RatioCheck.relative("trace-potential-quadrature-vs-closed-form",
                            quad, closed, 1e-12,
                            note=f"source mass {s.mass:.6e} g, omega {omega:.6e} 1/s"),
        RatioCheck.relative("mass-charge-cgs-ratio", raw / reference, 2.79,
                            0.05 / 2.79, note=note),
        RatioCheck.order_of_magnitude("implied-charge-vs-elementary",
                                      implied, abs(particle.charge), 1.5,
                                      note="implied charge in esu"),
    ]
    return checks


def shell_trace_a0(s, r_values):
    """Far-zone trace potential A0(r) sampled along an equatorial ray.

    Returns (A0 array, log-log slope, coefficient A0*r at the farthest probe).
    """
    r_values = _checked_radii(r_values)
    log_r = np.log(r_values)
    if log_r.min() == log_r.max():
        raise ValueError(f"need at least 2 distinct radii; got {r_values.tolist()}")
    # stationary-rotation retardation shortcut: d/dt -> (1 + c) d/dtau on the
    # retarded kernel with |dT/dtau| = 2 omega T and element trace (c^2-1) G m_i
    factor = 2 * (1 + CGS.c) * 2 * s.omega * (CGS.c**2 - 1) * CGS.G
    a0 = factor * _inverse_distance_sums(s, r_values, np.zeros_like(r_values))
    _, slope = _least_squares_pair(np.ones_like(log_r), log_r, np.log(np.abs(a0)))
    return a0, slope, float(a0[-1] * r_values[-1])


class ConfinementFit(NamedTuple):
    alpha_c: float          # Coulomb coefficient (fitted, signed)
    sigma_l: float          # linear coefficient (fitted, signed)
    ratio: float            # |sigma_l / alpha_c|
    ratio_closed_form: float


def confinement_profile(mass, r):
    """Near-zone trace -M/r + 2 M omega^2 r, omega = 2 M (hbar = c = 1)."""
    r = np.asarray(r, dtype=np.float64)
    omega = 2 * mass
    return -mass / r + 2 * mass * omega**2 * r


def confinement_expansion(s, mass, r_samples):
    """Fit alpha/r + sigma*r to the near-zone profile of the rotating source (hbar = c = 1).

    The source must rotate at the nominal rate 2 M c^2 / hbar (i.e. sit at
    the default radius for mass M). The fitted coefficient ratio must land on
    the closed form 8 (M c^2 / hbar)^2.
    """
    r = np.asarray(r_samples, dtype=np.float64)
    if r.size < 4 or r.min() == r.max():
        raise ValueError(f"need at least 4 sample radii, 2 distinct; got {r.tolist()}")
    r_m = 1 / (2 * require("mass", mass))
    if float(r.min()) < 0.1 * r_m or float(r.max()) > 10 * r_m:
        raise ValueError("samples must lie within [0.1, 10] x hbar/(2 M c)")
    omega_nominal = 2 * mass
    if abs(s.omega / omega_nominal - 1) > 1e-6:
        raise ValueError("source rotation rate does not match the requested mass scale")
    h = confinement_profile(mass, r)
    alpha_c, sigma_l = _least_squares_pair(1.0 / r, r, h)
    return ConfinementFit(alpha_c=alpha_c, sigma_l=sigma_l,
                          ratio=abs(sigma_l / alpha_c),
                          ratio_closed_form=8 * mass**2)
