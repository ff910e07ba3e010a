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

Element sums are exact: each row of elements is put on one integer grid and
accumulated without rounding, then rounded once, so every sum has the bits of
math.fsum and does not depend on how the elements are ordered or split. A row
outside that grid's range falls back to math.fsum. The distance sums take all
probes of a source as rows of one array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CGS, RatioCheck

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class ShellSource:
    """Discretized rotating source: equal-mass elements at |v| = c, azimuthal."""

    geometry: str                 # "ring" | "sphere"
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

    @classmethod
    def ring(cls, mass, radius, n_elements, speed):
        if n_elements < 3 or mass <= 0 or radius <= 0 or speed <= 0:
            raise ValueError("need n >= 3 elements and positive mass, radius, speed")
        ang = 2 * math.pi * np.arange(n_elements) / n_elements
        pos = np.stack([radius * np.cos(ang), radius * np.sin(ang),
                        np.zeros(n_elements)], axis=1)
        return cls("ring", radius, mass, speed, pos,
                   np.full(n_elements, mass / n_elements))

    @classmethod
    def sphere(cls, mass, radius, n_elements, speed):
        """Fibonacci shell: midpoint-uniform in cos(theta), golden-angle azimuths."""
        if n_elements < 16 or mass <= 0 or radius <= 0 or speed <= 0:
            raise ValueError("need n >= 16 elements and positive mass, radius, speed")
        i = np.arange(n_elements)
        z = 1.0 - (2.0 * i + 1.0) / n_elements
        s = np.sqrt(1.0 - z**2)
        phi = GOLDEN_ANGLE * i
        pos = radius * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
        return cls("sphere", radius, mass, speed, pos,
                   np.full(n_elements, mass / n_elements))


def default_radius(p):
    """Shell radius hbar / (2 m c) for particle p."""
    if p.mass <= 0:
        raise ValueError("massless particle has no Compton-scale shell")
    return CGS.hbar / (2 * p.mass * CGS.c)


def _exact_sums(a):
    """math.fsum over the last axis of a float64 array: a float for a 1-D
    array, a list of floats for a 2-D one.

    Scaled by 2^(b - e_min), with e_min a row's smallest frexp exponent and
    b = n.bit_length() for rows of n, every element is a multiple of
    2^(b - 53). When the exponents span at most 53 - 2b binades, the floors
    and the fractions of the scaled elements each sum exactly in float64, in
    any order, and one IEEE addition of the two sums rounds the total once,
    as fsum does; scaling back is exact, a subnormal total included. A row
    with a non-finite element, a wider span, a sum that could overflow or a
    zero sum (whose sign fsum sets) goes to math.fsum."""
    rows = a.reshape(-1, a.shape[-1])
    b = rows.shape[1].bit_length()
    mant, exp = np.frexp(rows)
    e_min = exp.min(axis=1)
    e_max = exp.max(axis=1).tolist()
    exp -= e_min[:, None] - b
    # a row off the grid may overflow here, and an inf makes its sums nan;
    # such rows go to fsum below
    with np.errstate(over="ignore", invalid="ignore"):
        np.ldexp(mant, exp, out=mant)
        whole = np.floor(mant)
        mant -= whole
        whole_sums = whole.sum(axis=1).tolist()
        frac_sums = mant.sum(axis=1).tolist()
    sums = []
    for row, w, f, lo, hi in zip(rows, whole_sums, frac_sums, e_min.tolist(), e_max):
        if hi - lo <= 53 - 2 * b and hi + b <= 1021:
            total = math.ldexp(w + f, lo - b)
            if total != 0.0 and not math.isnan(total):
                sums.append(total)
                continue
        sums.append(math.fsum(row.tolist()))
    return sums if a.ndim > 1 else sums[0]


def mass_integral(s):
    """Element quadrature of the energy density: the total mass back, g."""
    return _exact_sums(s.masses)


def spin_integral(s):
    """S_z = sum over elements of lever arm x momentum density, erg s."""
    lever = np.hypot(s.positions[:, 0], s.positions[:, 1])
    return _exact_sums(s.masses * lever) * s.speed


def _inverse_distance_sums(s, px, pz):
    """Exact sum over elements of m_i / |x_i - p| for each probe p = (px, 0, pz).
    The squared distances are built in place in np.linalg.norm's order,
    (dx^2 + dy^2) + dz^2, so every term has the bits of a per-probe norm."""
    x, y, z = s.positions.T
    d2 = x - px[:, None]
    d2 *= d2
    d2 += y * y
    dz = z - pz[:, None]
    dz *= dz
    d2 += dz
    np.sqrt(d2, out=d2)
    np.divide(s.masses, d2, out=d2)
    return np.array(_exact_sums(d2))


def far_potential(s, r, theta=0.0):
    """Direct-sum gravitational potential at colatitude theta and distance r,
    a float for a scalar r or an array for a 1-D array of radii."""
    radii = np.asarray(r, dtype=np.float64)
    if radii.min() < 100 * s.radius:
        raise ValueError(f"probe at r={radii.min():g} is inside the near zone "
                         f"(<{100 * s.radius:g})")
    flat = radii.reshape(-1)
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
    m = mass_integral(s)
    omega = s.omega
    quad = 2 * CGS.c * _exact_sums(2 * CGS.G * s.masses * CGS.c**2 * omega)
    closed = 8 * CGS.G * particle.mass**2 * CGS.c**5 / CGS.hbar
    raw = CGS.G * particle.mass**2 * CGS.c**5
    reference = CGS.esu_ref * abs(particle.charge)
    implied = raw / CGS.esu_ref
    note = ("raw-CGS comparison: the sides differ dimensionally by a "
            "(length/time)^5 factor left at unity")
    checks = [
        RatioCheck.relative("trace-potential-quadrature-vs-closed-form",
                            quad, closed, 1e-12,
                            note=f"source mass {m:.6e} g, omega {omega:.6e} 1/s"),
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
    r_values = np.asarray(r_values, dtype=np.float64)
    # stationary-rotation retardation shortcut: d/dt -> (1 + c) d/dtau on the
    # retarded kernel with |dT/dtau| = 2 omega T and element trace (c^2-1) G m_i
    factor = 2 * (1 + CGS.c) * 2 * s.omega * (CGS.c**2 - 1) * CGS.G
    a0 = factor * _inverse_distance_sums(s, r_values, np.zeros_like(r_values))
    slope = float(np.polyfit(np.log(r_values), np.log(np.abs(a0)), 1)[0])
    return a0, slope, float(a0[-1] * r_values[-1])


@dataclass(frozen=True)
class WeylFields:
    phi: np.ndarray
    e_field: np.ndarray          # (3, *grid)
    b_field: np.ndarray          # (3, *grid)
    doubling_residual: float     # max |E + 2 grad phi| / field scale
    doubling_factor: float


def weyl_em_fields(omega, dt, spacings):
    """Fields of a pure-gradient four-potential A_mu = d_mu Omega.

    Omega is sampled on a (t, x, y, z) grid. B = curl grad Omega vanishes;
    E = -dA/dt - grad phi = -2 grad phi with phi = dOmega/dt: the doubled
    effective charge feeding the g = 2 reading.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 4:
        raise ValueError("omega must be sampled on a (t, x, y, z) grid")
    if len(spacings) != 3:
        raise ValueError("three spatial spacings required")
    a = np.stack(np.gradient(omega, *spacings, axis=(1, 2, 3)))       # (3, t, x, y, z)
    phi = np.gradient(omega, dt, axis=0)
    dadt = np.stack([np.gradient(a[i], dt, axis=0) for i in range(3)])
    grad_phi = np.stack(np.gradient(phi, *spacings, axis=(1, 2, 3)))
    e_field = -dadt - grad_phi
    b_field = np.stack([
        np.gradient(a[2], spacings[1], axis=2) - np.gradient(a[1], spacings[2], axis=3),
        np.gradient(a[0], spacings[2], axis=3) - np.gradient(a[2], spacings[0], axis=1),
        np.gradient(a[1], spacings[0], axis=1) - np.gradient(a[0], spacings[1], axis=2),
    ])
    scale = float(np.max(np.abs(e_field)))
    if scale == 0.0:
        scale = max(float(np.max(np.abs(grad_phi))), 1.0)
    doubling_residual = float(np.max(np.abs(e_field + 2 * grad_phi))) / scale
    mid = omega.shape[0] // 2
    return WeylFields(phi=phi[mid], e_field=e_field[:, mid], b_field=b_field[:, mid],
                      doubling_residual=doubling_residual, doubling_factor=2.0)


@dataclass(frozen=True)
class ConfinementFit:
    alpha_c: float          # Coulomb coefficient (fitted, signed)
    sigma_l: float          # linear coefficient (fitted, signed)
    ratio: float            # |sigma_l / alpha_c|
    ratio_closed_form: float


def confinement_profile(mass, r, include_linear=True):
    """Near-zone trace -M/r plus (optionally) 2 M omega^2 r, omega = 2 M (hbar = c = 1)."""
    r = np.asarray(r, dtype=np.float64)
    omega = 2 * mass
    profile = -mass / r
    if include_linear:
        profile = profile + 2 * mass * omega**2 * r
    return profile


def confinement_expansion(s, mass, r_samples):
    """Fit alpha/r + sigma*r to the near-zone profile of the rotating source (hbar = c = 1).

    The source must rotate at the nominal rate 2 M c^2 / hbar (i.e. sit at
    the default radius for mass M). The fitted coefficient ratio must land on
    the closed form 8 (M c^2 / hbar)^2.
    """
    r = np.asarray(r_samples, dtype=np.float64)
    if r.size < 4:
        raise ValueError("need at least 4 sample radii")
    r_m = 1 / (2 * mass)
    if float(r.min()) < 0.1 * r_m or float(r.max()) > 10 * r_m:
        raise ValueError("samples must lie within [0.1, 10] x hbar/(2 M c)")
    omega_nominal = 2 * mass
    if abs(s.omega / omega_nominal - 1) > 1e-6:
        raise ValueError("source rotation rate does not match the requested mass scale")
    h = confinement_profile(mass, r)
    basis = np.stack([1.0 / r, r], axis=1)
    coef, *_ = np.linalg.lstsq(basis, h, rcond=None)
    alpha_c, sigma_l = float(coef[0]), float(coef[1])
    return ConfinementFit(alpha_c=alpha_c, sigma_l=sigma_l,
                          ratio=abs(sigma_l / alpha_c),
                          ratio_closed_form=8 * mass**2)
