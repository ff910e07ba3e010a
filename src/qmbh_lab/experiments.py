"""Experiment registry, batch execution, and machine-readable reporting.

Every experiment is a pure function of its parameters: its runner returns
RatioCheck claims and its tables as data and touches no file. `run` resolves
the parameters, runs the runner and formats every table to text (one header
row, floats at 17 significant digits) before it touches the disk. A failure
at any of these steps leaves a directory that already holds a report.json as
it is and puts only report.json into any other. Otherwise `run` makes the
directory, deletes the tables that its previous report.json lists, writes
each table to a temporary file that is then renamed over the final name, and
writes report.json last; an OSError there is recorded as the experiment's
error, like a runner's, and the files written up to it are removed.
report.json is compact JSON with each claim on a line of its own.
Running the same configuration twice must produce byte-identical tables.
"""

import contextlib
import json
import math
import os
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bohm, dirac, hopping, kerr_newman, lin_gravity
from .constants import (BUILTIN_PARTICLES, CGS, RatioCheck, compton_wavelength,
                        coupling_identities, extreme_scales, gravity_em_ratio,
                        half_compton_wavelength, monopole_strength)


def fmt(x):
    """17-significant-digit decimal, enough to round-trip a float64."""
    return f"{float(x):.17g}"


def atomic_write_text(path, text):
    path = os.fspath(path)
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(text.encode("utf-8"))
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
    os.replace(tmp, path)


def format_table(name, header, rows):
    """Table `name` as text: one header line, then one line per row. An
    all-numeric 2-D array is formatted in one `%` call over its values, with
    the bytes of `fmt`; other rows go cell by cell. A row whose width is not
    the header's raises ValueError."""
    width = len(header)
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "fiu":
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"table {name}: rows of shape {rows.shape} under "
                             f"{width} header columns")
        body = ((",".join(["%.17g"] * width) + "\n") * len(rows)) % tuple(
            rows.ravel().tolist())
    else:
        lines = []
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"table {name}: row {i} has {len(row)} cells "
                                 f"under {width} header columns")
            lines.append(",".join(cell if isinstance(cell, str) else fmt(cell)
                                  for cell in row) + "\n")
        body = "".join(lines)
    return ",".join(header) + "\n" + body


class ExperimentSpec(namedtuple("ExperimentSpec", "id parameters output_dir")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.id not in EXPERIMENTS:
            raise ValueError(f"unknown experiment id {self.id!r}")
        return self


class ExperimentReport(NamedTuple):
    id: str
    claims: list
    tables: list
    runtime_seconds: float
    status: str
    error: str = ""

    @classmethod
    def build(cls, id, claims, tables, runtime_seconds, error=""):
        ok = not error and all(c.passed for c in claims)
        return cls(id=id, claims=claims, tables=tables,
                   runtime_seconds=runtime_seconds,
                   status="pass" if ok else "fail", error=error)

    def to_dict(self):
        return {
            "id": self.id,
            "claims": [c.to_dict() for c in self.claims],
            "tables": list(self.tables),
            "runtime_seconds": self.runtime_seconds,
            "status": self.status,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(id=d["id"], claims=[RatioCheck.from_dict(c) for c in d["claims"]],
                   tables=list(d["tables"]), runtime_seconds=d["runtime_seconds"],
                   status=d["status"], error=d.get("error", ""))


class Param(NamedTuple):
    """A parameter's default and its domain: the interval from `lo` to `hi`
    (`lo` excluded when `lo_open`) or the set `choices`."""
    default: object
    lo: float = None
    hi: float = None
    lo_open: bool = False
    choices: tuple = None

    def contains(self, value):
        if self.choices is not None:
            return value in self.choices
        return (self.lo < value if self.lo_open else self.lo <= value) and value <= self.hi

    def domain(self):
        if self.choices is not None:
            return "one of " + ", ".join(map(repr, self.choices))
        return f"in {'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}]"


# the package's one dataclass: perfbench's tracer swaps runners with
# dataclasses.replace
@dataclass(frozen=True)
class Experiment:
    id: str
    description: str
    params: dict
    runner: object = field(repr=False)
    rule: object = field(default=None, repr=False)  # params -> None, or ValueError


def _coerce(default, raw, key):
    if isinstance(default, int) and isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"non-integral value {raw!r} for parameter {key!r}")
    try:
        value = raw if isinstance(raw, type(default)) else type(default)(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid value {raw!r} for parameter {key!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r} for parameter {key!r}")
    return value


def resolve_parameters(exp, given):
    """Defaults overlaid with `given`, coerced to the defaults' types; every
    value, defaults included, is checked against its declared domain, then
    all of them against the experiment's `rule`, if it has one."""
    params = {key: p.default for key, p in exp.params.items()}
    for key, raw in given.items():
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for experiment {exp.id!r}")
        params[key] = _coerce(params[key], raw, key)
    for key, p in exp.params.items():
        if not p.contains(params[key]):
            raise ValueError(f"parameter {key!r} must be {p.domain()}; "
                             f"got {params[key]!r}")
    if exp.rule is not None:
        exp.rule(params)
    return params


# --------------------------------------------------------------------------
# runners: params -> (claims, {file name: (header, rows)})

def _run_constants_report(params):
    # the references 137.04 and 4.17e42 are electron numbers
    p = BUILTIN_PARTICLES["electron"]
    claims = [coupling_identities(p)[0],
              RatioCheck.relative("charge-to-gravity-magnitude",
                                  gravity_em_ratio(p).computed, 4.17e42, 0.01)]

    rows = [[c.id, c.computed, c.reference, c.tolerance_kind, c.tolerance,
             str(c.passed)] for c in claims]

    scales = extreme_scales(p)
    extra = [
        ["compton_wavelength_cm", compton_wavelength(p)],
        ["half_compton_cm", half_compton_wavelength(p)],
        ["monopole_n1_esu", monopole_strength(1)],
        ["monopole_n2_esu", monopole_strength(2)],
        ["monopole_over_e", monopole_strength(1) / CGS.e],
        ["t_s", scales["t"]],
        ["x_cm", scales["x"]],
        ["momentum_g_cm_s", scales["momentum"]],
    ]
    return claims, {
        "ratios.csv": (["id", "computed", "reference", "tolerance_kind", "tolerance",
                        "passed"], rows),
        "scales.csv": (["quantity", "value"], extra),
    }


# bohm-vortex's node spacing: the vortex tanh(r/(2 dx)) e^{i azimuth} on the
# nodes i dx is one lattice function for every dx, so its claims move with dx
# by round-off only
VORTEX_DX = 0.1
# the side of bohm-vortex's continuity and Q + V grids; a finer grid makes
# neither claim better: the continuity residual is set by the O(dt^2) time
# difference, and the Q + V spread grows with the largest k
BOHM_GRID = 64


def _vortex_stage(dx=VORTEX_DX):
    """Circulation rows and the velocity-profile deviation of a unit vortex
    built from its real R and S, with tanh core radius 2 dx, on two fixed
    boxes centred on its axis.

    The loops read it on the 101 x 101 box whose edge is the outer loop, and
    the half-winding field S/2, R = 1 is read there at the mid loop's nodes.
    That box is freed before the profile box is built. The profile is
    max |r |v| - 1| over 4 dx <= r <= 32 dx (grid 128's annulus, n dx/4) on
    the 69 x 69 box, whose 2-node margin is the gradient stencil's halo. The
    deviation is the 4th-order stencil's error, which falls as (dx/r)^4
    (Fornberg, Math. Comp. 51, 699, 1988): its maximum sits at the inner
    edge, so a larger grid's annulus has the same one, and no box grows with
    the grid. No site in range is a node: there r >= 4 dx, twice the core
    radius, so R >= tanh(2) = 0.96, and the node threshold is 1e-8 of R's
    peak of at most 1; so no mask is taken."""
    f = bohm.vortex_fields(bohm.centered_axis(101, dx), dx, core_radius=2 * dx)
    half = bohm.synthetic_fields(np.ones_like(f.S), f.S / 2, dx, phase_period=math.pi)
    h = 50  # the centre node is (h, h)
    mid = (h - 25, h - 20, h + 18, h + 24)
    rows = []
    for name, fields, corners in [("inner", f, (h - 10, h - 10, h + 10, h + 10)),
                                  ("mid", f, mid), ("outer", f, (0, 0, 2 * h, 2 * h)),
                                  ("half-winding", half, mid)]:
        res = bohm.circulation(fields, bohm.LoopPath.rectangle(*corners))
        rows.append([name, res.gamma, res.half_quanta, res.residual])
    del f, half, fields

    x = bohm.centered_axis(69, dx)
    v = bohm.vortex_fields(x, dx, core_radius=2 * dx).v
    r = np.hypot(x[:, None], x[None, :])
    sel = (r >= 4 * dx) & (r <= 32 * dx)
    return rows, float(np.abs(np.hypot(v[0], v[1])[sel] * r[sel] - 1.0).max())


def _continuity_stage():
    """Continuity residual of a free packet evolved to 399, 400 and 401 steps."""
    dx, dt = 40.0 / BOHM_GRID, 5e-4
    g = bohm.gaussian_state(BOHM_GRID, dx, sigma=1.5, k=(1.0, 0.5))
    return bohm.continuity_residual(*(bohm.evolve(g, dt, s) for s in (399, 400, 401)), dt)


def _harmonic_stage():
    """Std of Q + V off the nodes of the harmonic ground state e^{-V}, with
    V = (x^2 + y^2)/2; it is stationary, so Q + V is constant at E = 1."""
    dx = 16.0 / BOHM_GRID
    x = bohm.centered_axis(BOHM_GRID, dx)
    v = np.add.outer(x**2, x**2) / 2
    f = bohm.decompose(bohm.WaveGrid2D(np.exp(-v), dx))
    total = bohm.quantum_potential(f) + v
    return float(total[~f.node_mask].std())


def _run_bohm_vortex(params):
    # one stage at a time, so each stage's grids are freed before the next
    continuity = _continuity_stage()
    q_std = _harmonic_stage()
    rows, profile_dev = _vortex_stage()
    inner, mid, outer, half_quanta = (row[2] for row in rows)
    spread = max(inner, mid, outer) - min(inner, mid, outer)
    claims = [
        RatioCheck.relative("unit-winding-m-gamma-over-h", mid / 2, 1.0, 0.01,
                            note="m*Gamma/h; half_quanta of a unit vortex is 2"),
        RatioCheck.upper_bound("loop-independence-spread", spread, 1e-3),
        RatioCheck.relative("half-winding-m-gamma-over-half-h",
                            half_quanta, 1.0, 1e-3),
        RatioCheck.upper_bound("velocity-profile-deviation", profile_dev, 0.02),
        RatioCheck.upper_bound("continuity-residual", continuity, 1e-3),
        RatioCheck.upper_bound("stationary-q-constancy-std", q_std, 1e-3,
                               note="std of Q+V against E = 1"),
    ]
    return claims, {
        "circulation.csv": (["loop_id", "gamma", "half_quanta", "residual"], rows),
    }


# the luminal ring's element count: its mass and spin are exact sums
# (`math.fsum`), so the count moves claims and tables by round-off at most
RING_ELEMENTS = 1024


def _luminal_ring(p):
    """p's spin-1/2 ring: RING_ELEMENTS elements at the radius hbar/(2 m c),
    all moving at c. ring-model checks its mass and spin sums; shell-spin and
    charge-confinement take it as their source."""
    return lin_gravity.ShellSource.ring(p.mass, lin_gravity.default_radius(p),
                                        RING_ELEMENTS, CGS.c)


def _run_ring_model(params):
    """Thin luminal rings of winding n = 1, 2: radius n hbar/(2 m c) and
    energy m c^2 in closed form, and the n = 1 ring's mass and spin summed
    over RING_ELEMENTS elements. On a ring m c (closed-integral ds) = 2 pi
    S_z, so the action n h/2 holds when S_z = hbar/2."""
    p = BUILTIN_PARTICLES[params["particle"]]
    rows = [[n, p.mass, n * half_compton_wavelength(p), p.mass * CGS.c**2]
            for n in (1, 2)]
    energy = rows[0][3]
    ring = _luminal_ring(p)
    claims = [
        RatioCheck.relative("ring-energy-quadrature",
                            lin_gravity.mass_integral(ring) * CGS.c**2 / energy,
                            1.0, 1e-12),
        RatioCheck.relative("ring-action-quadrature",
                            lin_gravity.spin_integral(ring) / (CGS.hbar / 2), 1.0, 1e-10),
    ]
    return claims, {"ring.csv": (["winding", "mass_g", "radius_cm", "energy_erg"],
                                 rows)}


# hopping-dispersion's chain: the curvature-mass fit is dimensionless, so b, E0
# and A move its claims by round-off only; the site count does move them
DISPERSION_B, DISPERSION_E0, DISPERSION_A = 0.3, 1.4, 0.7


def _run_hopping_dispersion(params):
    spec = hopping.ChainSpec(params["sites"], DISPERSION_B, DISPERSION_E0, DISPERSION_A)
    disp = hopping.dispersion(spec)
    # E(k) vs E(-k) symmetry over the paired modes: k is negated bit for bit
    # about index n // 2, so s reversed is s at -k (an even n's lone -n/2
    # mode has no pair and is left out)
    n = spec.n_sites
    s = disp.energies[n // 2 - (n - 1) // 2:]
    sym = float(np.abs(s - s[::-1]).max())
    claims = [
        RatioCheck.relative("effective-mass-fit", disp.agreement, 1.0, 0.01),
        RatioCheck.upper_bound("dispersion-symmetry", sym,
                               1e-10 * max(abs(disp.energies).max(), 1.0)),
    ]
    return claims, {"dispersion.csv": (["k", "E_k"],
                                       np.column_stack((disp.k, disp.energies)))}


# the mass experiments' chain, with E0 = 2A: m0 is a window average over the
# sites, and m enters dispersion-vs-relativity's claim through p/m only, so b
# and A move the claims and convergence.csv by round-off only
MASS_B, MASS_A = 0.25, 0.9


def _mass_chain(sites):
    """The mass experiments' chain of `sites` sites and its start state, a
    Gaussian 6 sites wide."""
    spec = hopping.ChainSpec(sites, MASS_B, 2 * MASS_A, MASS_A)
    x = spec.coordinates()
    return spec, hopping.AmplitudeVector(np.exp(-x**2 / (2 * (6 * spec.b) ** 2)))


def _run_emergent_mass(params):
    spec, psi0 = _mass_chain(params["sites"])
    # half-chain window
    half_extent = (spec.n_sites // 2) * spec.b
    kern = hopping.NonlocalKernel.for_chain(spec, half_extent / 2 - 8 * spec.b)
    em, _, history = hopping.self_consistent_mass(spec, kern, psi0)

    m0_seq = [h[1] for h in history]
    worst_rise = max((m0_seq[i + 1] - m0_seq[i] for i in range(len(m0_seq) - 1)),
                     default=0.0)
    claims = [
        RatioCheck.interval("windowed-m0-open-unit-interval", em.m0, 1e-12, 1.0),
        RatioCheck.upper_bound("monotone-iterates", max(0.0, worst_rise), 1e-12),
    ]
    return claims, {"convergence.csv": (["iter", "m0", "delta"], history)}


def _run_dispersion_vs_relativity(params):
    # whole-chain window: U == 1 at every site, so m0 = 1 at any chain size
    spec, psi0 = _mass_chain(512)
    whole = hopping.NonlocalKernel((spec.n_sites // 2) * spec.b * 1.5, spec.b)
    em, _, _ = hopping.self_consistent_mass(spec, whole, psi0)

    mc = em.m  # c = 1
    claims, _ = hopping.emergent_hamiltonian_check(em, params["p_max_frac"] * mc)

    p = np.linspace(0.0, mc, 65)
    e_nr = p**2 / (2 * em.m) + em.m
    e_rel = np.sqrt(p**2 + em.m**2)
    return claims, {"dispersion_vs_relativity.csv": (
        ["p", "E_quadratic", "E_relativistic"], np.column_stack((p, e_nr, e_rel)))}


def _zbw_rule(params):
    # the Compton-time window is rounded to 2 round(pi / (2 dt)) + 1 samples,
    # up to 2 dt past pi; below 20 samples per period that overshoot can fail
    # time-average-suppression
    if params["samples"] < 20 * params["periods"]:
        raise ValueError(f"parameter 'samples' must be at least 20 * periods = "
                         f"{20 * params['periods']:g}; got {params['samples']!r}")


def _run_zbw(params):
    packet = dirac.build_gaussian(sigma_x=params["sigma"], x0=0.0, p0=0.0, seed=(1, 1))
    omega0 = packet.zbw_omega
    t_max = params["periods"] * 2 * math.pi / omega0
    trace, vtrace, pure_trace = dirac.zbw_traces(packet, t_max, params["samples"])
    f = trace.fit
    averaged = dirac.time_average(trace, math.pi)  # the Compton time pi hbar/(m c^2)

    lam = packet.compton_length
    claims = [
        RatioCheck.relative("zbw-frequency", f.omega, omega0, params["omega_tol"]),
        RatioCheck.upper_bound("zbw-amplitude", f.amplitude, 1.1 * lam / 2),
        RatioCheck.upper_bound("time-average-suppression",
                               averaged.fit.amplitude / f.amplitude, 0.1),
        RatioCheck.upper_bound("pure-branch-amplitude",
                               pure_trace.fit.amplitude / lam, 1e-6),
        RatioCheck.relative("velocity-oscillation-frequency",
                            vtrace.fit.omega, f.omega, 0.05),
    ]
    return claims, {
        "trace.csv": (["t", "x_mean"], np.column_stack((trace.times, trace.x_mean))),
        "fit.csv": (["amplitude", "omega", "slope", "residual"],
                    [[f.amplitude, f.omega, f.slope, f.rms_residual]]),
        "trace_averaged.csv": (["t", "x_mean"],
                               np.column_stack((averaged.times, averaged.x_mean))),
    }


# neg-energy-scan's packet widths in Compton units: the claims read the entries
# 1 and 100, and w_minus falls with width, so the others set only table rows
SCAN_WIDTHS = (0.5, 1.0, 2.0, 5.0, 10.0, 100.0)


def _branch_weights(widths):
    """(w_minus, w_plus) arrays of the packets build_gaussian(sigma_x=w, x0=0,
    p0=0, seed=(1, 0)) for w in `widths`, from one (widths, 1024) array pass
    with the floating-point operations of build_gaussian and
    energy_fractions. The lower spinor component is zero and e^{-i k x0} is
    1 + 0j, so the terms they add are exact zeros and are left out. The
    amplitudes are divided by the root of the norm as complex numbers, as
    `normalized` does, and each row is summed on its own: a sum across rows
    need not keep np.sum's pairwise order."""
    def row_sums(x):
        return np.array([row.sum() for row in x])

    half = np.array([8.0 / w for w in widths])
    k = np.linspace(-half, half, 1024, endpoint=False, axis=1)
    dk = k[:, 1] - k[:, 0]
    a = np.exp(np.array([[-(w**2)] for w in widths]) * k**2).astype(np.complex128)
    a /= np.sqrt(row_sums(np.abs(a) ** 2) * dk)[:, None]
    dens = np.abs(a) ** 2
    w_plus = 0.5 * (row_sums(dens + dens / np.hypot(k, 1.0)) * dk) / (row_sums(dens) * dk)
    return 1.0 - w_plus, w_plus


def _run_neg_energy_scan(params):
    w_minus, w_plus = (w.tolist() for w in _branch_weights(SCAN_WIDTHS))
    w_by_sigma = dict(zip(SCAN_WIDTHS, w_minus))
    rises = [b - a for a, b in zip(w_minus, w_minus[1:])]
    packet = dirac.build_gaussian(sigma_x=1.0, x0=0.0, p0=0.0, seed=(1, 0))
    pure = dirac.project_branch(packet, +1)

    claims = [
        RatioCheck.upper_bound("monotone-in-width",
                               max(0.0, max(rises)), 1e-15),
        RatioCheck.interval("compton-width-fraction", w_by_sigma[1.0], 1e-2, 1.0),
        RatioCheck.upper_bound("wide-packet-fraction", w_by_sigma[100.0], 1e-4),
        RatioCheck.upper_bound("pure-branch-fraction",
                               dirac.energy_fractions(pure).w_minus, 1e-14),
    ]
    return claims, {"neg_energy.csv": (["sigma_over_compton", "w_minus", "w_plus"],
                                       list(zip(SCAN_WIDTHS, w_minus, w_plus)))}


def _run_kn_horizon(params):
    rows = []
    for name, particle in BUILTIN_PARTICLES.items():
        kpp = kerr_newman.KNParams.from_particle(particle)
        hh = kerr_newman.horizons(kpp)
        rows.append([name, kpp.m_star, kpp.a_star, kpp.q_star,
                     hh.r_plus.real, hh.r_plus.imag, str(hh.naked)])
        if name == params["particle"]:
            kp, hz = kpp, hh

    p = BUILTIN_PARTICLES[params["particle"]]
    product = hz.r_plus * hz.r_minus
    target = kp.q_star**2 + kp.a_star**2
    claims = [
        RatioCheck.relative("naked-horizon-imag", hz.r_plus.imag,
                            half_compton_wavelength(p), 1e-3),
        RatioCheck.relative("naked-horizon-real", hz.r_plus.real, kp.m_star, 1e-3),
        RatioCheck.relative("root-product", abs(product), target, 1e-10),
    ]
    return claims, {"horizons.csv": (["name", "M_star", "a_star", "Q_star",
                                      "re_r_plus", "im_r_plus", "naked"], rows)}


def _run_kn_fields(params):
    p = BUILTIN_PARTICLES[params["particle"]]
    kp = kerr_newman.KNParams.from_particle(p)
    r = params["r"]
    thetas = np.linspace(0.05, math.pi - 0.05, 41)
    s = kerr_newman.far_fields(kp, r, thetas)
    rows = np.column_stack(np.broadcast_arrays(s.r, s.theta, s.phi_grav, s.e_r,
                                               s.b_r, s.b_theta))

    eq = kerr_newman.far_fields(kp, r, math.pi / 2)
    pole = kerr_newman.far_fields(kp, r, 0.0)
    near, far = kerr_newman.far_fields(kp, r, 1.0), kerr_newman.far_fields(kp, 2 * r, 1.0)
    div_worst = float(np.max(kerr_newman.div_b_residual(kp, r, thetas)))

    claims = [
        RatioCheck.relative("equatorial-dipole-field", abs(eq.b_theta),
                            abs(p.charge) * kp.a_star / r**3, 1e-12),
        RatioCheck.relative("polar-dipole-field", abs(pole.b_r) * r**3,
                            2 * abs(p.charge) * kp.a_star, 1e-12),
        RatioCheck.relative("potential-power-law", far.phi_grav / near.phi_grav,
                            0.5, 1e-12),
        RatioCheck.relative("charge-field-power-law", far.e_r / near.e_r, 0.25, 1e-12),
        RatioCheck.relative("dipole-power-law", far.b_theta / near.b_theta,
                            0.125, 1e-12),
        RatioCheck.relative("g-factor", kerr_newman.g_factor(kp), 2.0, 1e-12),
        RatioCheck.upper_bound("divergence-free-dipole", div_worst, 1e-8),
    ]
    return claims, {"far_fields.csv": (["r", "theta", "phi", "E_r", "B_r", "B_theta"],
                                       rows)}


# metric-slice's fixed slice, r = a on the equator with m = e = eps a: the
# corotating references -1/2 and +1/2 hold at lam = 1/2 only, up to gaps of
# eps/2 that the 2e-6 relative bounds admit up to eps = 2e-6
SLICE_A, SLICE_EPS, SLICE_LAM = 1.0, 1e-8, 0.5


def _run_metric_slice(params):
    a, m = SLICE_A, SLICE_EPS * SLICE_A
    s = kerr_newman.metric_slice(a, m, m, a, math.pi / 2, SLICE_LAM)
    null = kerr_newman.metric_slice(a, m, m, a, math.pi / 2, 1 / math.sqrt(2))
    rows = []
    for lam_i in np.linspace(0.1, 1.0, 10):
        si = kerr_newman.metric_slice(a, m, m, a, math.pi / 2, float(lam_i))
        rows.append([lam_i, si.dt2_coeff, si.dr2_coeff])

    claims = [
        RatioCheck.relative("corotating-dt2-coefficient", s.dt2_coeff, -0.5, 2e-6),
        RatioCheck.relative("corotating-dr2-coefficient", s.dr2_coeff, 0.5, 2e-6),
        RatioCheck.upper_bound("null-slice-dt2", abs(null.dt2_coeff), 1e-6),
    ]
    return claims, {"slices.csv": (["lam", "dt2_coeff", "dr2_coeff"], rows)}


def _run_shell_spin(params):
    p = BUILTIN_PARTICLES[params["particle"]]
    ring = _luminal_ring(p)
    sphere = lin_gravity.ShellSource.sphere(p.mass, ring.radius,
                                            params["sphere_elements"], CGS.c)

    r_far = 1e4 * ring.radius
    r_values = np.geomspace(100 * ring.radius, r_far, 13)  # ends on r_far exactly
    phi = lin_gravity.far_potential(ring, r_values, theta=0.0)
    a0, *_ = lin_gravity.shell_trace_a0(ring, r_values)

    claims = [
        RatioCheck.relative("sphere-spin-pi-eighth-hbar",
                            lin_gravity.spin_integral(sphere), math.pi * CGS.hbar / 8, 1e-4,
                            note="shell average sin(theta) = pi/4: the exactness "
                                 "claim holds for the ring only"),
        RatioCheck.relative("far-potential-monopole", phi[-1],
                            -CGS.G * p.mass / r_far, 1e-8),
    ]
    return claims, {"far_zone.csv": (["r", "phi", "A0"],
                                     np.column_stack((r_values, phi, a0)))}


def _run_charge_confinement(params):
    p = BUILTIN_PARTICLES["electron"]
    ring = _luminal_ring(p)
    claims = list(lin_gravity.charge_estimate(ring, p))

    r_values = np.geomspace(100 * ring.radius, 1e4 * ring.radius, 17)
    _, slope, coeff = lin_gravity.shell_trace_a0(ring, r_values)
    quad = claims[0].computed
    claims.append(RatioCheck.relative("trace-potential-slope", slope, -1.0, 0.02))
    claims.append(RatioCheck.order_of_magnitude("trace-coefficient-consistency",
                                                coeff, quad, math.log10(3.0)))

    m_gev = params["quark_mass_gev"]
    r_m = 1.0 / (2 * m_gev)
    src = lin_gravity.ShellSource.ring(m_gev, r_m, 256, 1.0)
    samples = np.geomspace(0.1 * r_m, 10 * r_m, 16)
    fit = lin_gravity.confinement_expansion(src, m_gev, samples)

    claims.append(RatioCheck.relative("confinement-coefficient-ratio", fit.ratio,
                                      fit.ratio_closed_form, 0.01))
    claims.append(RatioCheck.order_of_magnitude("confinement-ratio-scale",
                                                fit.ratio, 1.0, 1.5,
                                                note="against the 1/hbar^2 GeV^2 scale"))
    return claims, {
        "confinement_fit.csv": (["alpha_c", "sigma_l", "ratio", "ratio_closed_form"],
                                [[fit.alpha_c, fit.sigma_l, fit.ratio,
                                  fit.ratio_closed_form]]),
        "confinement_profile.csv": (["r", "h"], np.column_stack(
            (samples, lin_gravity.confinement_profile(m_gev, samples)))),
    }


PARTICLE = Param("electron", choices=tuple(BUILTIN_PARTICLES))
# hopping-dispersion's fit window |k b| <= 0.1 holds 5 modes from 126 sites on
SITES = (128, 4096)

EXPERIMENTS = {}
for _exp in [
    Experiment("constants-report",
               "coupling and charge-gravity ratio checks",
               {}, _run_constants_report),
    Experiment("bohm-vortex",
               "vortex circulation quantization, continuity, Q constancy",
               {}, _run_bohm_vortex),
    Experiment("ring-model", "thin-ring radius/energy with quadrature identities",
               {"particle": PARTICLE}, _run_ring_model),
    Experiment("hopping-dispersion", "chain spectrum and curvature mass fit",
               {"sites": Param(256, *SITES)}, _run_hopping_dispersion),
    Experiment("emergent-mass", "self-consistent window mass fixed point",
               {"sites": Param(512, *SITES)}, _run_emergent_mass),
    Experiment("dispersion-vs-relativity",
               "quadratic-plus-rest spectrum against the relativistic energy",
               # dispersion-vs-relativity's bound (p_max_frac)^4 / 8 is the
               # next Taylor order, a small-p expansion
               {"p_max_frac": Param(0.1, 0, 0.1, True)}, _run_dispersion_vs_relativity),
    Experiment("zbw", "zitterbewegung frequency, amplitude, and averaging",
               # time_average's window, one zbw period, is under a quarter of
               # the trace only for periods > 4
               {"sigma": Param(10.0, 1, 1e3), "periods": Param(6.0, 4, 64, True),
                "samples": Param(768, 256, 4096), "omega_tol": Param(0.05, 0, 1, True)},
               _run_zbw, _zbw_rule),
    Experiment("neg-energy-scan", "negative-branch weight versus packet width",
               {}, _run_neg_energy_scan),
    Experiment("kn-horizon", "complex horizon roots and the naked predicate",
               {"particle": PARTICLE}, _run_kn_horizon),
    Experiment("kn-fields", "far-zone multipoles, g = 2, divergence-free dipole",
               # the far zone starts at 100 a* = 1.9e-9 cm for the electron
               {"particle": PARTICLE, "r": Param(1.0, 1e-8, 1e8)}, _run_kn_fields),
    Experiment("metric-slice", "corotating and null slice coefficients",
               {}, _run_metric_slice),
    Experiment("shell-spin", "shell spin and the ring's far-potential quadrature",
               # sphere-spin-pi-eighth-hbar's 1e-4 needs about 400 shell
               # elements (error 3.9e-5 there, falling as N^-1.5)
               {"particle": PARTICLE, "sphere_elements": Param(10000, 400, 1 << 14)},
               _run_shell_spin),
    Experiment("charge-confinement",
               "charge magnitude arithmetic and the Coulomb-plus-linear fit",
               # mass-charge-cgs-ratio's 2.79 is an electron number;
               # confinement-ratio-scale: the ratio is 8 m^2, within 1.5 decades
               # of 1 only for m in [0.0629, 1.988] GeV; rounded inward
               {"quark_mass_gev": Param(1.8, 0.065, 1.95)}, _run_charge_confinement),
]:
    EXPERIMENTS[_exp.id] = _exp


def _clear_previous_tables(outdir):
    """Delete the regular files listed as `tables` in the report.json already
    in `outdir`; a name that is not a bare file name, or is report.json, is kept."""
    outdir = Path(outdir)
    try:
        names = json.loads((outdir / "report.json").read_text(encoding="utf-8"))["tables"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    for name in names if isinstance(names, list) else []:
        if not isinstance(name, str) or name == "report.json":
            continue
        path = outdir / name
        if path.name == name and path.is_file() and not path.is_symlink():
            path.unlink()


def _report_json(report):
    """The record as compact JSON (json's C encoder): its other fields on the
    first line, then each claim on a line of its own."""
    record = report.to_dict()
    claims = ",".join("\n" + json.dumps(c) for c in record.pop("claims"))
    return json.dumps(record)[:-1] + ', "claims": [' + claims + "\n]}\n"


def run(spec):
    """Execute one experiment into its directory: resolve its parameters, run
    it and format its tables, and only then touch the disk. On a failure at
    any of these steps a directory that holds a report.json is left as it is;
    otherwise make the directory, clear the tables of the report.json already
    there, write the new tables, then report.json. An OSError there fails the
    experiment, is recorded in the report returned and removes the files
    written in this call."""
    exp = EXPERIMENTS[spec.id]
    outdir = os.fspath(spec.output_dir)
    report_path = os.path.join(outdir, "report.json")
    start = time.perf_counter()
    claims, texts, error = [], {}, ""
    try:
        claims, outputs = exp.runner(resolve_parameters(exp, spec.parameters))
        texts = {name: format_table(name, header, rows)
                 for name, (header, rows) in outputs.items()}
    except Exception as exc:  # recorded, not raised: run-all must continue
        error = f"{spec.id}: {type(exc).__name__}: {exc}"
    report = ExperimentReport.build(spec.id, claims, list(texts),
                                    time.perf_counter() - start, error=error)
    if error and os.path.exists(report_path):
        return report
    texts["report.json"] = _report_json(report)
    created = []
    try:
        os.makedirs(outdir, exist_ok=True)
        _clear_previous_tables(outdir)
        for name, text in texts.items():
            path = os.path.join(outdir, name)
            created.append(path + ".tmp")
            atomic_write_text(path, text)
            created.append(path)
    except OSError as exc:  # recorded like a runner's failure
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        return report._replace(status="fail",
                               error=f"{spec.id}: {type(exc).__name__}: {exc}")
    return report


def split_overrides(overrides):
    """"experiment.param" -> raw value as {experiment id: {param: raw value}};
    a key that names no registered experiment or parameter raises ValueError."""
    params = {exp_id: {} for exp_id in EXPERIMENTS}
    for key, value in overrides.items():
        prefix, _, name = key.partition(".")
        if prefix not in EXPERIMENTS:
            raise ValueError(f"override {key!r} is not "
                             f"`<registered experiment id>.<parameter>`")
        if name not in EXPERIMENTS[prefix].params:
            raise ValueError(f"override {key!r}: unknown parameter {name!r} "
                             f"for experiment {prefix!r}")
        params[prefix][name] = value
    return params


def run_all(out_root, overrides=None, only=None):
    """Run the registered experiments; returns (reports, failure count).

    `overrides` maps "experiment.param" -> raw value, and a key that names no
    registered experiment or no parameter raises ValueError before anything
    runs (an out-of-domain value is recorded as that experiment's failure);
    `only`, when not None, restricts the run to the listed ids (an empty list
    runs nothing).
    """
    out_root = Path(out_root)
    ids = list(EXPERIMENTS)
    if only is not None:
        unknown = [i for i in only if i not in EXPERIMENTS]
        if unknown:
            raise ValueError(f"unknown experiment ids in filter: {unknown}")
        ids = [i for i in ids if i in set(only)]
    params = split_overrides(overrides or {})
    reports = [run(ExperimentSpec(exp_id, params[exp_id], out_root / exp_id))
               for exp_id in ids]
    failures = sum(1 for r in reports if r.status != "pass")
    return reports, failures


def summary_lines(reports):
    lines = ["id,claims_passed,claims_total,status"]
    for r in reports:
        passed = sum(1 for c in r.claims if c.passed)
        lines.append(f"{r.id},{passed},{len(r.claims)},{r.status}")
    return lines


def parse_config(path):
    """`key = value` per line, `#` comments, UTF-8. Returns raw string pairs;
    a key given twice raises ValueError."""
    pairs = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs
