"""Experiment registry, batch execution, and machine-readable reporting.

Every experiment is a pure function of its parameters: its runner returns
RatioCheck claims and its files as data (CSV tables with one header row and
floats at 17 significant digits, or raw bytes) and touches no file. `run`
makes the experiment's directory, or, if it is already there, deletes the
tables that its previous report.json lists. Once the runner has returned it
writes the new files, each formatted once to bytes and written to a temporary
file that is then renamed over the final name, then the report record, so a
failed experiment leaves only report.json. report.json is compact JSON with
each claim on a line of its own.
Running the same configuration twice must produce byte-identical tables.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bohm, dirac, hopping, kerr_newman, lin_gravity
from .constants import (BUILTIN_PARTICLES, CGS, RatioCheck, compton_wavelength,
                        coupling_identities, extreme_scales, gravity_em_ratio,
                        half_compton_wavelength, monopole_strength)


def fmt(x):
    """17-significant-digit decimal, enough to round-trip a float64."""
    return f"{float(x):.17g}"


def _atomic_write_bytes(path, data):
    path = os.fspath(path)
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
    os.replace(tmp, path)


def atomic_write_text(path, text):
    _atomic_write_bytes(path, text.encode("utf-8"))


def write_table(path, header, rows):
    """One header line, then one line per row. An all-numeric 2-D array is
    formatted in one `%` call over its values, with the bytes of `fmt`; other
    rows go cell by cell. A row whose width is not the header's raises
    ValueError."""
    width = len(header)
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "fiu":
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"table {os.path.basename(path)}: rows of shape "
                             f"{rows.shape} under {width} header columns")
        body = ((",".join(["%.17g"] * width) + "\n") * len(rows)) % tuple(
            rows.ravel().tolist())
    else:
        lines = []
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"table {os.path.basename(path)}: row {i} has "
                                 f"{len(row)} cells under {width} header columns")
            lines.append(",".join(cell if isinstance(cell, str) else fmt(cell)
                                  for cell in row) + "\n")
        body = "".join(lines)
    atomic_write_text(path, ",".join(header) + "\n" + body)


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    parameters: dict
    output_dir: Path

    def __post_init__(self):
        if self.id not in EXPERIMENTS:
            raise ValueError(f"unknown experiment id {self.id!r}")


@dataclass
class ExperimentReport:
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


@dataclass(frozen=True)
class Param:
    """A parameter's default and its domain: the interval from `lo` to `hi`
    (`lo` excluded when `lo_open`) or the set `choices`. The one parameter
    with neither, `widths`, is checked by `_scan_widths`."""
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
        if p.choices is None and p.lo is None:
            _scan_widths(params[key])
        elif not p.contains(params[key]):
            raise ValueError(f"parameter {key!r} must be {p.domain()}; "
                             f"got {params[key]!r}")
    if exp.rule is not None:
        exp.rule(params)
    return params


# --------------------------------------------------------------------------
# runners: params -> (claims, {file name: (header, rows) or bytes})

def _run_constants_report(params):
    p = BUILTIN_PARTICLES[params["particle"]]
    claims = list(coupling_identities(p))
    claims.append(RatioCheck.relative("charge-to-gravity-magnitude",
                                      p.charge**2 / (CGS.G * p.mass**2),
                                      4.17e42, 0.01))
    claims.append(gravity_em_ratio(p))

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
        ["y_over_c2", scales["y_over_c2"]],
        ["p_times_a_over_hbar", scales["p_times_a_over_hbar"]],
    ]
    return claims, {
        "ratios.csv": (["id", "computed", "reference", "tolerance_kind", "tolerance",
                        "passed"], rows),
        "scales.csv": (["quantity", "value"], extra),
    }


def _vortex_stage(n, dx):
    """Circulation rows and quanta, the velocity-profile deviation, and the R
    snapshot of a unit vortex, built from its real R and S; the half-winding
    field is built only on the box that holds the mid loop."""
    f = bohm.vortex_fields(n, dx, core_radius=2 * dx)
    x = bohm.centered_axis(n, dx)
    c0 = n // 2
    loops = {
        "inner": (c0 - 10, c0 - 10, c0 + 10, c0 + 10),
        "mid": (c0 - 25, c0 - 20, c0 + 18, c0 + 24),
        "outer": (c0 - 50, c0 - 50, c0 + 50, c0 + 50),
    }
    rows = []
    quanta = {}
    for name, corners in loops.items():
        res = bohm.circulation(f, bohm.LoopPath.rectangle(*corners))
        quanta[name] = res.half_quanta
        rows.append([name, res.gamma, res.half_quanta, res.residual])

    i0, j0, i1, j1 = loops["mid"]
    half = _half_winding_box(x, i0, j0, max(i1 - i0, j1 - j0) + 1, dx)
    res_half = bohm.circulation(half, bohm.LoopPath.rectangle(0, 0, i1 - i0, j1 - j0))
    rows.append(["half-winding", res_half.gamma, res_half.half_quanta,
                 res_half.residual])

    profile_dev = float(np.max(_profile_deviations(f, x)))
    # the snapshot last, once S is freed: it copies R
    R = f.R
    del f
    snapshot = bohm.encode_field(R, dx, label="vortex amplitude R")
    return rows, quanta, res_half.half_quanta, profile_dev, snapshot


def _profile_deviations(f, x):
    """|r |v| - 1| of a unit vortex at the off-node sites with
    4 dx <= r <= n dx / 4, in row-major order. v is computed only on the
    central box that holds that annulus, plus the 2-node halo of the gradient
    stencil, which is then dropped."""
    n, dx = f.n, f.dx
    lo, hi = n // 2 - n // 4, n // 2 + n // 4 + 1
    halo = slice(lo - 2, hi + 2)
    v = replace(f, R=f.R[halo, halo], S=f.S[halo, halo],
                node_mask=f.node_mask[halo, halo]).v[:, 2:-2, 2:-2]
    speed = np.hypot(v[0], v[1])
    r = np.hypot(x[lo:hi, None], x[None, lo:hi])
    sel = (r >= 4 * dx) & (r <= n * dx / 4) & ~f.node_mask[lo:hi, lo:hi]
    return np.abs(speed[sel] * r[sel] - 1.0)


def _half_winding_box(x, i0, j0, size, dx):
    """The two-sheeted field S = azimuth/2, R = 1 on the size x size box of
    nodes from (i0, j0) of the grid with node coordinates x."""
    X, Y = np.meshgrid(x[i0:i0 + size], x[j0:j0 + size], indexing="ij")
    return bohm.synthetic_fields(np.ones((size, size)), 0.5 * np.arctan2(Y, X), dx,
                                 phase_period=math.pi)


def _continuity_stage(n):
    """Continuity residual of a free packet evolved to 399, 400 and 401 steps;
    the packet is a product state, so this runs on its 1-D factors."""
    dx = 40.0 / n
    fa, fb = (bohm.gaussian_factor(n, dx, sigma=1.5, k=kc) for kc in (1.0, 0.5))
    return bohm.product_continuity_residual(fa, fb, dx, 5e-4, 400)


def _harmonic_stage(n):
    """Std of Q + V over a stationary harmonic state (constant at E). R and V
    are separable, so Q + V = h(x) + h(y) with h = q + x^2/2."""
    dx = 16.0 / n
    ra = np.abs(bohm.gaussian_factor(n, dx, sigma=math.sqrt(0.5)))
    return bohm.product_q_plus_v_std(ra, dx, lambda x: x**2 / 2)


def _run_bohm_vortex(params):
    # one stage at a time, so each stage's grids are freed before the next;
    # the vortex stage last, so its snapshot is not held through the others
    n = params["grid"]
    continuity = _continuity_stage(n)
    q_std = _harmonic_stage(n)
    rows, quanta, half_quanta, profile_dev, (snapshot, sidecar) = _vortex_stage(
        n, params["dx"])
    spread = max(quanta.values()) - min(quanta.values())
    claims = [
        RatioCheck.relative("unit-winding-m-gamma-over-h",
                            quanta["mid"] / 2, 1.0, 0.01,
                            note="m*Gamma/h; half_quanta of a unit vortex is 2"),
        RatioCheck.upper_bound("loop-independence-spread", spread, 1e-3),
        RatioCheck.relative("half-winding-m-gamma-over-half-h",
                            half_quanta, 1.0, 1e-3),
        RatioCheck.upper_bound("velocity-profile-deviation", profile_dev,
                               params["profile_tol"]),
        RatioCheck.upper_bound("continuity-residual", continuity, 1e-3),
        RatioCheck.upper_bound("stationary-q-constancy-std", q_std, 1e-3,
                               note="std of Q+V against E = 1"),
    ]
    return claims, {
        "circulation.csv": (["loop_id", "gamma", "half_quanta", "residual"], rows),
        "vortex_R.grid": snapshot,
        "vortex_R.grid.txt": sidecar,
    }


def _run_ring_model(params):
    """Thin luminal rings of winding n = 1, 2: radius n hbar/(2 m c) and
    energy m c^2 in closed form, and the n = 1 ring's mass and spin summed
    over 4096 elements. On a ring m c (closed-integral ds) = 2 pi S_z, so the
    action n h/2 holds when S_z = hbar/2."""
    p = BUILTIN_PARTICLES[params["particle"]]
    rows = [[n, p.mass, n * CGS.hbar / (2 * p.mass * CGS.c), p.mass * CGS.c**2]
            for n in (1, 2)]
    (_, _, r1, energy), (_, _, r2, _) = rows
    ring = lin_gravity.ShellSource.ring(p.mass, r1, 4096, CGS.c)
    claims = [
        RatioCheck.relative("ring-radius-n1", r1, half_compton_wavelength(p), 1e-12),
        RatioCheck.relative("ring-energy", energy, p.mass * CGS.c**2, 1e-12),
        RatioCheck.relative("ring-radius-doubling", r2 / r1, 2.0, 1e-12),
        RatioCheck.relative("ring-energy-quadrature",
                            lin_gravity.mass_integral(ring) * CGS.c**2 / energy,
                            1.0, 1e-10),
        RatioCheck.relative("ring-action-quadrature",
                            lin_gravity.spin_integral(ring) / (CGS.hbar / 2), 1.0, 1e-10),
    ]
    return claims, {"ring.csv": (["winding", "mass_g", "radius_cm", "energy_erg"],
                                 rows)}


def _run_hopping_dispersion(params):
    spec = hopping.ChainSpec(params["sites"], params["b"], params["e0"], params["a"])
    disp = hopping.dispersion(spec)
    # E(k) vs E(-k) symmetry over the paired modes
    k = disp.k
    e_of = dict(zip(k.tolist(), disp.energies.tolist()))
    sym = max(abs(e_of[kk] - e_of[-kk]) for kk in k.tolist() if -kk in e_of)
    zero_idx = int(np.argmin(np.abs(k)))
    claims = [
        RatioCheck.relative("effective-mass-fit", disp.agreement, 1.0, 0.01),
        RatioCheck.upper_bound("dispersion-symmetry", sym,
                               1e-10 * max(abs(disp.energies).max(), 1.0)),
        RatioCheck.relative("band-minimum-at-zero",
                            disp.energies[zero_idx], float(disp.energies.min()),
                            1e-12),
    ]
    return claims, {"dispersion.csv": (["k", "E_k"],
                                       np.column_stack((disp.k, disp.energies)))}


def _run_emergent_mass(params):
    spec = hopping.ChainSpec(params["sites"], params["b"], 2 * params["a"], params["a"])
    x = spec.coordinates()
    sigma0 = 6 * spec.b
    psi0 = hopping.AmplitudeVector(np.exp(-x**2 / (2 * sigma0**2)))

    # whole-chain window: U == 1 at every site
    whole = hopping.NonlocalKernel((spec.n_sites // 2) * spec.b * 1.5, spec.b)
    em1, _, _ = hopping.self_consistent_mass(spec, whole, psi0)

    # half-chain window
    half_extent = (spec.n_sites // 2) * spec.b
    kern = hopping.NonlocalKernel.for_chain(spec, half_extent / 2 - 8 * spec.b)
    em2, _, hist2 = hopping.self_consistent_mass(spec, kern, psi0)

    m0_seq = [h[1] for h in hist2]
    worst_rise = max((m0_seq[i + 1] - m0_seq[i] for i in range(len(m0_seq) - 1)),
                     default=0.0)

    # k = 0 eigenvalue of the (circulant, so any-N) linearized Hamiltonian equals m0
    h_lin = hopping.hamiltonian(hopping.ChainSpec(16, spec.b, 2 * spec.a, spec.a),
                                constant_shift=em2.m0)
    ground = float(np.linalg.eigvalsh(h_lin)[0])

    claims = [
        RatioCheck.relative("whole-window-m0", em1.m0, 1.0, 1e-12),
        RatioCheck.relative("whole-window-iterations", float(em1.iterations), 1.0, 0.0),
        RatioCheck.relative("windowed-converged", 1.0 if em2.converged else 0.0,
                            1.0, 0.0),
        RatioCheck.interval("windowed-m0-open-unit-interval", em2.m0, 1e-12, 1.0),
        RatioCheck.upper_bound("monotone-iterates", max(0.0, worst_rise), 1e-12),
        RatioCheck.relative("zero-mode-eigenvalue", ground, em2.m0, 1e-8),
    ]
    return claims, {"convergence.csv": (["iter", "m0", "delta"], hist2)}


def _run_dispersion_vs_relativity(params):
    spec = hopping.ChainSpec(params["sites"], params["b"], 2 * params["a"], params["a"])
    x = spec.coordinates()
    psi0 = hopping.AmplitudeVector(np.exp(-x**2 / (2 * (6 * spec.b) ** 2)))
    whole = hopping.NonlocalKernel((spec.n_sites // 2) * spec.b * 1.5, spec.b)
    em, _, _ = hopping.self_consistent_mass(spec, whole, psi0)

    mc = em.m  # c = 1
    checks_small, dev_small = hopping.emergent_hamiltonian_check(
        em, params["p_max_frac"] * mc)
    _, dev_large = hopping.emergent_hamiltonian_check(em, mc)

    p = np.linspace(0.0, mc, 65)
    e_nr = p**2 / (2 * em.m) + em.m
    e_rel = np.sqrt(p**2 + em.m**2)

    claims = list(checks_small)
    claims.append(RatioCheck.upper_bound("small-p-deviation", dev_small, 1.5e-5))
    claims.append(RatioCheck.relative("luminal-p-deviation", dev_large,
                                      1.5 - math.sqrt(2.0), 1e-3,
                                      note="deviation at p = mc"))
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
                               averaged.fit.amplitude / f.amplitude,
                               1.0 / params["suppress_factor"]),
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


def _scan_widths(raw):
    """Colon-separated packet widths; the claims read the entries 1 and 100."""
    try:
        widths = [float(w) for w in str(raw).split(":")]
    except ValueError as exc:
        raise ValueError(f"invalid value {raw!r} for parameter 'widths'") from exc
    if not (len(widths) <= 64 and all(0.01 <= w <= 1e4 for w in widths)
            and all(a < b for a, b in zip(widths, widths[1:]))
            and {1.0, 100.0} <= set(widths)):
        raise ValueError(f"parameter 'widths' must be at most 64 strictly increasing "
                         f"widths in [0.01, 1e4] that include 1 and 100; got {raw!r}")
    return widths


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
    widths = _scan_widths(params["widths"])
    w_minus, w_plus = (w.tolist() for w in _branch_weights(widths))
    w_by_sigma = dict(zip(widths, w_minus))
    rises = [b - a for a, b in zip(w_minus, w_minus[1:])]
    packet = dirac.build_gaussian(sigma_x=1.0, x0=0.0, p0=0.0, seed=(1, 0))
    pure = dirac.project_branch(packet, +1)

    claims = [
        RatioCheck.relative("branch-weights-sum", w_minus[0] + w_plus[0], 1.0, 1e-12),
        RatioCheck.upper_bound("monotone-in-width",
                               max(0.0, max(rises)), 1e-15),
        RatioCheck.interval("compton-width-fraction", w_by_sigma[1.0], 1e-2, 1.0),
        RatioCheck.upper_bound("wide-packet-fraction", w_by_sigma[100.0], 1e-4),
        RatioCheck.upper_bound("pure-branch-fraction",
                               dirac.energy_fractions(pure).w_minus, 1e-14),
    ]
    return claims, {"neg_energy.csv": (["sigma_over_compton", "w_minus", "w_plus"],
                                       list(zip(widths, w_minus, w_plus)))}


def _run_kn_horizon(params):
    p = BUILTIN_PARTICLES[params["particle"]]
    kp = kerr_newman.KNParams.from_particle(p)
    hz = kerr_newman.horizons(kp)

    rows = []
    for name in MASSIVE:
        kpp = kerr_newman.KNParams.from_particle(BUILTIN_PARTICLES[name])
        hh = kerr_newman.horizons(kpp)
        rows.append([name, kpp.m_star, kpp.a_star, kpp.q_star,
                     hh.r_plus.real, hh.r_plus.imag, str(hh.naked)])

    schw = kerr_newman.KNParams(mass=CGS.c**2 / CGS.G, charge=0.0,
                                angular_momentum=0.0)
    hs = kerr_newman.horizons(schw)

    product = hz.r_plus * hz.r_minus
    target = kp.q_star**2 + kp.a_star**2
    claims = [
        RatioCheck.relative("naked-horizon-imag", hz.r_plus.imag,
                            half_compton_wavelength(p), 1e-3),
        RatioCheck.relative("naked-horizon-real", hz.r_plus.real, kp.m_star, 1e-3),
        RatioCheck.relative("naked-flag", 1.0 if hz.naked else 0.0, 1.0, 0.0),
        RatioCheck.relative("schwarzschild-r-plus", hs.r_plus.real,
                            2 * schw.m_star, 1e-12),
        RatioCheck.relative("root-sum", (hz.r_plus + hz.r_minus).real,
                            2 * kp.m_star, 1e-12),
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


def _run_metric_slice(params):
    a = params["a"]
    eps = params["eps"]
    lam = params["lam"]
    s = kerr_newman.metric_slice(a, eps * a, eps * a, a, math.pi / 2, lam)
    null = kerr_newman.metric_slice(a, eps * a, eps * a, a, math.pi / 2,
                                    1 / math.sqrt(2))
    rows = []
    for lam_i in np.linspace(0.1, 1.0, 10):
        si = kerr_newman.metric_slice(a, eps * a, eps * a, a, math.pi / 2,
                                      float(lam_i))
        rows.append([lam_i, si.dt2_coeff, si.dr2_coeff, si.doubling_factor])

    claims = [
        RatioCheck.relative("corotating-dt2-coefficient", s.dt2_coeff, -0.5, 2e-6),
        RatioCheck.relative("corotating-dr2-coefficient", s.dr2_coeff, 0.5, 2e-6),
        RatioCheck.upper_bound("null-slice-dt2", abs(null.dt2_coeff), 1e-6),
    ]
    return claims, {"slices.csv": (["lam", "dt2_coeff", "dr2_coeff", "doubling_factor"],
                                   rows)}


def _run_shell_spin(params):
    p = BUILTIN_PARTICLES[params["particle"]]
    radius = lin_gravity.default_radius(p)
    ring = lin_gravity.ShellSource.ring(p.mass, radius, params["ring_elements"], CGS.c)
    ring2 = lin_gravity.ShellSource.ring(p.mass, 2 * radius, params["ring_elements"],
                                         CGS.c)
    sphere = lin_gravity.ShellSource.sphere(p.mass, radius,
                                            params["sphere_elements"], CGS.c)

    spin_ring = lin_gravity.spin_integral(ring)
    spin_ring2 = lin_gravity.spin_integral(ring2)
    spin_sphere = lin_gravity.spin_integral(sphere)
    mass_q = lin_gravity.mass_integral(ring)

    r_far = 1e4 * radius
    r_values = np.geomspace(100 * radius, r_far, 13)  # ends on r_far exactly
    phi = lin_gravity.far_potential(ring, r_values, theta=0.0)
    a0, *_ = lin_gravity.shell_trace_a0(ring, r_values)

    hbar = CGS.hbar
    claims = [
        RatioCheck.relative("ring-spin-half-hbar", spin_ring, hbar / 2, 1e-6),
        RatioCheck.relative("sphere-spin-pi-eighth-hbar", spin_sphere,
                            math.pi * hbar / 8, 1e-4,
                            note="shell average sin(theta) = pi/4: the exactness "
                                 "claim holds for the ring only"),
        RatioCheck.relative("double-radius-spin", spin_ring2, hbar, 1e-6),
        RatioCheck.relative("mass-quadrature", mass_q, p.mass, 1e-12),
        RatioCheck.relative("far-potential-monopole", phi[-1],
                            -CGS.G * p.mass / r_far, 1e-8),
    ]
    return claims, {"far_zone.csv": (["r", "phi", "A0"],
                                     np.column_stack((r_values, phi, a0)))}


def _run_charge_confinement(params):
    p = BUILTIN_PARTICLES[params["particle"]]
    radius = lin_gravity.default_radius(p)
    ring = lin_gravity.ShellSource.ring(p.mass, radius, params["elements"], CGS.c)
    claims = list(lin_gravity.charge_estimate(ring, p))

    r_values = np.geomspace(100 * radius, 1e4 * radius, 17)
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


# The particle experiments take the massive catalog entries: the Compton
# scales, shell radii and horizon widths all divide by the mass.
MASSIVE = tuple(name for name, p in BUILTIN_PARTICLES.items() if p.mass > 0)
PARTICLE = Param("electron", choices=MASSIVE)
# constants-report's and charge-confinement's references (4.17e42, 137.04,
# 1e40, 2.79) are electron numbers
ELECTRON = Param("electron", choices=("electron",))
# hopping-dispersion's fit window |k b| <= 0.1 holds 5 modes from 126 sites on
SITES, LENGTH, ELEMENTS = (128, 4096), (1e-3, 1e3), (16, 1 << 14)

EXPERIMENTS = {}
for _exp in [
    Experiment("constants-report",
               "coupling, charge-gravity, and shell-identity ratio checks",
               {"particle": ELECTRON}, _run_constants_report),
    Experiment("bohm-vortex",
               "vortex circulation quantization, continuity, Q constancy",
               # the outer loop reaches 50 sites from the centre; 2048^2
               # complex128 is 64 MiB per array, and a run's tracemalloc peak
               # is 1.78 such arrays there (1.94 at 256, 2.08 at 128)
               {"grid": Param(256, choices=(128, 256, 512, 1024, 2048)),
                "dx": Param(0.1, *LENGTH), "profile_tol": Param(0.02, 0, 1, True)},
               _run_bohm_vortex),
    Experiment("ring-model", "thin-ring radius/energy with quadrature identities",
               {"particle": PARTICLE}, _run_ring_model),
    Experiment("hopping-dispersion", "chain spectrum and curvature mass fit",
               {"sites": Param(256, *SITES), "b": Param(0.3, *LENGTH),
                "e0": Param(1.4, -1e3, 1e3), "a": Param(0.7, *LENGTH)},
               _run_hopping_dispersion),
    Experiment("emergent-mass", "self-consistent window mass fixed point",
               {"sites": Param(512, *SITES), "b": Param(0.25, *LENGTH),
                "a": Param(0.9, *LENGTH)}, _run_emergent_mass),
    Experiment("dispersion-vs-relativity",
               "quadratic-plus-rest spectrum against the relativistic energy",
               {"sites": Param(512, *SITES), "b": Param(0.25, *LENGTH),
                # small-p-deviation's 1.5e-5 is about p_max_frac^4 / 8
                "a": Param(0.9, *LENGTH), "p_max_frac": Param(0.1, 0, 0.1, True)},
               _run_dispersion_vs_relativity),
    Experiment("zbw", "zitterbewegung frequency, amplitude, and averaging",
               # time_average's window, one zbw period, is under a quarter of
               # the trace only for periods > 4
               {"sigma": Param(10.0, 1, 1e3), "periods": Param(6.0, 4, 64, True),
                "samples": Param(768, 256, 4096), "omega_tol": Param(0.05, 0, 1, True),
                "suppress_factor": Param(10.0, 0, 1e6, True)}, _run_zbw, _zbw_rule),
    Experiment("neg-energy-scan", "negative-branch weight versus packet width",
               {"widths": Param("0.5:1:2:5:10:100")}, _run_neg_energy_scan),
    Experiment("kn-horizon", "complex horizon roots and the naked predicate",
               {"particle": PARTICLE}, _run_kn_horizon),
    Experiment("kn-fields", "far-zone multipoles, g = 2, divergence-free dipole",
               # the far zone starts at 100 a* = 1.9e-9 cm for the electron
               {"particle": PARTICLE, "r": Param(1.0, 1e-8, 1e8)}, _run_kn_fields),
    Experiment("metric-slice", "corotating and null slice coefficients",
               {"a": Param(1.0, 1e-6, 1e6), "eps": Param(1e-8, 0, 1),
                "lam": Param(0.5, 0.01, 1)}, _run_metric_slice),
    Experiment("shell-spin", "ring/shell spin and far-potential quadrature",
               # sphere-spin-pi-eighth-hbar's 1e-4 needs about 400 shell
               # elements (error 3.9e-5 there, falling as N^-1.5)
               {"particle": PARTICLE, "ring_elements": Param(1024, *ELEMENTS),
                "sphere_elements": Param(10000, 400, ELEMENTS[1])}, _run_shell_spin),
    Experiment("charge-confinement",
               "charge magnitude arithmetic and the Coulomb-plus-linear fit",
               {"particle": ELECTRON, "elements": Param(1024, *ELEMENTS),
                # confinement-ratio-scale: the ratio is 8 m^2, within 1.5 decades
                # of 1 only for m in [0.0629, 1.988] GeV; rounded inward
                "quark_mass_gev": Param(1.8, 0.065, 1.95)}, _run_charge_confinement),
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
    """Execute one experiment into its directory: make it, or clear the tables
    of the report.json already there, write the runner's files once it has
    returned (so a failure writes none of them), then report.json."""
    exp = EXPERIMENTS[spec.id]
    outdir = os.fspath(spec.output_dir)
    try:
        os.mkdir(outdir)
    except FileNotFoundError:
        os.makedirs(outdir)
    except FileExistsError:
        if not os.path.isdir(outdir):
            raise
        _clear_previous_tables(outdir)
    start = time.perf_counter()
    error = ""
    claims, tables = [], []
    try:
        params = resolve_parameters(exp, spec.parameters)
        claims, outputs = exp.runner(params)
        for name, content in outputs.items():
            path = os.path.join(outdir, name)
            if isinstance(content, bytes):
                _atomic_write_bytes(path, content)
            else:
                write_table(path, *content)
            tables.append(name)
    except Exception as exc:  # recorded, not raised: run-all must continue
        error = f"{spec.id}: {type(exc).__name__}: {exc}"
    report = ExperimentReport.build(spec.id, claims, tables,
                                    time.perf_counter() - start, error=error)
    atomic_write_text(os.path.join(outdir, "report.json"), _report_json(report))
    return report


def run_all(out_root, overrides=None, only=None):
    """Run the registered experiments; returns (reports, failure count).

    `overrides` maps "experiment.param" -> raw value, and a key that names no
    registered experiment or no parameter raises ValueError before anything
    runs; `only`, when not None, restricts the run to the listed ids (an
    empty list runs nothing).
    """
    overrides = overrides or {}
    out_root = Path(out_root)
    ids = list(EXPERIMENTS)
    if only is not None:
        unknown = [i for i in only if i not in EXPERIMENTS]
        if unknown:
            raise ValueError(f"unknown experiment ids in filter: {unknown}")
        ids = [i for i in ids if i in set(only)]
    params = {exp_id: {} for exp_id in ids}
    for key, value in overrides.items():
        prefix, _, name = key.partition(".")
        if prefix not in EXPERIMENTS or name not in EXPERIMENTS[prefix].params:
            raise ValueError(f"override {key!r} is not "
                             f"`<registered experiment id>.<parameter>`")
        if prefix in params:
            params[prefix][name] = value
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
    text = Path(path).read_text(encoding="utf-8")
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
