"""Experiment registry, batch execution, and machine-readable reporting.

Every experiment is a pure function of its parameters: it writes CSV tables
(one header row, floats at 17 significant digits) plus a report record into
its own output directory, and returns a list of RatioCheck claims. File
writes go through a temp-file-then-rename so a crash never leaves a partial
table behind. Running the same configuration twice must produce
byte-identical tables.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bohm, dirac, hopping, kerr_newman, lin_gravity
from .constants import (BUILTIN_PARTICLES, CGS, RatioCheck, compton_wavelength,
                        coupling_identities, extreme_scales, gravity_em_ratio,
                        half_compton_wavelength, monopole_strength)


def fmt(x):
    """17-significant-digit decimal, enough to round-trip a float64."""
    return f"{float(x):.17g}"


def atomic_write_text(path, text):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_table(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt(cell)
                              for cell in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


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
class Experiment:
    id: str
    description: str
    defaults: dict
    runner: object = field(repr=False)


def _coerce(default, raw, key):
    try:
        value = raw if isinstance(raw, type(default)) else type(default)(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid value {raw!r} for parameter {key!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r} for parameter {key!r}")
    return value


def resolve_parameters(exp, given):
    params = dict(exp.defaults)
    for key, raw in given.items():
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for experiment {exp.id!r}")
        params[key] = _coerce(params[key], raw, key)
    return params


def _particle(name):
    if name not in BUILTIN_PARTICLES:
        raise ValueError(f"unknown particle {name!r}")
    return BUILTIN_PARTICLES[name]


# --------------------------------------------------------------------------
# runners: (params, outdir) -> (claims, table file names)

def _run_constants_report(params, outdir):
    p = _particle(params["particle"])
    claims = list(coupling_identities(p))
    claims.append(RatioCheck.relative("charge-to-gravity-magnitude",
                                      p.charge**2 / (CGS.G * p.mass**2),
                                      4.17e42, 0.01))
    claims.append(gravity_em_ratio(p))

    rows = [[c.id, c.computed, c.reference, c.tolerance_kind, c.tolerance,
             str(c.passed)] for c in claims]
    write_table(outdir / "ratios.csv",
                ["id", "computed", "reference", "tolerance_kind", "tolerance", "passed"],
                rows)

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
    write_table(outdir / "scales.csv", ["quantity", "value"], extra)
    return claims, ["ratios.csv", "scales.csv"]


def _run_bohm_vortex(params, outdir):
    n = params["grid"]
    dx = params["dx"]
    if n < 128:
        raise ValueError(f"parameter 'grid' must be at least 128: the outer loop "
                         f"reaches 50 sites from the centre; got {n}")
    grid = bohm.vortex_state(n, dx, core_radius=2 * dx)
    f = bohm.decompose(grid)
    c0 = n // 2
    loops = {
        "inner": bohm.LoopPath.rectangle(c0 - 10, c0 - 10, c0 + 10, c0 + 10),
        "mid": bohm.LoopPath.rectangle(c0 - 25, c0 - 20, c0 + 18, c0 + 24),
        "outer": bohm.LoopPath.rectangle(c0 - 50, c0 - 50, c0 + 50, c0 + 50),
    }
    rows = []
    quanta = {}
    for name, loop in loops.items():
        res = bohm.circulation(f, loop)
        quanta[name] = res.half_quanta
        rows.append([name, res.gamma, res.half_quanta, res.residual])

    x = grid.axis()
    X, Y = np.meshgrid(x, x, indexing="ij")
    phi = np.arctan2(Y, X)
    half = bohm.synthetic_fields(np.ones((n, n)), 0.5 * phi, dx,
                                 phase_period=math.pi)
    res_half = bohm.circulation(half, loops["mid"])
    rows.append(["half-winding", res_half.gamma, res_half.half_quanta,
                 res_half.residual])
    write_table(outdir / "circulation.csv",
                ["loop_id", "gamma", "half_quanta", "residual"], rows)

    spread = max(quanta.values()) - min(quanta.values())

    r = np.hypot(X, Y)
    speed = np.hypot(f.v[0], f.v[1])
    sel = (r >= 4 * dx) & (r <= n * dx / 4) & ~f.node_mask
    profile_dev = float(np.max(np.abs(speed[sel] * r[sel] - 1.0)))

    # continuity of an evolved free packet
    g0 = bohm.gaussian_state(n, 40.0 / n, sigma=1.5, k=(1.0, 0.5))
    dt = 5e-4
    mid = bohm.evolve(g0, dt, 400)
    before = bohm.evolve(g0, dt, 399)
    after = bohm.evolve(g0, dt, 401)
    continuity = bohm.continuity_residual(before, mid, after, dt)

    # stationary harmonic state: Q + V constant at E
    l_box = 16.0
    dxh = l_box / n
    xh = (np.arange(n) - n // 2) * dxh
    XH, YH = np.meshgrid(xh, xh, indexing="ij")
    psi = np.exp(-(XH**2 + YH**2) / 2).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dxh**2)
    gh = bohm.WaveGrid2D(psi, dxh)
    fh = bohm.decompose(gh)
    q = bohm.quantum_potential(fh)
    total = q + (XH**2 + YH**2) / 2
    q_std = float(total[~fh.node_mask].std())

    bohm.save_field(outdir / "vortex_R.grid", f.R, dx, label="vortex amplitude R")

    claims = [
        RatioCheck.relative("unit-winding-m-gamma-over-h",
                            quanta["mid"] / 2, 1.0, 0.01,
                            note="m*Gamma/h; half_quanta of a unit vortex is 2"),
        RatioCheck.upper_bound("loop-independence-spread", spread, 1e-3),
        RatioCheck.relative("half-winding-m-gamma-over-half-h",
                            res_half.half_quanta, 1.0, 1e-3),
        RatioCheck.upper_bound("velocity-profile-deviation", profile_dev,
                               params["profile_tol"]),
        RatioCheck.upper_bound("continuity-residual", continuity, 1e-3),
        RatioCheck.upper_bound("stationary-q-constancy-std", q_std, 1e-3,
                               note="std of Q+V against E = 1"),
    ]
    return claims, ["circulation.csv", "vortex_R.grid", "vortex_R.grid.txt"]


def _run_ring_model(params, outdir):
    p = _particle(params["particle"])
    m1 = bohm.ring_model(1, p.mass)
    m2 = bohm.ring_model(2, p.mass)
    checks1 = bohm.ring_quadrature_checks(m1)
    rows = [[m.winding, m.mass, m.radius, m.energy] for m in (m1, m2)]
    write_table(outdir / "ring.csv", ["winding", "mass_g", "radius_cm", "energy_erg"],
                rows)
    claims = [
        RatioCheck.relative("ring-radius-n1", m1.radius,
                            half_compton_wavelength(p), 1e-12),
        RatioCheck.relative("ring-energy", m1.energy, p.mass * CGS.c**2, 1e-12),
        RatioCheck.relative("ring-radius-doubling", m2.radius / m1.radius, 2.0, 1e-12),
        RatioCheck.relative("ring-energy-quadrature",
                            checks1["energy_over_mc2"], 1.0, 1e-10),
        RatioCheck.relative("ring-action-quadrature",
                            checks1["action_over_nh_half"], 1.0, 1e-10),
    ]
    return claims, ["ring.csv"]


def _run_hopping_dispersion(params, outdir):
    spec = hopping.ChainSpec(params["sites"], params["b"], params["e0"], params["a"])
    disp = hopping.dispersion(spec)
    write_table(outdir / "dispersion.csv", ["k", "E_k"],
                list(zip(disp.k, disp.energies)))
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
        RatioCheck.relative("m-prime-unit-case",
                            hopping.ChainSpec(64, 1.0, 2.0, 1.0).m_prime(), 0.5, 1e-15),
        RatioCheck.relative("m-prime-doubled-spacing",
                            hopping.ChainSpec(64, 2.0, 2.0, 1.0).m_prime(), 0.125, 1e-15),
    ]
    return claims, ["dispersion.csv"]


def _run_emergent_mass(params, outdir):
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
    write_table(outdir / "convergence.csv", ["iter", "m0", "delta"], hist2)

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
    return claims, ["convergence.csv"]


def _run_dispersion_vs_relativity(params, outdir):
    spec = hopping.ChainSpec(params["sites"], params["b"], 2 * params["a"], params["a"])
    x = spec.coordinates()
    psi0 = hopping.AmplitudeVector(np.exp(-x**2 / (2 * (6 * spec.b) ** 2)))
    whole = hopping.NonlocalKernel((spec.n_sites // 2) * spec.b * 1.5, spec.b)
    em, _, _ = hopping.self_consistent_mass(spec, whole, psi0)

    mc = em.m * em.c
    checks_small, dev_small = hopping.emergent_hamiltonian_check(
        em, params["p_max_frac"] * mc)
    _, dev_large = hopping.emergent_hamiltonian_check(em, mc)

    p = np.linspace(0.0, mc, 65)
    e_nr = p**2 / (2 * em.m) + em.m * em.c**2
    e_rel = np.sqrt(p**2 * em.c**2 + em.m**2 * em.c**4)
    write_table(outdir / "dispersion_vs_relativity.csv",
                ["p", "E_quadratic", "E_relativistic"],
                list(zip(p, e_nr, e_rel)))

    claims = list(checks_small)
    claims.append(RatioCheck.upper_bound("small-p-deviation", dev_small, 1.5e-5))
    claims.append(RatioCheck.relative("luminal-p-deviation", dev_large,
                                      1.5 - math.sqrt(2.0), 1e-3,
                                      note="deviation at p = mc"))
    return claims, ["dispersion_vs_relativity.csv"]


def _run_zbw(params, outdir):
    sigma = params["sigma"]
    packet = dirac.build_gaussian(sigma_x=sigma, x0=0.0, p0=0.0, seed=(1, 1))
    omega0 = packet.zbw_omega
    t_max = params["periods"] * 2 * math.pi / omega0
    trace = dirac.mean_position_trace(packet, t_max, params["samples"])
    write_table(outdir / "trace.csv", ["t", "x_mean"],
                list(zip(trace.times, trace.x_mean)))
    f = trace.fit
    write_table(outdir / "fit.csv", ["amplitude", "omega", "slope", "residual"],
                [[f.amplitude, f.omega, f.slope, f.rms_residual]])

    averaged = dirac.time_average(trace, math.pi * packet.hbar
                                  / (packet.mass * packet.c**2))
    write_table(outdir / "trace_averaged.csv", ["t", "x_mean"],
                list(zip(averaged.times, averaged.x_mean)))

    pure = dirac.project_branch(packet, +1)
    pure_trace = dirac.mean_position_trace(pure, t_max, params["samples"])

    vtrace = dirac.velocity_trace(packet, t_max, params["samples"])

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
    return claims, ["trace.csv", "fit.csv", "trace_averaged.csv"]


def _scan_widths(raw):
    """Colon-separated packet widths; the claims read the entries 1 and 100."""
    try:
        widths = [float(w) for w in str(raw).split(":")]
    except ValueError as exc:
        raise ValueError(f"invalid value {raw!r} for parameter 'widths'") from exc
    if not (all(math.isfinite(w) and w > 0 for w in widths)
            and all(a < b for a, b in zip(widths, widths[1:]))
            and {1.0, 100.0} <= set(widths)):
        raise ValueError(f"parameter 'widths' must be finite, positive, strictly "
                         f"increasing and include 1 and 100; got {raw!r}")
    return widths


def _run_neg_energy_scan(params, outdir):
    widths = _scan_widths(params["widths"])
    fractions = []
    for w in widths:
        packet = dirac.build_gaussian(sigma_x=w, x0=0.0, p0=0.0, seed=(1, 0))
        split = dirac.energy_fractions(packet)
        fractions.append((w, split.w_minus, split.w_plus))
    write_table(outdir / "neg_energy.csv",
                ["sigma_over_compton", "w_minus", "w_plus"], fractions)

    w_by_sigma = {w: wm for w, wm, _ in fractions}
    rises = [fractions[i + 1][1] - fractions[i][1] for i in range(len(fractions) - 1)]
    packet = dirac.build_gaussian(sigma_x=1.0, x0=0.0, p0=0.0, seed=(1, 0))
    pure = dirac.project_branch(packet, +1)

    claims = [
        RatioCheck.relative("branch-weights-sum",
                            fractions[0][1] + fractions[0][2], 1.0, 1e-12),
        RatioCheck.upper_bound("monotone-in-width",
                               max(0.0, max(rises)), 1e-15),
        RatioCheck.interval("compton-width-fraction", w_by_sigma[1.0], 1e-2, 1.0),
        RatioCheck.upper_bound("wide-packet-fraction", w_by_sigma[100.0], 1e-4),
        RatioCheck.upper_bound("pure-branch-fraction",
                               dirac.energy_fractions(pure).w_minus, 1e-14),
    ]
    return claims, ["neg_energy.csv"]


def _run_kn_horizon(params, outdir):
    p = _particle(params["particle"])
    kp = kerr_newman.KNParams.from_particle(p)
    hz = kerr_newman.horizons(kp)

    rows = []
    for name, part in BUILTIN_PARTICLES.items():
        if part.mass <= 0:
            continue
        kpp = kerr_newman.KNParams.from_particle(part)
        hh = kerr_newman.horizons(kpp)
        rows.append([name, kpp.m_star, kpp.a_star, kpp.q_star,
                     hh.r_plus.real, hh.r_plus.imag, str(hh.naked)])
    write_table(outdir / "horizons.csv",
                ["name", "M_star", "a_star", "Q_star", "re_r_plus", "im_r_plus",
                 "naked"], rows)

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
    return claims, ["horizons.csv"]


def _run_kn_fields(params, outdir):
    p = _particle(params["particle"])
    kp = kerr_newman.KNParams.from_particle(p)
    r = params["r"]
    thetas = np.linspace(0.05, math.pi - 0.05, 41)
    rows = []
    for th in thetas:
        s = kerr_newman.far_fields(kp, r, float(th))
        rows.append([s.r, s.theta, s.phi_grav, s.e_r, s.b_r, s.b_theta])
    write_table(outdir / "far_fields.csv",
                ["r", "theta", "phi", "E_r", "B_r", "B_theta"], rows)

    eq = kerr_newman.far_fields(kp, r, math.pi / 2)
    pole = kerr_newman.far_fields(kp, r, 0.0)
    near, far = kerr_newman.far_fields(kp, r, 1.0), kerr_newman.far_fields(kp, 2 * r, 1.0)
    div_worst = max(kerr_newman.div_b_residual(kp, r, float(th)) for th in thetas)

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
    return claims, ["far_fields.csv"]


def _run_metric_slice(params, outdir):
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
    write_table(outdir / "slices.csv",
                ["lam", "dt2_coeff", "dr2_coeff", "doubling_factor"], rows)

    claims = [
        RatioCheck.relative("corotating-dt2-coefficient", s.dt2_coeff, -0.5, 2e-6),
        RatioCheck.relative("corotating-dr2-coefficient", s.dr2_coeff, 0.5, 2e-6),
        RatioCheck.relative("azimuth-doubling-factor", s.doubling_factor, 2.0, 1e-15),
        RatioCheck.upper_bound("null-slice-dt2", abs(null.dt2_coeff), 1e-6),
    ]
    return claims, ["slices.csv"]


def _run_shell_spin(params, outdir):
    p = _particle(params["particle"])
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
    phi_far = lin_gravity.far_potential(ring, r_far, theta=0.0)

    r_values = np.geomspace(100 * radius, 1e4 * radius, 13)
    a0, slope, coeff = lin_gravity.shell_trace_a0(ring, r_values)
    rows = [[r, lin_gravity.far_potential(ring, float(r), theta=0.0), a]
            for r, a in zip(r_values, a0)]
    write_table(outdir / "far_zone.csv", ["r", "phi", "A0"], rows)

    hbar = CGS.hbar
    claims = [
        RatioCheck.relative("ring-spin-half-hbar", spin_ring, hbar / 2, 1e-6),
        RatioCheck.relative("sphere-spin-pi-eighth-hbar", spin_sphere,
                            math.pi * hbar / 8, 1e-4,
                            note="shell average sin(theta) = pi/4: the exactness "
                                 "claim holds for the ring only"),
        RatioCheck.relative("double-radius-spin", spin_ring2, hbar, 1e-6),
        RatioCheck.relative("mass-quadrature", mass_q, p.mass, 1e-12),
        RatioCheck.relative("far-potential-monopole", phi_far,
                            -CGS.G * p.mass / r_far, 1e-8),
    ]
    return claims, ["far_zone.csv"]


def _run_charge_confinement(params, outdir):
    p = _particle(params["particle"])
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
    write_table(outdir / "confinement_fit.csv",
                ["alpha_c", "sigma_l", "ratio", "ratio_closed_form"],
                [[fit.alpha_c, fit.sigma_l, fit.ratio, fit.ratio_closed_form]])
    write_table(outdir / "confinement_profile.csv", ["r", "h"],
                list(zip(samples, lin_gravity.confinement_profile(m_gev, samples))))

    claims.append(RatioCheck.relative("confinement-coefficient-ratio", fit.ratio,
                                      fit.ratio_closed_form, 0.01))
    claims.append(RatioCheck.order_of_magnitude("confinement-ratio-scale",
                                                fit.ratio, 1.0, 1.5,
                                                note="against the 1/hbar^2 GeV^2 scale"))
    return claims, ["confinement_fit.csv", "confinement_profile.csv"]


EXPERIMENTS = {}
for _exp in [
    Experiment("constants-report",
               "coupling, charge-gravity, and shell-identity ratio checks",
               {"particle": "electron"}, _run_constants_report),
    Experiment("bohm-vortex",
               "vortex circulation quantization, continuity, Q constancy",
               {"grid": 256, "dx": 0.1, "profile_tol": 0.02}, _run_bohm_vortex),
    Experiment("ring-model", "thin-ring radius/energy with quadrature identities",
               {"particle": "electron"}, _run_ring_model),
    Experiment("hopping-dispersion", "chain spectrum and curvature mass fit",
               {"sites": 256, "b": 0.3, "e0": 1.4, "a": 0.7},
               _run_hopping_dispersion),
    Experiment("emergent-mass", "self-consistent window mass fixed point",
               {"sites": 512, "b": 0.25, "a": 0.9}, _run_emergent_mass),
    Experiment("dispersion-vs-relativity",
               "quadratic-plus-rest spectrum against the relativistic energy",
               {"sites": 512, "b": 0.25, "a": 0.9, "p_max_frac": 0.1},
               _run_dispersion_vs_relativity),
    Experiment("zbw", "zitterbewegung frequency, amplitude, and averaging",
               {"sigma": 10.0, "periods": 6.0, "samples": 768, "omega_tol": 0.05,
                "suppress_factor": 10.0}, _run_zbw),
    Experiment("neg-energy-scan", "negative-branch weight versus packet width",
               {"widths": "0.5:1:2:5:10:100"}, _run_neg_energy_scan),
    Experiment("kn-horizon", "complex horizon roots and the naked predicate",
               {"particle": "electron"}, _run_kn_horizon),
    Experiment("kn-fields", "far-zone multipoles, g = 2, divergence-free dipole",
               {"particle": "electron", "r": 1.0}, _run_kn_fields),
    Experiment("metric-slice", "corotating slice coefficients and azimuthal doubling",
               {"a": 1.0, "eps": 1e-8, "lam": 0.5}, _run_metric_slice),
    Experiment("shell-spin", "ring/shell spin and far-potential quadrature",
               {"particle": "electron", "ring_elements": 1024,
                "sphere_elements": 10000}, _run_shell_spin),
    Experiment("charge-confinement",
               "charge magnitude arithmetic and the Coulomb-plus-linear fit",
               {"particle": "electron", "elements": 1024, "quark_mass_gev": 1.8},
               _run_charge_confinement),
]:
    EXPERIMENTS[_exp.id] = _exp


def run(spec):
    """Execute one experiment; tables and report.json land in its directory."""
    exp = EXPERIMENTS[spec.id]
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    error = ""
    claims, tables = [], []
    try:
        params = resolve_parameters(exp, spec.parameters)
        claims, tables = exp.runner(params, outdir)
    except Exception as exc:  # recorded, not raised: run-all must continue
        error = f"{spec.id}: {type(exc).__name__}: {exc}"
    report = ExperimentReport.build(spec.id, claims, tables,
                                    time.perf_counter() - start, error=error)
    atomic_write_text(outdir / "report.json",
                      json.dumps(report.to_dict(), indent=2) + "\n")
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
        if prefix not in EXPERIMENTS or not name:
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
