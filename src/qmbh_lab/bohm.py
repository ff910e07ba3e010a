"""2-D Schrödinger evolution and the Madelung/Bohm hydrodynamic picture.

The wavefunction is split as psi = R e^{iS}, which induces a fluid with
density rho = R^2, velocity v = (hbar/m) grad S, and quantum potential
Q = -(hbar^2/2m) lap(R)/R. Around a node the circulation

    Gamma = closed-integral of v . dr

is quantized by the phase winding; with the half-integer convention the
natural unit is pi*hbar/m per half quantum.

Evolution uses the symmetric split-step Fourier scheme on a periodic grid:
half potential kick, full kinetic step in k-space, half potential kick.
Grids default to natural units hbar = m = 1; the thin-ring particle model
at the bottom of the module is the one CGS-facing piece.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .constants import CGS

NODE_MASK_RELATIVE_THRESHOLD = 1e-8
SPLIT_STEP_ERROR_LIMIT = 1e-6


def _check_power_of_two_size(n):
    if n < 64 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 64, got {n}")


@dataclass
class WaveGrid2D:
    """Complex amplitudes on an N x N periodic grid with spacing dx."""

    psi: np.ndarray
    dx: float
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=np.complex128)
        if self.psi.ndim != 2 or self.psi.shape[0] != self.psi.shape[1]:
            raise ValueError("psi must be a square 2-D array")
        _check_power_of_two_size(self.psi.shape[0])
        if self.dx <= 0 or self.mass <= 0 or self.hbar <= 0:
            raise ValueError("dx, mass, hbar must be positive")
        if not np.all(np.isfinite(self.psi.view(np.float64))):
            raise ValueError("psi contains NaN or Inf")

    @property
    def n(self):
        return self.psi.shape[0]

    def axis(self):
        """Node coordinates along one axis, centered on the box."""
        n = self.n
        return (np.arange(n) - n // 2) * self.dx

    def norm(self):
        return float(np.sum(np.abs(self.psi) ** 2) * self.dx**2)


def gaussian_state(n, dx, sigma, center=(0.0, 0.0), k=(0.0, 0.0), mass=1.0, hbar=1.0):
    """Normalized Gaussian |psi|^2 ~ exp(-r^2/(2 sigma^2)), optionally plane-wave boosted."""
    x = (np.arange(n) - n // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    envelope = np.exp(-((X - center[0]) ** 2 + (Y - center[1]) ** 2) / (4 * sigma**2))
    psi = envelope * np.exp(1j * (k[0] * X + k[1] * Y))
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * dx**2)
    return WaveGrid2D(psi, dx, mass=mass, hbar=hbar)


def vortex_state(n, dx, core_radius, winding=1, mass=1.0, hbar=1.0):
    """tanh-core vortex tanh(r/r0) exp(i * winding * azimuth), unnormalized profile."""
    x = (np.arange(n) - n // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(X, Y)
    phi = np.arctan2(Y, X)
    psi = np.tanh(r / core_radius) * np.exp(1j * winding * phi)
    return WaveGrid2D(psi, dx, mass=mass, hbar=hbar)


def split_step_error_bound(grid, V, dt):
    """Per-step factorization error estimate 0.5*(dt*max|V|/hbar)^2.

    The implemented scheme is the symmetric (Strang) factorization, whose
    true local error is one order better; this bound is the conservative
    screen used to validate dt.
    """
    if V is None:
        return 0.0
    vmax = float(np.max(np.abs(V)))
    return 0.5 * (dt * vmax / grid.hbar) ** 2


def evolve(grid, V, dt, steps):
    """Split-step evolution for `steps` steps of size dt under potential grid V."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if V is not None:
        V = np.asarray(V, dtype=np.float64)
        if V.shape != grid.psi.shape:
            raise ValueError("potential grid shape mismatch")
        if not np.all(np.isfinite(V)):
            raise ValueError("potential contains NaN or Inf")
    bound = split_step_error_bound(grid, V, dt)
    if bound > SPLIT_STEP_ERROR_LIMIT:
        raise ValueError(
            f"dt too large: split-step error bound {bound:.3e} exceeds "
            f"{SPLIT_STEP_ERROR_LIMIT:.0e}; reduce dt or the potential scale"
        )

    n = grid.n
    k = 2 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    KX, KY = np.meshgrid(k, k, indexing="ij")
    kinetic_phase = np.exp(-0.5j * grid.hbar * (KX**2 + KY**2) * dt / grid.mass)
    if V is None:
        half_kick = None
    else:
        half_kick = np.exp(-0.5j * V * dt / grid.hbar)

    psi = grid.psi.copy()
    for _ in range(steps):
        if half_kick is not None:
            psi *= half_kick
        psi = np.fft.ifft2(kinetic_phase * np.fft.fft2(psi))
        if half_kick is not None:
            psi *= half_kick
    return WaveGrid2D(psi, grid.dx, mass=grid.mass, hbar=grid.hbar)


@dataclass
class MadelungFields:
    """(R, S, v) decomposition of a grid state.

    S is stored modulo `phase_period` at each node (2*pi for fields coming
    from a single-valued psi; pi for directly constructed two-sheeted
    fields). v has shape (2, N, N): x-component first.
    """

    R: np.ndarray
    S: np.ndarray
    v: np.ndarray
    node_mask: np.ndarray
    dx: float
    mass: float = 1.0
    hbar: float = 1.0
    phase_period: float = 2 * math.pi

    @property
    def n(self):
        return self.R.shape[0]

    def density(self):
        return self.R**2


def _wrap_centered(delta, period):
    """Reduce phase differences into (-period/2, period/2]."""
    return delta - period * np.ceil(delta / period - 0.5)


def _wrapped_gradient(S, dx, period):
    """Centered derivative of a wrapped phase grid.

    Each unit grid step is unwrapped into (-period/2, period/2]; cumulative
    two-step offsets are built from those, then combined with the 4th-order
    centered stencil (8(S1 - S-1) - (S2 - S-2)) / (12 dx).
    """
    grads = []
    for axis in (0, 1):
        step = _wrap_centered(np.roll(S, -1, axis=axis) - S, period)
        d_plus1 = step
        d_plus2 = step + np.roll(step, -1, axis=axis)
        d_minus1 = -np.roll(step, 1, axis=axis)
        d_minus2 = d_minus1 - np.roll(step, 2, axis=axis)
        grads.append((8 * (d_plus1 - d_minus1) - (d_plus2 - d_minus2)) / (12 * dx))
    return np.stack(grads)


def decompose(grid):
    """Madelung split of a grid state; nodes below the R threshold are masked."""
    amp = np.abs(grid.psi)
    peak = float(amp.max())
    if peak == 0.0:
        raise ValueError("cannot decompose an identically zero field")
    R = amp
    S = np.angle(grid.psi)
    mask = R < NODE_MASK_RELATIVE_THRESHOLD * peak
    v = (grid.hbar / grid.mass) * _wrapped_gradient(S, grid.dx, 2 * math.pi)
    return MadelungFields(R=R, S=S, v=v, node_mask=mask, dx=grid.dx,
                          mass=grid.mass, hbar=grid.hbar)


def synthetic_fields(R, S, dx, mass=1.0, hbar=1.0, phase_period=2 * math.pi):
    """Build MadelungFields directly from (R, S) grids, e.g. a two-sheeted S."""
    R = np.asarray(R, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    if R.shape != S.shape:
        raise ValueError("R and S must share a shape")
    mask = R < NODE_MASK_RELATIVE_THRESHOLD * float(R.max())
    v = (hbar / mass) * _wrapped_gradient(S, dx, phase_period)
    return MadelungFields(R=R, S=S, v=v, node_mask=mask, dx=dx, mass=mass,
                          hbar=hbar, phase_period=phase_period)


def _spectral_laplacian(field, dx):
    n = field.shape[0]
    k = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    KX, KY = np.meshgrid(k, k, indexing="ij")
    return np.real(np.fft.ifft2(-(KX**2 + KY**2) * np.fft.fft2(field)))


def quantum_potential(fields):
    """Q = -(hbar^2/2m) lap(R)/R, masked at nodes."""
    if bool(fields.node_mask.all()):
        raise ValueError("no off-mask region: field is zero everywhere")
    lap = _spectral_laplacian(fields.R, fields.dx)
    R_safe = np.where(fields.node_mask, 1.0, fields.R)
    Q = -(fields.hbar**2 / (2 * fields.mass)) * lap / R_safe
    return np.ma.masked_array(Q, mask=fields.node_mask)


@dataclass
class LoopPath:
    """Closed, simple, axis-aligned path through grid nodes.

    `nodes` lists (i, j) indices; consecutive nodes (and last-to-first) must
    be nearest neighbours.
    """

    nodes: list

    def __post_init__(self):
        if len(self.nodes) < 4:
            raise ValueError("loop needs at least 4 nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("loop must be simple (no repeated nodes)")
        for (i0, j0), (i1, j1) in self.segments():
            if abs(i1 - i0) + abs(j1 - j0) != 1:
                raise ValueError("loop segments must follow grid edges")

    def segments(self):
        closed = self.nodes + [self.nodes[0]]
        return list(zip(closed[:-1], closed[1:]))

    @classmethod
    def rectangle(cls, i0, j0, i1, j1):
        """Axis-aligned rectangle with corners (i0, j0) and (i1, j1), i0<i1, j0<j1."""
        if not (i0 < i1 and j0 < j1):
            raise ValueError("need i0 < i1 and j0 < j1")
        nodes = []
        nodes += [(i, j0) for i in range(i0, i1)]
        nodes += [(i1, j) for j in range(j0, j1)]
        nodes += [(i, j1) for i in range(i1, i0, -1)]
        nodes += [(i0, j) for j in range(j1, j0, -1)]
        return cls(nodes)


@dataclass(frozen=True)
class CirculationResult:
    gamma: float
    half_quanta: float
    nearest: int
    residual: float


def circulation(fields, loop):
    """Circulation of v around `loop` by segment-wise phase-difference summation.

    Each segment's phase difference is reduced into (-p/2, p/2] where p is the
    field's phase period, so gamma = (hbar/m) * sum of local dS. half_quanta
    is m*gamma/(pi*hbar) together with its nearest integer and residual.
    """
    n = fields.n
    for (i, j) in loop.nodes:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"loop node ({i}, {j}) outside the grid")
        if fields.node_mask[i, j]:
            raise ValueError(f"loop crosses a masked node at ({i}, {j})")
    total = 0.0
    for (i0, j0), (i1, j1) in loop.segments():
        delta = float(fields.S[i1, j1] - fields.S[i0, j0])
        total += float(_wrap_centered(np.float64(delta), fields.phase_period))
    gamma = (fields.hbar / fields.mass) * total
    half_quanta = fields.mass * gamma / (math.pi * fields.hbar)
    nearest = int(round(half_quanta))
    return CirculationResult(gamma=gamma, half_quanta=half_quanta, nearest=nearest,
                             residual=abs(half_quanta - nearest))


def continuity_residual(grid_minus, grid_center, grid_plus, dt):
    """Relative size of d(rho)/dt + div(rho v) for an evolved triple.

    Time derivative is centered over 2*dt; the flux divergence is spectral.
    Returns RMS(residual) / max over the grid of either term's magnitude.
    """
    rho_dot = (np.abs(grid_plus.psi) ** 2 - np.abs(grid_minus.psi) ** 2) / (2 * dt)
    f = decompose(grid_center)
    rho = f.density()
    vx = np.where(f.node_mask, 0.0, f.v[0])
    vy = np.where(f.node_mask, 0.0, f.v[1])
    n = grid_center.n
    k = 2 * np.pi * np.fft.fftfreq(n, d=grid_center.dx)
    KX, KY = np.meshgrid(k, k, indexing="ij")
    div = np.real(np.fft.ifft2(1j * KX * np.fft.fft2(rho * vx))
                  + np.fft.ifft2(1j * KY * np.fft.fft2(rho * vy)))
    residual = rho_dot + div
    scale = max(float(np.max(np.abs(rho_dot))), float(np.max(np.abs(div))))
    return float(np.sqrt(np.mean(residual**2))) / scale


@dataclass(frozen=True)
class RingModel:
    """Thin relativistic ring: radius n*hbar/(2 m c), energy m c^2."""

    winding: int
    mass: float
    radius: float
    energy: float


def ring_model(n, mass, constants=CGS, segments=4096):
    """Ring of winding n for rest mass `mass` (g), verified by quadrature.

    The defining line integrals sum(rho c^2 ds) = m c^2 and
    m c sum(ds) = n h / 2 are re-evaluated over `segments` ring elements and
    must close to 1e-10 relative.
    """
    if n < 1 or int(n) != n:
        raise ValueError("winding must be a positive integer")
    if mass <= 0:
        raise ValueError("mass must be positive")
    c, hbar = constants.c, constants.hbar
    radius = n * hbar / (2 * mass * c)
    energy = mass * c**2
    model = RingModel(winding=int(n), mass=mass, radius=radius, energy=energy)
    checks = ring_quadrature_checks(model, constants, segments)
    for name, value in checks.items():
        if abs(value - 1.0) > 1e-10:
            raise ArithmeticError(f"ring quadrature identity {name} drifted: {value!r}")
    return model


def ring_quadrature_checks(model, constants=CGS, segments=4096):
    """Ratios of the two ring line integrals to their closed forms (both -> 1)."""
    c = constants.c
    ds = 2 * math.pi * model.radius / segments
    line_density = model.mass / (2 * math.pi * model.radius)
    energy_sum = math.fsum([line_density * c**2 * ds] * segments)
    action_sum = math.fsum([model.mass * c * ds] * segments)
    h = 2 * math.pi * constants.hbar
    return {
        "energy_over_mc2": energy_sum / (model.mass * c**2),
        "action_over_nh_half": action_sum / (model.winding * h / 2),
    }


# Flat binary snapshot: 16-byte header (N, dx as little-endian float64),
# then the row-major float64 grid; a text sidecar describes the payload.
# Writes go through a temp file and rename, so readers never see a partial
# snapshot.

def save_field(path, array, dx, label=""):
    arr = np.ascontiguousarray(array, dtype="<f8")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("snapshot expects a square 2-D real grid")
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(struct.pack("<dd", float(arr.shape[0]), float(dx)))
        fh.write(arr.tobytes())
    os.replace(tmp, path)
    sidecar = (f"field = {label or 'unnamed'}\n"
               f"n = {arr.shape[0]}\n"
               f"dx = {dx:.17g}\n"
               "layout = header(n, dx as float64 LE) + row-major float64 grid\n")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(sidecar)
    os.replace(tmp, f"{path}.txt")


def load_field(path):
    with open(path, "rb") as fh:
        n_float, dx = struct.unpack("<dd", fh.read(16))
        n = int(n_float)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * n:
        raise ValueError(f"snapshot payload size {data.size} != {n}x{n}")
    return data.reshape(n, n).copy(), dx
