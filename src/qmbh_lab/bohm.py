"""2-D Schrödinger evolution and the Madelung/Bohm hydrodynamic picture.

Everything runs in natural units hbar = m = 1. The wavefunction is split as
psi = R e^{iS}, which induces a fluid with density rho = R^2, velocity
v = grad S, and quantum potential Q = -lap(R)/(2R). Around a node the
circulation

    Gamma = closed-integral of v . dr

is quantized by the phase winding; with the half-integer convention the
natural unit is pi per half quantum.

Evolution is free (no potential) and exact on a periodic grid: the kinetic
phases of the steps compose, exp(-i k^2 dt/2)^s = exp(-i k^2 s dt/2), so
`steps` steps of dt are one FFT pair (Feit, Fleck & Steiger, J. Comput.
Phys. 47, 412, 1982). The phase is separable, exp(-i c (kx^2 + ky^2)) =
p(kx) p(ky), so it is the outer product of n one-dimensional exponentials;
a Gaussian state is likewise the outer product of its 1-D
envelope-times-plane-wave factors.
The unit vortex tanh(r/r0) e^{i azimuth} is built straight from its
real R and S (`vortex_amplitude`, `vortex_phase`, and `vortex_fields` on a
square box), with no complex grid, on any nodes given by their coordinates,
so bohm-vortex builds it only on small fixed boxes about its axis;
`vortex_state` and `decompose` of the full grid remain its reference.
Laplacians are spectral, one complex FFT pair each. The continuity check
takes the current j = Im(psi* grad psi) = rho v from psi itself, through the
identity div j = Im(psi* lap psi), so it needs neither the phase nor a node
mask and holds through a node in motion. The velocity v of a
`MadelungFields` is computed from S on first read, since the circulation and
Q never need it. Potentials are not evolved; Q + V is only evaluated on a
given state.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .constants import require

NODE_MASK_RELATIVE_THRESHOLD = 1e-8


def centered_axis(n, dx):
    """Coordinates of the n nodes of spacing dx along one axis, centred on the box."""
    return (np.arange(n) - n // 2) * dx


class WaveGrid2D:
    """Complex amplitudes on an N x N periodic grid with spacing dx."""

    __slots__ = ("psi", "dx")

    def __init__(self, psi, dx):
        self.psi = np.asarray(psi, dtype=np.complex128)
        self.dx = require("dx", dx)
        if self.psi.ndim != 2 or self.psi.shape[0] != self.psi.shape[1]:
            raise ValueError("psi must be a square 2-D array")
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 64, got {self.n}")
        if not np.all(np.isfinite(self.psi.view(np.float64))):
            raise ValueError("psi contains NaN or Inf")

    @property
    def n(self):
        return self.psi.shape[0]

    def axis(self):
        """Node coordinates along one axis, centered on the box."""
        return centered_axis(self.n, self.dx)


def gaussian_factor(n, dx, sigma, center=0.0, k=0.0):
    """One axis's factor exp(-(x - center)^2/(4 sigma^2) + i k x) of a
    `gaussian_state`, on the n centred nodes of spacing dx; unnormalized."""
    require("sigma", sigma)
    x = centered_axis(n, require("dx", dx))
    return np.exp(-((x - center) ** 2) / (4 * sigma**2) + 1j * k * x)


def gaussian_state(n, dx, sigma, center=(0.0, 0.0), k=(0.0, 0.0)):
    """Normalized Gaussian |psi|^2 ~ exp(-r^2/(2 sigma^2)), optionally plane-wave boosted."""
    psi = np.outer(*(gaussian_factor(n, dx, sigma, c, kc) for c, kc in zip(center, k)))
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * dx**2)
    return WaveGrid2D(psi, dx)


def vortex_amplitude(r, core_radius):
    """R = tanh(r/r0) of the unit vortex at the distances r from its axis."""
    R = r / require("core_radius", core_radius)
    return np.tanh(R, out=R)


def vortex_phase(x, y):
    """S = azimuth of the unit vortex at the nodes (x_i, y_j), in (-pi, pi]."""
    return np.arctan2(y[None, :], x[:, None])


def vortex_state(n, dx, core_radius):
    """Unit-winding tanh-core vortex tanh(r/r0) exp(i * azimuth), unnormalized profile."""
    x = centered_axis(n, dx)
    r = np.hypot(x[:, None], x[None, :])
    psi = vortex_amplitude(r, core_radius) * np.exp(1j * vortex_phase(x, x))
    return WaveGrid2D(psi, dx)


def vortex_fields(x, dx, core_radius):
    """Madelung fields of `vortex_state` on the square box of nodes with
    coordinates x along each axis, built from R = tanh(r/r0) and S = azimuth
    directly, with no complex grid. On the full grid, x = centered_axis(n, dx),
    they match `decompose(vortex_state(...))` to 2.3e-16 in R (relative) and
    in S, with the same node mask."""
    R = vortex_amplitude(np.hypot(x[:, None], x[None, :]), core_radius)
    return synthetic_fields(R, vortex_phase(x, x), dx)


def _wavenumbers(n, dx):
    """Angular wavenumbers of an n-node periodic axis of spacing dx, in FFT order."""
    return 2 * np.pi * np.fft.fftfreq(n, d=dx)


def evolve(grid, dt, steps):
    """Free evolution for `steps` steps of size dt: one exact k-space phase,
    the outer product of the 1-D factor exp(-i k^2 (steps dt) / 2)."""
    require("dt", dt, -math.inf)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    k = _wavenumbers(grid.n, grid.dx)
    p = np.exp(-0.5j * k**2 * (steps * dt))
    return WaveGrid2D(np.fft.ifft2(np.outer(p, p) * np.fft.fft2(grid.psi)), grid.dx)


class MadelungFields:
    """(R, S, v) decomposition of a grid state.

    S is stored modulo `phase_period` at each node (2*pi for fields coming
    from a single-valued psi; pi for directly constructed two-sheeted
    fields). v = grad S has shape (2, N, N), x-component first, and
    is computed on first read and cached in the instance __dict__, so the
    class has no __slots__.
    """

    def __init__(self, R, S, node_mask, dx, phase_period=2 * math.pi):
        self.R, self.S, self.node_mask = R, S, node_mask
        self.dx, self.phase_period = dx, phase_period

    @property
    def n(self):
        return self.R.shape[0]

    @functools.cached_property
    def v(self):
        return _wrapped_gradient(self.S, self.dx, self.phase_period)


def _wrap_centered(delta, period):
    """Reduce phase differences into (-period/2, period/2]."""
    return delta - period * np.ceil(delta / period - 0.5)


def _wrapped_gradient(S, dx, period):
    """Centered derivative of a wrapped phase grid along each of its axes,
    shape (S.ndim,) + S.shape.

    Each unit grid step is unwrapped into (-period/2, period/2]; cumulative
    two-step offsets are built from those, then combined with the 4th-order
    centered stencil (8(S1 - S-1) - (S2 - S-2)) / (12 dx).
    """
    grads = []
    for axis in range(S.ndim):
        d_plus1 = _wrap_centered(np.roll(S, -1, axis=axis) - S, period)
        d_plus2 = d_plus1 + np.roll(d_plus1, -1, axis=axis)
        d_minus1 = -np.roll(d_plus1, 1, axis=axis)
        d_minus2 = d_minus1 - np.roll(d_plus1, 2, axis=axis)
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
    return MadelungFields(R=R, S=S, node_mask=mask, dx=grid.dx)


def synthetic_fields(R, S, dx, phase_period=2 * math.pi):
    """Build MadelungFields directly from (R, S) grids, e.g. a two-sheeted S."""
    R = np.asarray(R, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    if R.shape != S.shape:
        raise ValueError("R and S must share a shape")
    mask = R < NODE_MASK_RELATIVE_THRESHOLD * float(R.max())
    return MadelungFields(R=R, S=S, node_mask=mask, dx=dx, phase_period=phase_period)


def _spectral_laplacian(field, dx):
    """Laplacian of a periodic grid by one complex FFT pair; complex-valued."""
    k2 = _wavenumbers(field.shape[0], dx) ** 2
    return np.fft.ifft2(-(k2[:, None] + k2[None, :]) * np.fft.fft2(field))


def quantum_potential(fields):
    """Q = -lap(R)/(2R) as a plain array; the sites of `fields.node_mask`
    hold 0, since Q is not defined at a node. Read Q off the nodes with
    `q[~fields.node_mask]`."""
    if bool(fields.node_mask.all()):
        raise ValueError("no off-mask region: field is zero everywhere")
    lap = _spectral_laplacian(fields.R, fields.dx).real
    q = -0.5 * lap / np.where(fields.node_mask, 1.0, fields.R)
    q[fields.node_mask] = 0.0
    return q


class LoopPath:
    """Closed, simple, axis-aligned path through grid nodes.

    `nodes` lists (i, j) indices; consecutive nodes (and last-to-first) must
    be nearest neighbours. `ij` holds them as an (n, 2) array.
    """

    __slots__ = ("ij",)

    def __init__(self, nodes):
        if len(nodes) < 4:
            raise ValueError("loop needs at least 4 nodes")
        if len(set(nodes)) != len(nodes):
            raise ValueError("loop must be simple (no repeated nodes)")
        self.ij = np.array(nodes)
        steps = np.diff(self.ij, axis=0, append=self.ij[:1])  # last to first included
        if not (np.abs(steps).sum(axis=1) == 1).all():
            raise ValueError("loop segments must follow grid edges")

    @property
    def nodes(self):
        return list(map(tuple, self.ij.tolist()))

    @classmethod
    def rectangle(cls, i0, j0, i1, j1):
        """Axis-aligned rectangle with corners (i0, j0) and (i1, j1), i0<i1, j0<j1,
        built as its array of nodes: it is a loop by construction."""
        if not (i0 < i1 and j0 < j1):
            raise ValueError("need i0 < i1 and j0 < j1")
        di, dj = i1 - i0, j1 - j0
        i = np.concatenate((np.arange(i0, i1), np.full(dj, i1), np.arange(i1, i0, -1),
                            np.full(dj, i0)))
        j = np.concatenate((np.full(di, j0), np.arange(j0, j1), np.full(di, j1),
                            np.arange(j1, j0, -1)))
        loop = object.__new__(cls)
        loop.ij = np.stack((i, j), axis=1)
        return loop


class CirculationResult(NamedTuple):
    gamma: float
    half_quanta: float
    nearest: int
    residual: float


def circulation(fields, loop):
    """Circulation of v around `loop` by segment-wise phase-difference summation.

    Each segment's phase difference is reduced into (-p/2, p/2] where p is the
    field's phase period, so gamma = sum of local dS. half_quanta is
    gamma/pi together with its nearest integer and residual.
    """
    nodes = loop.ij
    outside = ((nodes < 0) | (nodes >= fields.n)).any(axis=1)
    if outside.any():
        i, j = loop.nodes[int(np.argmax(outside))]
        raise ValueError(f"loop node ({i}, {j}) outside the grid")
    masked = fields.node_mask[nodes[:, 0], nodes[:, 1]]
    if masked.any():
        i, j = loop.nodes[int(np.argmax(masked))]
        raise ValueError(f"loop crosses a masked node at ({i}, {j})")
    s = fields.S[nodes[:, 0], nodes[:, 1]]
    deltas = _wrap_centered(np.roll(s, -1) - s, fields.phase_period)
    # left to right in loop order: np.sum's pairwise order would move the
    # last bits of gamma
    gamma = sum(deltas.tolist(), 0.0)
    half_quanta = gamma / math.pi
    nearest = int(round(half_quanta))
    return CirculationResult(gamma=gamma, half_quanta=half_quanta, nearest=nearest,
                             residual=abs(half_quanta - nearest))


def continuity_residual(grid_minus, grid_center, grid_plus, dt):
    """Relative size of d(rho)/dt + div(j) for an evolved triple.

    The time derivative is centered over 2*dt. The current j = Im(psi* grad
    psi) is taken from grid_center's psi by div j = Im(psi* lap psi), with a
    spectral Laplacian, so a node needs no special case.
    Returns RMS(residual) / max over the grid of either term's magnitude.
    The three grids must share n and dx.
    """
    require("dt", dt)
    for name, g in (("grid_minus", grid_minus), ("grid_plus", grid_plus)):
        if (g.n, g.dx) != (grid_center.n, grid_center.dx):
            raise ValueError(f"{name} must be on grid_center's grid (n = {grid_center.n}, "
                             f"dx = {grid_center.dx!r}); got n = {g.n}, dx = {g.dx!r}")
    rho_dot = (np.abs(grid_plus.psi) ** 2 - np.abs(grid_minus.psi) ** 2) / (2 * dt)
    psi = grid_center.psi
    div = (np.conj(psi) * _spectral_laplacian(psi, grid_center.dx)).imag
    scale = max(float(np.max(np.abs(rho_dot))), float(np.max(np.abs(div))))
    return float(np.sqrt(np.mean((rho_dot + div) ** 2))) / scale
