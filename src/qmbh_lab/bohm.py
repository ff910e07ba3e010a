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
Phys. 47, 412, 1982). The phase is separable, exp(-i c (kx^2 + ky^2)) = p(kx) p(ky), so it
is the outer product of n one-dimensional exponentials; a Gaussian state is
likewise the outer product of its 1-D envelope-times-plane-wave factors.
So a product state fa(x) fb(y) stays a product under free evolution, and its
density, velocity, flux divergence and Q follow from the 1-D factors
(`evolve_factor`, `product_continuity_residual`, `product_q_plus_v_std`).
Their maxima and means over the n x n sites are taken in blocks of
PRODUCT_ROWS rows, so they hold no n x n grid. NumPy sums each block and the
block sums are added exactly and rounded once (`_block_mean`); at every
bohm-vortex `grid` the claims keep the bits of the full-grid np.mean and
np.std. The 2-D functions remain for general states.
The unit vortex tanh(r/r0) e^{i azimuth} is likewise built straight from its
real R and S (`vortex_amplitude`, `vortex_phase`, and `vortex_fields` on a
square box), with no complex grid, on any nodes given by their coordinates,
so bohm-vortex builds it only on small fixed boxes about its axis;
`vortex_state` and `decompose` of the full grid remain its reference.
Fields that are real (R, and the fluxes rho v) are differentiated with
real FFTs over the half spectrum (Sorensen et al., IEEE Trans. ASSP 35,
849, 1987). The velocity v of a `MadelungFields` is computed from S on
first read, since the circulation and Q never need it. Potentials are not
evolved; Q + V is only evaluated on a given state.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .constants import require

NODE_MASK_RELATIVE_THRESHOLD = 1e-8
# rows per block of the product-state stages' n x n sums and maxima
PRODUCT_ROWS = 64


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


def _half_wavenumbers(n, dx):
    """Angular wavenumbers of the rfft2 half spectrum of an n x n grid: kx as
    an (n, 1) column in FFT order, ky as a (1, n//2 + 1) row."""
    kx = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    ky = 2 * np.pi * np.fft.rfftfreq(n, d=dx)
    return kx[:, None], ky[None, :]


def _kinetic_phase(n, dx, dt, steps):
    """The 1-D factor exp(-i k^2 (steps dt) / 2) of the free propagator over
    `steps` steps of dt, in FFT order."""
    require("dx", dx)
    require("dt", dt, -math.inf)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    k = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    return np.exp(-0.5j * k**2 * (steps * dt))


def evolve(grid, dt, steps):
    """Free evolution for `steps` steps of size dt: one exact k-space phase."""
    p = _kinetic_phase(grid.n, grid.dx, dt, steps)
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

    def density(self):
        return self.R**2

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
    centered stencil (8(S1 - S-1) - (S2 - S-2)) / (12 dx). The steps are
    taken once on S padded periodically by two nodes before and three after,
    so each shifted step is a slice of them. The terms are formed in place,
    in the formula's order of operations, with at most three grids besides S
    and the result alive at once.
    """
    grad = np.empty((S.ndim,) + S.shape)
    for axis, g in enumerate(grad):
        n = S.shape[axis]

        def nodes(a, start, stop):
            return a[(slice(None),) * axis + (slice(start, stop),)]

        padded = np.concatenate((nodes(S, n - 2, n), S, nodes(S, 0, 3)), axis=axis)
        step = np.diff(padded, axis=axis)  # the step from node i is at i + 2
        del padded
        wraps = np.divide(step, period)    # as _wrap_centered, in place
        wraps -= 0.5
        np.ceil(wraps, out=wraps)
        wraps *= period
        step -= wraps
        del wraps
        d_minus = np.negative(nodes(step, 1, n + 1))    # d_minus1
        np.subtract(nodes(step, 2, n + 2), d_minus, out=g)
        g *= 8
        d_minus -= nodes(step, 0, n)                     # d_minus2
        d_plus2 = np.add(nodes(step, 2, n + 2), nodes(step, 3, n + 3))
        d_plus2 -= d_minus
        g -= d_plus2
        g /= 12 * dx
        del step, d_minus, d_plus2
    return grad


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
    """Laplacian of a real periodic grid by real FFTs."""
    kx, ky = _half_wavenumbers(field.shape[0], dx)
    return np.fft.irfft2(-(kx**2 + ky**2) * np.fft.rfft2(field), s=field.shape)


def _spectral_divergence(fx, fy, dx):
    """d(fx)/dx + d(fy)/dy of real periodic grids by real FFTs.

    The x Nyquist row is zeroed, as taking the real part of the full complex
    transform does implicitly (the Nyquist wavenumber is its own negative,
    and i kx is odd); irfft2 drops the y Nyquist column by itself.
    """
    n = fx.shape[0]
    kx, ky = _half_wavenumbers(n, dx)
    kx[n // 2] = 0.0
    spectrum = 1j * (kx * np.fft.rfft2(fx) + ky * np.fft.rfft2(fy))
    return np.fft.irfft2(spectrum, s=fx.shape)


def quantum_potential(fields):
    """Q = -lap(R)/(2R), masked at nodes."""
    if bool(fields.node_mask.all()):
        raise ValueError("no off-mask region: field is zero everywhere")
    lap = _spectral_laplacian(fields.R, fields.dx)
    q = -0.5 * lap / np.where(fields.node_mask, 1.0, fields.R)
    return np.ma.masked_array(q, mask=fields.node_mask)


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
    """Relative size of d(rho)/dt + div(rho v) for an evolved triple.

    Time derivative is centered over 2*dt; the flux divergence is spectral.
    Returns RMS(residual) / max over the grid of either term's magnitude.
    """
    rho_dot = (np.abs(grid_plus.psi) ** 2 - np.abs(grid_minus.psi) ** 2) / (2 * dt)
    f = decompose(grid_center)
    flux = np.where(f.node_mask, 0.0, f.v) * f.density()
    div = _spectral_divergence(flux[0], flux[1], grid_center.dx)
    scale = max(float(np.max(np.abs(rho_dot))), float(np.max(np.abs(div))))
    return float(np.sqrt(np.mean((rho_dot + div) ** 2))) / scale


# Product states. The free propagator's phase is p(kx) p(ky), so a state
# fa(x) fb(y) stays a product; its density, velocity and Q follow from the
# two 1-D factors without any n x n complex grid.

def evolve_factor(f, dx, dt, steps):
    """One factor of a product state evolved freely: `evolve` of outer(fa, fb)
    is the outer product of the two evolved factors."""
    if np.ndim(f) != 1 or not np.isfinite(f).all():
        raise ValueError("factor must be a finite 1-D array")
    return np.fft.ifft(_kinetic_phase(len(f), dx, dt, steps) * np.fft.fft(f))


def _rfft_derivative(f, dx, order):
    """d^order f/dx^order of a real periodic 1-D grid by a real FFT; for the
    first derivative the Nyquist term is zeroed, as in `_spectral_divergence`."""
    k = 2 * np.pi * np.fft.rfftfreq(f.size, d=dx)
    if order == 1:
        k[-1] = 0.0
    return np.fft.irfft((1j * k) ** order * np.fft.rfft(f), f.size)


def product_continuity_residual(fa, fb, dx, dt, steps):
    """`continuity_residual` of the packet outer(fa, fb) evolved by steps - 1,
    steps and steps + 1 steps of dt, from its 1-D factors.

    rho = ra^2 rb^2 and S = Sa(x) + Sb(y), so div(rho v) is
    (ra^2 va)' rb^2 + ra^2 (rb^2 vb)'. Nodes are not masked: there rho is
    below 1e-16 of its peak, so the flux is too. rho_dot and div are formed
    in blocks of PRODUCT_ROWS rows, each with the full grid's operations, and
    the maxima and mean are taken over the blocks: no n x n grid is held.
    """
    require("dt", dt)
    require("steps", steps, 0)
    factors = []
    for f in (fa, fb):
        minus, plus = (np.abs(evolve_factor(f, dx, dt, s)) ** 2
                       for s in (steps - 1, steps + 1))
        mid = evolve_factor(f, dx, dt, steps)
        rho = np.abs(mid) ** 2
        if not rho.any():
            raise ValueError("cannot decompose an identically zero field")
        v = _wrapped_gradient(np.angle(mid), dx, 2 * math.pi)[0]
        factors.append((minus, rho, plus, _rfft_derivative(rho * v, dx, 1)))
    (am, a, ap, da), (bm, b, bp, db) = factors
    scale = 0.0

    def squared_residual(rows):
        nonlocal scale
        rho_dot = np.outer(ap[rows], bp)
        div = np.outer(am[rows], bm)
        rho_dot -= div
        rho_dot /= 2 * dt
        np.outer(da[rows], b, out=div)
        div += np.outer(a[rows], db)
        # max |g| without a block of |g|
        scale = max(scale, *(max(float(g.max()), -float(g.min())) for g in (rho_dot, div)))
        rho_dot += div
        rho_dot **= 2
        return rho_dot.ravel()

    return math.sqrt(_block_mean(squared_residual, len(a))) / scale


def product_q_plus_v_std(r, dx, potential):
    """Std of Q + V over the off-node sites of the amplitude R = outer(r, r)
    in the potential V = potential(x) + potential(y).

    Q = q(x) + q(y) with q = -r''/(2 r), so Q + V = h(x) + h(y) with
    h = q + potential. Where r is below the node threshold q is not divided;
    the sites kept are those where R is not below it, as in `decompose`. The
    amplitude is non-negative, so R's peak is r's squared, and a block's R
    is the same rounded products np.outer(r, r) holds. The kept sites are
    found, and their mean and std taken (two passes, as np.std), in blocks
    of PRODUCT_ROWS rows by `_block_mean`, which counts them as it goes.
    """
    require("dx", dx)
    if not (r >= 0).all():
        raise ValueError("amplitude r must be non-negative, with no nan")
    peak = float(r.max())
    if peak == 0.0:
        raise ValueError("cannot decompose an identically zero field")
    h = _rfft_derivative(r, dx, 2)
    h *= -0.5
    h /= np.where(r < NODE_MASK_RELATIVE_THRESHOLD * peak, 1.0, r)
    h += potential(centered_axis(r.size, dx))
    threshold = NODE_MASK_RELATIVE_THRESHOLD * (peak * peak)

    def kept_values(rows):
        kept = np.outer(r[rows], r) >= threshold  # R's block freed before Q + V's
        return np.add.outer(h[rows], h)[kept]

    mean = _block_mean(kept_values, r.size)
    return math.sqrt(_block_mean(lambda rows: np.square(kept_values(rows) - mean), r.size))


def _block_mean(block, n_rows):
    """Mean of the values of the 1-D float64 arrays block(rows) over the
    blocks of PRODUCT_ROWS of n_rows rows. NumPy sums each block; the block
    sums are added exactly and rounded once (`math.fsum`; Shewchuk, Discrete
    Comput. Geom. 18, 305, 1997). Each block is freed before the next is made."""
    sums, count = [], 0
    for i in range(0, n_rows, PRODUCT_ROWS):
        values = block(slice(i, i + PRODUCT_ROWS))
        sums.append(float(np.add.reduce(values)))
        count += values.size
        del values
    return math.fsum(sums) / count
