"""Amplitude-hopping chain: dispersion, effective mass, and the emergent rest mass.

A particle with amplitude only to hop between neighbouring sites of a chain
(spacing b, hopping energy A) has dispersion E(k) = E0 - 2A cos(kb) and
curvature mass m' = hbar^2 / (2 A b^2); the periodic chain is circulant, so its
spectrum is the DFT of its first row. Granting it additional nonlocal
amplitude inside a window U produces, after linearization, a constant
self-interaction term

    m0 = integral |psi(x)|^2 U(x) dx,

iterated here to a fixed point. With E0 = 2A the linearized Hamiltonian is
circulant, so its ground state is the uniform k = 0 mode for every m0 and
the fixed point is m0 = mean(U) over the chain sites; the iteration runs as
a scalar recursion with no matrix built. The composite rest mass is
m = sqrt(m0 * m') / c.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import RatioCheck


@dataclass(frozen=True)
class ChainSpec:
    """Periodic chain of n_sites sites, spacing b, diagonal E0, hopping A."""

    n_sites: int
    b: float
    e0: float
    a: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_sites < 16:
            raise ValueError("chain needs at least 16 sites")
        if self.b <= 0 or self.a <= 0 or self.hbar <= 0:
            raise ValueError("b, A, hbar must be positive")

    def coordinates(self):
        """Site positions centered on the chain, x_i = (i - n/2) b."""
        return (np.arange(self.n_sites) - self.n_sites // 2) * self.b

    def m_prime(self):
        """Curvature (effective) mass hbar^2 / (2 A b^2)."""
        return self.hbar**2 / (2 * self.a * self.b**2)


@dataclass
class AmplitudeVector:
    """Complex site amplitudes C_i."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise ValueError("amplitudes contain NaN or Inf")

    def normalized(self, spacing):
        """Unit discrete norm: sum |C_i|^2 * spacing = 1."""
        norm = math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * spacing)
        if norm == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return AmplitudeVector(self.values / norm)


def hamiltonian(spec, constant_shift=0.0):
    """Dense periodic chain Hamiltonian: E0 + shift on the diagonal, -A off it."""
    n = spec.n_sites
    h = np.zeros((n, n))
    np.fill_diagonal(h, spec.e0 + constant_shift)
    idx = np.arange(n)
    h[idx, (idx + 1) % n] = -spec.a
    h[idx, (idx - 1) % n] = -spec.a
    return h


def mode_wavenumbers(spec):
    """Allowed k = 2 pi j / (N b) for j in [-N/2, N/2)."""
    n = spec.n_sites
    j = np.arange(n) - n // 2
    return 2 * np.pi * j / (n * spec.b)


def analytic_dispersion(spec, k):
    return spec.e0 - 2 * spec.a * np.cos(k * spec.b)


@dataclass(frozen=True)
class DispersionResult:
    k: np.ndarray
    energies: np.ndarray          # chain spectrum, one eigenvalue per mode k
    m_prime_fit: float
    m_prime_formula: float

    @property
    def agreement(self):
        return self.m_prime_fit / self.m_prime_formula


def dispersion(spec, fit_window=0.1):
    """Chain spectrum on its k modes, with a curvature-mass fit.

    The periodic chain is circulant, so its eigenvalue on mode k_j = 2 pi j / (N b)
    is the DFT of its first row at j (Gray, "Toeplitz and Circulant Matrices: A
    Review", 2006): fftshift puts them in `mode_wavenumbers` order with no dense
    matrix, sort or assignment. E(k) is then fit quadratically over
    |k b| <= fit_window and the curvature is converted to
    m'_fit = hbar^2 / (d2E/dk2).
    """
    k = mode_wavenumbers(spec)
    row = np.zeros(spec.n_sites)
    row[0], row[1], row[-1] = spec.e0, -spec.a, -spec.a
    spectrum = np.fft.fftshift(np.fft.fft(row))
    # a symmetric first row has a real spectrum; the imaginary part is round-off
    assert np.abs(spectrum.imag).max() <= 1e-12 * np.abs(spectrum).max()
    energies = spectrum.real
    sel = np.abs(k * spec.b) <= fit_window
    if int(sel.sum()) < 5:
        raise ValueError("fit window contains fewer than 5 modes; enlarge the chain")
    coeffs = np.polyfit(k[sel], energies[sel], 2)
    curvature = 2 * coeffs[0]
    m_prime_fit = spec.hbar**2 / curvature
    return DispersionResult(k=k, energies=energies, m_prime_fit=m_prime_fit,
                            m_prime_formula=spec.m_prime())


@dataclass(frozen=True)
class NonlocalKernel:
    """Window U(x): 1 inside |x| < r_w, half-Gaussian falloff of width w beyond."""

    r_w: float
    w: float

    def __post_init__(self):
        if self.r_w <= 0 or self.w <= 0:
            raise ValueError("window radius and falloff width must be positive")

    def u(self, x):
        x = np.asarray(x, dtype=np.float64)
        tail = np.exp(-((np.abs(x) - self.r_w) ** 2) / (2 * self.w**2))
        return np.where(np.abs(x) < self.r_w, 1.0, tail)

    @classmethod
    def for_chain(cls, spec, r_w):
        # the falloff only needs to be fast against the chain scale; 4b default
        return cls(r_w=r_w, w=4 * spec.b)


@dataclass(frozen=True)
class EmergentMass:
    m0: float
    m_prime: float
    c: float
    iterations: int
    converged: bool

    @property
    def m(self):
        """Composite rest mass (m0 m')^(1/2) / c."""
        return math.sqrt(self.m0 * self.m_prime) / self.c


def self_consistent_mass(spec, kernel, psi0, damping=0.5, tol=1e-8, max_iter=500,
                         c=1.0):
    """Fixed-point loop for the emergent rest-mass term m0.

    Each pass takes the ground state of -(hbar^2/2m') d2/dx2 + m0 (the kinetic
    part is exactly the hopping chain with E0 = 2A), re-evaluates the window
    integral m0 = sum |psi_i|^2 U(x_i) b, and applies a damped update. That
    ground state is the uniform k = 0 mode psi_i = 1/sqrt(N b) for every m0,
    so the integral is the constant mean(U) and the loop is the scalar
    recursion m0 <- m0 + damping (mean(U) - m0), started from the window
    integral of psi0. Returns (EmergentMass, final AmplitudeVector, history of
    (iter, m0, delta)); the composite mass uses the light-speed scale `c`
    (natural-unit default).
    """
    x = spec.coordinates()
    u = kernel.u(x)
    half_extent = (spec.n_sites // 2) * spec.b
    whole_chain = kernel.r_w > half_extent  # U == 1 at every site; no falloff in range
    if not whole_chain and kernel.r_w + 4 * kernel.w > half_extent:
        raise ValueError("kernel window (incl. falloff) extends beyond the chain")
    psi = psi0.normalized(spec.b)
    m0 = float(np.dot(np.abs(psi.values) ** 2, u) * spec.b)
    history = [(0, m0, math.nan)]

    # The linearized Hamiltonian is the periodic chain plus the constant
    # diagonal 2A + m0: a circulant matrix, diagonalized by the DFT, whose
    # lowest mode is k = 0 whatever m0 is (Gray, "Toeplitz and Circulant
    # Matrices: A Review", 2006).
    ground = AmplitudeVector(np.ones(spec.n_sites)).normalized(spec.b)
    f = float(np.dot(np.abs(ground.values) ** 2, u) * spec.b)
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        psi = ground
        new_m0 = m0 + damping * (f - m0)
        delta = abs(new_m0 - m0) / max(abs(new_m0), 1e-300)
        m0 = new_m0
        history.append((it, m0, delta))
        iterations = it
        if delta <= tol:
            converged = True
            break
    em = EmergentMass(m0=m0, m_prime=spec.m_prime(), c=c,
                      iterations=iterations, converged=converged)
    return em, psi, history


def emergent_hamiltonian_check(em, p_max, samples=401):
    """Quadratic-plus-rest spectrum against the relativistic energy.

    Deviation is measured relative to the rest energy m c^2; its expected
    ceiling is the next Taylor order (p_max/mc)^4 / 8 plus numerical slack.
    """
    if not em.converged:
        raise ValueError("emergent mass did not converge; check the fixed point")
    m, c = em.m, em.c
    p = np.linspace(-p_max, p_max, samples)
    rest = m * c**2
    e_nr = p**2 / (2 * m) + rest
    e_rel = np.sqrt(p**2 * c**2 + m**2 * c**4)
    deviation = float(np.max(np.abs(e_nr - e_rel)) / rest)
    bound = (p_max / (m * c)) ** 4 / 8 + 1e-9
    mid = samples // 2
    return [
        RatioCheck.upper_bound("dispersion-vs-relativity", deviation, bound,
                               note=f"max |E_nr - E_rel|/mc^2 over |p| <= {p_max:g}"),
        RatioCheck.relative("rest-energy-at-p-zero",
                            float(e_nr[mid] / e_rel[mid]), 1.0, 1e-14),
    ], deviation
