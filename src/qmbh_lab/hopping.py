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
m = sqrt(m0 * m') / c. Everything runs in natural units hbar = c = 1.
"""

import math
import numbers
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .constants import RatioCheck, require


class ChainSpec(namedtuple("ChainSpec", "n_sites b e0 a")):
    """Periodic chain (hbar = 1) of n_sites sites, spacing b, diagonal E0, hopping A."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.n_sites, numbers.Integral) or self.n_sites < 16:
            raise ValueError(f"n_sites must be an integer >= 16, got {self.n_sites!r}")
        for name, lo in (("b", 0), ("a", 0), ("e0", -math.inf)):
            require(name, getattr(self, name), lo)
        return self

    def coordinates(self):
        """Site positions centered on the chain, x_i = (i - n/2) b."""
        return (np.arange(self.n_sites) - self.n_sites // 2) * self.b

    def m_prime(self):
        """Curvature (effective) mass hbar^2 / (2 A b^2)."""
        return 1 / (2 * self.a * self.b**2)


class AmplitudeVector:
    """Complex site amplitudes C_i."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.complex128)
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise ValueError("amplitudes contain NaN or Inf")

    def normalized(self, spacing):
        """Unit discrete norm: sum |C_i|^2 * spacing = 1."""
        norm = math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * spacing)
        if norm == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return AmplitudeVector(self.values / norm)


def mode_wavenumbers(spec):
    """Allowed k = 2 pi j / (N b) for j in [-N/2, N/2)."""
    n = spec.n_sites
    j = np.arange(n) - n // 2
    return 2 * np.pi * j / (n * spec.b)


def spectrum(spec):
    """Eigenvalues of the periodic chain with E0 on the diagonal and -A off
    it, in `mode_wavenumbers` order: the chain is circulant, so they are the
    DFT of its first row (Gray, "Toeplitz and Circulant Matrices: A Review",
    2006), fftshifted, and real up to round-off since that row is symmetric.
    """
    row = np.zeros(spec.n_sites)
    row[0], row[1], row[-1] = spec.e0, -spec.a, -spec.a
    return np.fft.fftshift(np.fft.fft(row)).real


class DispersionResult(NamedTuple):
    k: np.ndarray
    energies: np.ndarray          # chain spectrum, one eigenvalue per mode k
    m_prime_fit: float
    m_prime_formula: float

    @property
    def agreement(self):
        return self.m_prime_fit / self.m_prime_formula


def dispersion(spec, fit_window=0.1):
    """Chain `spectrum` on its k modes, with a curvature-mass fit.

    The k^2 coefficient of the least-squares quadratic over |k b| <= fit_window,
    in closed form the projection of E on the part of k^2 outside 1 and k, gives
    the curvature mass m'_fit = hbar^2 / (d2E/dk2).
    """
    require("fit_window", fit_window)
    k = mode_wavenumbers(spec)
    energies = spectrum(spec)
    sel = np.abs(k * spec.b) <= fit_window
    if int(sel.sum()) < 5:
        raise ValueError("fit window contains fewer than 5 modes; enlarge the chain")
    ks, es = k[sel], energies[sel] - energies[sel].mean()
    kc, q = ks - ks.mean(), ks * ks
    q -= q.mean() + (kc @ q / (kc @ kc)) * kc
    m_prime_fit = (q @ q) / (2 * (q @ es))
    return DispersionResult(k=k, energies=energies, m_prime_fit=m_prime_fit,
                            m_prime_formula=spec.m_prime())


class NonlocalKernel(namedtuple("NonlocalKernel", "r_w w")):
    """Window U(x): 1 inside |x| < r_w, half-Gaussian falloff of width w beyond."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("r_w", "w"):
            require(name, getattr(self, name))
        return self

    def u(self, x):
        x = np.asarray(x, dtype=np.float64)
        tail = np.exp(-((np.abs(x) - self.r_w) ** 2) / (2 * self.w**2))
        return np.where(np.abs(x) < self.r_w, 1.0, tail)

    @classmethod
    def for_chain(cls, spec, r_w):
        # the falloff only needs to be fast against the chain scale; 4b default
        return cls(r_w=r_w, w=4 * spec.b)


class EmergentMass(NamedTuple):
    m0: float
    m_prime: float
    iterations: int
    converged: bool

    c = 1.0  # natural units

    @property
    def m(self):
        """Composite rest mass (m0 m')^(1/2) / c, with c = 1."""
        return math.sqrt(self.m0 * self.m_prime)


def self_consistent_mass(spec, kernel, psi0, tol=1e-8, max_iter=500):
    """Fixed-point loop for the emergent rest-mass term m0.

    Each pass takes the ground state of -(hbar^2/2m') d2/dx2 + m0 (the kinetic
    part is exactly the hopping chain with E0 = 2A), re-evaluates the window
    integral m0 = sum |psi_i|^2 U(x_i) b, and moves m0 halfway to it. That
    ground state is the uniform k = 0 mode psi_i = 1/sqrt(N b) for every m0,
    so the integral is the constant mean(U) and the loop is the scalar
    recursion m0 <- m0 + (mean(U) - m0) / 2, started from the window
    integral of psi0. Returns (EmergentMass, final AmplitudeVector, history of
    (iter, m0, delta)); the composite mass is in natural units, c = 1.
    """
    require("tol", tol)
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
        new_m0 = m0 + 0.5 * (f - m0)
        delta = abs(new_m0 - m0) / max(abs(new_m0), 1e-300)
        m0 = new_m0
        history.append((it, m0, delta))
        iterations = it
        if delta <= tol:
            converged = True
            break
    em = EmergentMass(m0=m0, m_prime=spec.m_prime(), iterations=iterations,
                      converged=converged)
    return em, psi, history


# emergent_hamiltonian_check's momentum samples on [-p_max, p_max]
CHECK_SAMPLES = 401


def emergent_hamiltonian_check(em, p_max):
    """Quadratic-plus-rest spectrum against the relativistic energy.

    Deviation is measured relative to the rest energy m c^2; its expected
    ceiling is the next Taylor order (p_max/mc)^4 / 8 plus numerical slack.
    """
    if not em.converged:
        raise ValueError("emergent mass did not converge; check the fixed point")
    require("p_max", p_max)
    m = em.m
    p = np.linspace(-p_max, p_max, CHECK_SAMPLES)
    e_nr = p**2 / (2 * m) + m
    e_rel = np.sqrt(p**2 + m**2)
    deviation = float(np.max(np.abs(e_nr - e_rel)) / m)
    bound = (p_max / m) ** 4 / 8 + 1e-9
    return [
        RatioCheck.upper_bound("dispersion-vs-relativity", deviation, bound,
                               note=f"max |E_nr - E_rel|/mc^2 over |p| <= {p_max:g}"),
    ], deviation
