"""Free Dirac packets in 1+1 dimensions, evolved exactly mode by mode.

The two-component Hamiltonian is H(k) = c hbar k sigma_x + m c^2 sigma_z,
with branch energies +-E(k), E(k) = sqrt((c hbar k)^2 + (m c^2)^2). The
velocity operator c sigma_x has eigenvalues +-c; interference between the
branches makes the mean position oscillate (zitterbewegung) at

    Omega ~ 2 m c^2 / hbar,  amplitude ~ hbar / (2 m c),

and averaging over a Compton time pi hbar / (m c^2) wipes the oscillation
out; both traces follow in closed form from each mode's Bloch precession,
summed over modes by angle addition on the uniform time grid: a coarse and a
fine table of e^{2iE(k)t} built by rotations and joined by real matrix
products, shared by a packet and its projected branch on the same k grid.
Everything runs in natural units hbar = c = m = 1, so H(k) = k sigma_x +
sigma_z, Omega ~ 2 and the Compton length is 1.
"""

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .constants import require


class DiracPacket1D(namedtuple("DiracPacket1D", "k a")):
    """Two-component spinor amplitudes a[:, j] on a uniform momentum grid k[j],
    in natural units: the class constants are those units and the scales
    they fix."""

    __slots__ = ()

    mass = c = hbar = 1.0
    compton_length = 1.0          # hbar / (m c)
    zbw_omega = 2.0               # 2 m c^2 / hbar

    def __new__(cls, k, a):
        k = np.asarray(k, dtype=np.float64)
        a = np.asarray(a, dtype=np.complex128)
        n = k.size
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError("momentum grid must hold a power of two >= 256 points")
        if a.shape != (2, n):
            raise ValueError("spinor array must have shape (2, n_k)")
        # each k is rounded to an ulp of itself, at most that of an end point;
        # a nan or inf in k fails the comparison
        steps = np.diff(k)
        ulp = np.spacing(max(abs(k[0]), abs(k[-1])))
        if not steps.max() - steps.min() <= 1e-12 * abs(steps[0]) + 4 * ulp:
            raise ValueError("momentum grid must be uniform")
        return super().__new__(cls, k, a)

    @classmethod
    def _make(cls, iterable):
        # so that `_replace` coerces and checks its values as the constructor does
        return cls(*iterable)

    @property
    def dk(self):
        return float(self.k[1] - self.k[0])

    def norm(self):
        return float(np.sum(np.abs(self.a) ** 2) * self.dk)


def build_gaussian(sigma_x, x0, p0, seed):
    """Gaussian packet a(k) ~ seed exp(-sigma_x^2 (k - p0)^2) e^{-i k x0}.

    The 1024-point grid covers p0 +- 8/sigma_x; the envelope at the edge is
    exp(-64) of the peak.
    """
    require("sigma_x", sigma_x)
    require("x0", x0, -math.inf)
    require("p0", p0, -math.inf)
    seed = np.asarray(seed, dtype=np.complex128).reshape(2)
    if np.all(seed == 0):
        raise ValueError("seed spinor must be nonzero")
    half = 8.0 / sigma_x
    k = p0 + np.linspace(-half, half, 1024, endpoint=False)
    envelope = np.exp(-(sigma_x**2) * (k - p0) ** 2) * np.exp(-1j * k * x0)
    return normalized(DiracPacket1D(k=k, a=seed[:, None] * envelope[None, :]))


def normalized(packet):
    n = packet.norm()
    if n == 0.0:
        raise ValueError("cannot normalize a zero packet")
    return packet._replace(a=packet.a / math.sqrt(n))


class EnergySplit(NamedTuple):
    w_plus: float
    w_minus: float


def energy_fractions(packet):
    """Weights in the +-E(k) branches via the projectors (1 +- H/E)/2."""
    k = packet.k
    e = np.hypot(k, 1.0)
    a0, a1 = packet.a
    # a† (H/E) a per mode, real by hermiticity, for H = k sigma_x + sigma_z
    h_expect = (np.abs(a0) ** 2 - np.abs(a1) ** 2) / e \
        + 2 * np.real(np.conj(a0) * a1) * k / e
    dens = np.abs(a0) ** 2 + np.abs(a1) ** 2
    norm = float(np.sum(dens) * packet.dk)
    w_plus = 0.5 * float(np.sum(dens + h_expect) * packet.dk) / norm
    return EnergySplit(w_plus=w_plus, w_minus=1.0 - w_plus)


def project_branch(packet, sign):
    """Project onto the positive (+1) or negative (-1) energy branch, renormalized."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e = np.hypot(packet.k, 1.0)
    nx, nz = packet.k / e, 1 / e
    a0, a1 = packet.a
    b0 = 0.5 * ((1 + sign * nz) * a0 + sign * nx * a1)
    b1 = 0.5 * (sign * nx * a0 + (1 - sign * nz) * a1)
    return normalized(packet._replace(a=np.stack([b0, b1])))


def _spectral_k_derivative(a, dk):
    n = a.shape[-1]
    x = 2 * np.pi * np.fft.fftfreq(n, d=dk)
    return np.fft.ifft(1j * x * np.fft.fft(a, axis=-1), axis=-1)


def mean_position(packet):
    """<x> evaluated in momentum space as Re <a| i d/dk |a> / <a|a>.

    In this fixed spinor basis the position operator is i d/dk acting on each
    component (the basis connection vanishes); the derivative is spectral
    over the k window, which the packet construction keeps effectively
    periodic.
    """
    da = _spectral_k_derivative(packet.a, packet.dk)
    val = np.sum(np.conj(packet.a) * 1j * da) * packet.dk
    return float(np.real(val)) / packet.norm()


class ZbwFit(NamedTuple):
    slope: float
    amplitude: float
    omega: float
    rms_residual: float


class ZbwTrace(NamedTuple):
    times: np.ndarray
    x_mean: np.ndarray
    fit: ZbwFit


def _coefficient(u, y, tol):
    """u.y / u.u, or 0 for a column with u.u <= tol (lstsq's rank rule)."""
    uu = u @ u
    return u @ y / uu if uu > tol else 0.0


def _outside(y, columns, tol):
    """y less its projections on mutually orthogonal columns."""
    for u in columns:
        y = y - _coefficient(u, y, tol) * u
    return y


def fit_trace(times, values, omega=None):
    """Least-squares x(t) = x0 + v t + B sin(Omega t) + C cos(Omega t) in closed
    form: Gram-Schmidt makes 1, t - mean(t), sin and cos orthogonal (Bjorck 1996),
    so each coefficient is a ratio of dot products, and a column of norm <= eps n
    |[1, t, sin, cos]|_F gets 0 (lstsq's rank rule). Without omega, Omega starts at
    the detrended periodogram's peak; Gauss-Newton on omega alone (variable
    projection, Golub & Pereyra 1973) refits B and C and steps by the coefficient of
    t (B cos Omega t - C sin Omega t), made orthogonal to the four, on the residual.
    It stops after 8 steps or a step <= 1e-15 omega, and raises ValueError past
    +-1.5 bins of the peak."""
    t = np.asarray(times, dtype=np.float64)
    x = np.asarray(values, dtype=np.float64)
    line = [np.ones_like(t), t - t.mean()]
    tol = (np.finfo(float).eps * t.size) ** 2 * (2 * t.size + t @ t)
    done = omega is not None
    if not done:
        spectrum = np.abs(np.fft.rfft(_outside(x, line, tol)))
        freqs = 2 * np.pi * np.fft.rfftfreq(t.size, d=t[1] - t[0])
        peak = int(np.argmax(spectrum[1:])) + 1
        omega0 = omega = float(freqs[peak])
        width = freqs[1]
        lo, hi = max(omega0 - 1.5 * width, 0.25 * width), omega0 + 1.5 * width
    for i in range(9):
        sin, cos = np.sin(omega * t), np.cos(omega * t)
        s, cos_out, r = (_outside(y, line, tol) for y in (sin, cos, x))
        c = _outside(cos_out, [s], tol)
        c_cos = _coefficient(c, r, tol)
        b_sin = _coefficient(s, r - c_cos * cos_out, tol)
        r -= b_sin * s + c_cos * cos_out
        if done or i == 8:
            break
        d = _outside(t * (b_sin * cos - c_cos * sin), line + [s, c], tol)
        step = float(_coefficient(d, r, tol))
        omega += step
        if not lo <= omega <= hi:
            raise ValueError(f"frequency fit left the bracket [{lo:.6g}, {hi:.6g}] "
                             f"about the periodogram peak {omega0:.6g}")
        done = abs(step) <= 1e-15 * omega
    slope = _coefficient(line[1], x - b_sin * sin - c_cos * cos, tol)
    return ZbwFit(slope=float(slope), amplitude=float(np.hypot(b_sin, c_cos)),
                  omega=float(omega), rms_residual=float(np.sqrt(np.mean(r**2))))


def _rotation_table(times, omega):
    """Rows exp(i t omega) for `times` in arithmetic progression from 0, by
    doubling: rows [f, 2f) are rows [0, f) times exp(i times[f] omega). Each
    entry lies within 4 eps (1 + t omega) of the directly evaluated one."""
    table = np.empty((times.size, omega.size), dtype=np.complex128)
    table[0] = 1.0
    f = 1
    while f < times.size:
        n = min(f, times.size - f)
        np.multiply(table[:n], np.exp(1j * (times[f] * omega)), out=table[f:f + n])
        f *= 2
    return table


def _bloch_traces(packets, t_max, samples, velocity=False):
    """(times, [<x> per packet], <sigma_x> of the first packet or None unless
    `velocity`) in closed form, for packets on one k grid. exp(-iHt) turns
    each mode's Bloch vector s = a+ sigma a dk / norm about n = H(k)/E by 2Et, so
    <sigma_x> = sum [n_x n.s + cos(2Et)(s_x - n_x n.s) - sin(2Et) n_z s_y]
    and <x> is <x>(0) plus its exact time integral (d<x>/dt = <sigma_x>).

    The samples sit at t = (j b + r) dt with b = isqrt(samples - 1) + 1, j < q =
    ceil(samples / b) and r < b, so angle addition splits every phase into a
    coarse angle omega j b dt and a fine one omega r dt (the separable step of
    non-uniform FFTs; Dutt & Rokhlin 1993). Modes of bit-equal 2E(k), such as
    k and -k, are first summed into one beat, so the tables hold one column per
    distinct frequency, n_w in all. The beats are rotated by the coarse table,
    and real (q, n_w) x (n_w, b) products with the fine table give the traces
    as row-major (j, r) blocks; built by rotation, the tables take about
    log2(samples) n_w exponentials, not samples n_w. The phases 2E(k) t depend
    on the k grid only, so the packets share the tables."""
    require("t_max", t_max)
    if samples < 16:
        raise ValueError("need at least 16 samples")
    k = packets[0].k
    e = np.hypot(k, 1.0)
    nx, nz = k / e, 1 / e
    omega, column = np.unique(2 * e, return_inverse=True)
    times = np.linspace(0.0, t_max, samples)
    dt = times[1] - times[0]
    b = math.isqrt(samples - 1) + 1
    q = -(-samples // b)
    coarse = _rotation_table(np.arange(q) * b * dt, omega)
    fine = _rotation_table(np.arange(b) * dt, omega)
    sin_c, cos_c = coarse.imag, coarse.real
    sin_f, cos_f = fine.imag.copy().T, fine.real.copy().T  # (n_w, b) operands
    del fine
    x_traces, v = [], None
    for packet in packets:
        a0, a1 = packet.a
        weight = packet.dk / packet.norm()
        cross = 2 * weight * np.conj(a0) * a1
        drift = nx * (nx * cross.real + nz * weight * (np.abs(a0) ** 2 - np.abs(a1) ** 2))
        beat_cos, beat_sin = (np.bincount(column, w, omega.size)
                              for w in (cross.real - drift, nz * cross.imag))
        # real and imaginary parts of (beat_cos + i beat_sin) e^{i omega j b dt}
        re = cos_c * beat_cos
        re -= sin_c * beat_sin
        im = sin_c * beat_cos
        im += cos_c * beat_sin
        if velocity and not x_traces:
            v = drift.sum() + (re @ cos_f - im @ sin_f).ravel()[:samples]
        re /= omega
        im /= omega
        x_traces.append(mean_position(packet) + drift.sum() * times
                        + (re @ sin_f + im @ cos_f).ravel()[:samples]
                        - (beat_sin / omega).sum())
    return times, x_traces, v


def _fitted(times, values):
    return ZbwTrace(times=times, x_mean=values, fit=fit_trace(times, values))


def mean_position_trace(packet, t_max, samples):
    """Sampled <x>(t) with its zitterbewegung fit."""
    times, [x_mean], _ = _bloch_traces([packet], t_max, samples)
    return _fitted(times, x_mean)


def zbw_traces(packet, t_max, samples):
    """(<x>, <c sigma_x>, <x> of the positive branch) traces of one packet,
    each with its sinusoid fit; the velocity samples sit in `x_mean`. The
    projected branch shares the packet's k grid, so all three come from one
    closed-form evaluation over the same rotation tables; the branch's
    velocity is not computed."""
    pure = project_branch(packet, +1)
    times, [x_mean, pure_x], v = _bloch_traces([packet, pure], t_max, samples,
                                               velocity=True)
    return _fitted(times, x_mean), _fitted(times, v), _fitted(times, pure_x)


def time_average(trace, T):
    """Sliding-window mean of width T, refit at the trace's fitted frequency.

    Only windows fully inside the sampled range are kept. Suppression is
    measured against the input trace's oscillation: the refit reuses its
    fitted Omega rather than hunting for a new peak in the averaged data.
    """
    t = trace.times
    quarter = float(t[-1] - t[0]) / 4
    if require("T", T) >= quarter:
        raise ValueError(f"T must be shorter than a quarter of the trace "
                         f"({quarter:g}), got {T!r}")
    dt = float(t[1] - t[0])
    half = int(round(T / (2 * dt)))
    window = 2 * half + 1
    kernel = np.full(window, 1.0 / window)
    averaged = np.convolve(trace.x_mean, kernel, mode="valid")
    times = t[half:t.size - half]
    fit = fit_trace(times, averaged, omega=trace.fit.omega)
    return ZbwTrace(times=times, x_mean=averaged, fit=fit)

