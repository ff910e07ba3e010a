"""Free Dirac packets in 1+1 dimensions, evolved exactly mode by mode.

The two-component Hamiltonian is H(k) = c hbar k sigma_x + m c^2 sigma_z,
with branch energies +-E(k), E(k) = sqrt((c hbar k)^2 + (m c^2)^2). The
velocity operator c sigma_x has eigenvalues +-c; interference between the
branches makes the mean position oscillate (zitterbewegung) at

    Omega ~ 2 m c^2 / hbar,  amplitude ~ hbar / (2 m c),

and averaging over a Compton time pi hbar / (m c^2) wipes the oscillation
out; both traces follow in closed form from each mode's Bloch precession,
summed over modes by angle addition on the uniform time grid: a coarse and a
fine trig table joined by real matrix products.
Everything runs in natural units (hbar = c = m = 1) unless a packet is built
otherwise.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

@dataclass
class DiracPacket1D:
    """Two-component spinor amplitudes a[:, j] on a uniform momentum grid k[j]."""

    k: np.ndarray
    a: np.ndarray
    mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.complex128)
        n = self.k.size
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError("momentum grid must hold a power of two >= 256 points")
        if self.a.shape != (2, n):
            raise ValueError("spinor array must have shape (2, n_k)")
        steps = np.diff(self.k)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            raise ValueError("momentum grid must be uniform")
        if self.mass <= 0 or self.c <= 0 or self.hbar <= 0:
            raise ValueError("mass, c, hbar must be positive")

    @property
    def dk(self):
        return float(self.k[1] - self.k[0])

    @property
    def compton_length(self):
        return self.hbar / (self.mass * self.c)

    @property
    def zbw_omega(self):
        return 2 * self.mass * self.c**2 / self.hbar

    def norm(self):
        return float(np.sum(np.abs(self.a) ** 2) * self.dk)


def build_gaussian(sigma_x, x0, p0, seed, n_k=1024, span=8.0, mass=1.0, c=1.0, hbar=1.0):
    """Gaussian packet a(k) ~ seed exp(-sigma_x^2 (k - p0/hbar)^2) e^{-i k x0}.

    The grid covers p0/hbar +- span/sigma_x; the envelope at the edge is
    exp(-span^2) of the peak.
    """
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive")
    seed = np.asarray(seed, dtype=np.complex128).reshape(2)
    if np.all(seed == 0):
        raise ValueError("seed spinor must be nonzero")
    k0 = p0 / hbar
    half = span / sigma_x
    k = k0 + np.linspace(-half, half, n_k, endpoint=False)
    envelope = np.exp(-(sigma_x**2) * (k - k0) ** 2) * np.exp(-1j * k * x0)
    a = seed[:, None] * envelope[None, :]
    packet = DiracPacket1D(k=k, a=a, mass=mass, c=c, hbar=hbar)
    return normalized(packet)


def normalized(packet):
    n = packet.norm()
    if n == 0.0:
        raise ValueError("cannot normalize a zero packet")
    return replace(packet, a=packet.a / math.sqrt(n))


def _hamiltonian_fields(packet):
    hx = packet.c * packet.hbar * packet.k
    hz = packet.mass * packet.c**2 * np.ones_like(packet.k)
    return hx, hz, np.hypot(hx, hz)


def evolved(packet, t):
    """Exact per-mode evolution a(k, t) = exp(-i H(k) t / hbar) a(k)."""
    hx, hz, e = _hamiltonian_fields(packet)
    theta = e * t / packet.hbar
    cos, sin = np.cos(theta), np.sin(theta)
    nx, nz = hx / e, hz / e
    a0, a1 = packet.a
    b0 = (cos - 1j * sin * nz) * a0 + (-1j * sin * nx) * a1
    b1 = (-1j * sin * nx) * a0 + (cos + 1j * sin * nz) * a1
    return replace(packet, a=np.stack([b0, b1]))


@dataclass(frozen=True)
class EnergySplit:
    w_plus: float
    w_minus: float


def energy_fractions(packet):
    """Weights in the +-E(k) branches via the projectors (1 +- H/E)/2."""
    hx, hz, e = _hamiltonian_fields(packet)
    a0, a1 = packet.a
    # a† (H/E) a per mode, real by hermiticity
    h_expect = (np.abs(a0) ** 2 - np.abs(a1) ** 2) * hz / e \
        + 2 * np.real(np.conj(a0) * a1) * hx / e
    dens = np.abs(a0) ** 2 + np.abs(a1) ** 2
    norm = float(np.sum(dens) * packet.dk)
    w_plus = 0.5 * float(np.sum(dens + h_expect) * packet.dk) / norm
    return EnergySplit(w_plus=w_plus, w_minus=1.0 - w_plus)


def project_branch(packet, sign):
    """Project onto the positive (+1) or negative (-1) energy branch, renormalized."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    hx, hz, e = _hamiltonian_fields(packet)
    nx, nz = hx / e, hz / e
    a0, a1 = packet.a
    b0 = 0.5 * ((1 + sign * nz) * a0 + sign * nx * a1)
    b1 = 0.5 * (sign * nx * a0 + (1 - sign * nz) * a1)
    return normalized(replace(packet, a=np.stack([b0, b1])))


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


@dataclass(frozen=True)
class ZbwFit:
    offset: float
    slope: float
    amplitude: float
    omega: float
    phase: float
    rms_residual: float
    ok: bool


@dataclass(frozen=True)
class ZbwTrace:
    times: np.ndarray
    x_mean: np.ndarray
    fit: ZbwFit


def _linear_sinusoid_solve(t, x, omega):
    basis = np.stack([np.ones_like(t), t, np.sin(omega * t), np.cos(omega * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return basis, coef, x - basis @ coef


def fit_trace(times, values, omega=None):
    """Least-squares x(t) = x0 + v t + A sin(Omega t + phi).

    With omega given the problem is linear; otherwise the frequency starts
    from the periodogram peak of the detrended signal and is refined by
    Gauss-Newton on omega alone (variable projection, Golub & Pereyra 1973):
    each step refits the four linear coefficients, then adds the Jacobian
    column t (B cos Omega t - C sin Omega t) for the omega step, B and C being
    the sin and cos coefficients. It stops at a step of at most 1e-15 omega or
    after 8 steps, and raises ValueError if omega leaves +-1.5 bins of the peak.
    """
    t = np.asarray(times, dtype=np.float64)
    x = np.asarray(values, dtype=np.float64)
    if omega is None:
        lin = np.polyfit(t, x, 1)
        detrended = x - np.polyval(lin, t)
        spectrum = np.abs(np.fft.rfft(detrended))
        freqs = 2 * np.pi * np.fft.rfftfreq(t.size, d=t[1] - t[0])
        peak = int(np.argmax(spectrum[1:])) + 1
        omega0 = omega = float(freqs[peak])
        width = freqs[1]
        lo, hi = max(omega0 - 1.5 * width, 0.25 * width), omega0 + 1.5 * width
        for _ in range(8):
            basis, coef, resid = _linear_sinusoid_solve(t, x, omega)
            d_omega = t * (coef[2] * basis[:, 3] - coef[3] * basis[:, 2])
            jac = np.column_stack([basis, d_omega])
            step = float(np.linalg.lstsq(jac, resid, rcond=None)[0][4])
            omega += step
            if not lo <= omega <= hi:
                raise ValueError(f"frequency fit left the bracket [{lo:.6g}, {hi:.6g}] "
                                 f"about the periodogram peak {omega0:.6g}")
            if abs(step) <= 1e-15 * omega:
                break
    _, coef, resid = _linear_sinusoid_solve(t, x, omega)
    rms = float(np.sqrt(np.mean(resid**2)))
    amplitude = float(np.hypot(coef[2], coef[3]))
    phase = float(math.atan2(coef[3], coef[2]))
    scale = float(np.max(np.abs(x - np.mean(x)))) if x.size else 0.0
    ok = rms <= 0.1 * max(amplitude, 1e-12 * max(scale, 1.0))
    return ZbwFit(offset=float(coef[0]), slope=float(coef[1]), amplitude=amplitude,
                  omega=float(omega), phase=phase, rms_residual=rms, ok=ok)


def _bloch_traces(packet, t_max, samples):
    """(times, <x>, <c sigma_x>) in closed form. exp(-iHt/hbar) turns each mode's
    Bloch vector s = a+ sigma a dk / norm about n = H(k)/E by 2Et/hbar, so
    <c sigma_x> = c sum [n_x n.s + cos(2Et/hbar)(s_x - n_x n.s) - sin(2Et/hbar) n_z s_y]
    and <x> is <x>(0) plus its exact time integral (d<x>/dt = <c sigma_x>).

    The samples sit at t = (j b + r) dt with b = isqrt(samples - 1) + 1, j < q =
    ceil(samples / b) and r < b, so angle addition splits every phase into a
    coarse angle omega j b dt and a fine one omega r dt (the separable step of
    non-uniform FFTs; Dutt & Rokhlin 1993). The beat coefficients are rotated by
    the coarse table, and real (q, n_k) x (n_k, b) products with the fine table
    give both traces as row-major (j, r) blocks: sin and cos are taken of
    (q + b) n_k angles, about 2 sqrt(samples) n_k, not samples n_k."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if samples < 16:
        raise ValueError("need at least 16 samples")
    hx, hz, e = _hamiltonian_fields(packet)
    nx, nz = hx / e, hz / e
    a0, a1 = packet.a
    weight = packet.c * packet.dk / packet.norm()
    cross = 2 * weight * np.conj(a0) * a1
    drift = nx * (nx * cross.real + nz * weight * (np.abs(a0) ** 2 - np.abs(a1) ** 2))
    beat_cos, beat_sin = cross.real - drift, nz * cross.imag
    omega = 2 * e / packet.hbar
    times = np.linspace(0.0, t_max, samples)
    dt = times[1] - times[0]
    b = math.isqrt(samples - 1) + 1
    q = -(-samples // b)
    coarse = np.outer(np.arange(q) * b * dt, omega)
    fine = np.outer(np.arange(b) * dt, omega)
    sin_c, cos_c = np.sin(coarse), np.cos(coarse, out=coarse)
    sin_f, cos_f = np.sin(fine).T, np.cos(fine, out=fine).T
    # real and imaginary parts of (beat_cos + i beat_sin) e^{i omega j b dt}
    re = cos_c * beat_cos - sin_c * beat_sin
    im = sin_c * beat_cos + cos_c * beat_sin
    v = drift.sum() + (re @ cos_f - im @ sin_f).ravel()[:samples]
    x = (mean_position(packet) + drift.sum() * times
         + ((re / omega) @ sin_f + (im / omega) @ cos_f).ravel()[:samples]
         - (beat_sin / omega).sum())
    return times, x, v


def mean_position_trace(packet, t_max, samples):
    """Sampled <x>(t) with its zitterbewegung fit."""
    times, x_mean, _ = _bloch_traces(packet, t_max, samples)
    return ZbwTrace(times=times, x_mean=x_mean, fit=fit_trace(times, x_mean))


def zbw_traces(packet, t_max, samples):
    """(<x>, <c sigma_x>) traces of one packet from one closed-form evaluation,
    each with its sinusoid fit; the velocity samples sit in `x_mean`."""
    times, x_mean, v = _bloch_traces(packet, t_max, samples)
    return (ZbwTrace(times=times, x_mean=x_mean, fit=fit_trace(times, x_mean)),
            ZbwTrace(times=times, x_mean=v, fit=fit_trace(times, v)))


def time_average(trace, T):
    """Sliding-window mean of width T, refit at the trace's fitted frequency.

    Only windows fully inside the sampled range are kept. Suppression is
    measured against the input trace's oscillation: the refit reuses its
    fitted Omega rather than hunting for a new peak in the averaged data.
    """
    if T <= 0:
        raise ValueError("window must be positive")
    t = trace.times
    span = float(t[-1] - t[0])
    if T >= span / 4:
        raise ValueError("window must be shorter than a quarter of the trace")
    dt = float(t[1] - t[0])
    half = int(round(T / (2 * dt)))
    if half == 0:
        fit = fit_trace(t, trace.x_mean, omega=trace.fit.omega)
        return ZbwTrace(times=t.copy(), x_mean=trace.x_mean.copy(), fit=fit)
    window = 2 * half + 1
    kernel = np.full(window, 1.0 / window)
    averaged = np.convolve(trace.x_mean, kernel, mode="valid")
    times = t[half:t.size - half]
    fit = fit_trace(times, averaged, omega=trace.fit.omega)
    return ZbwTrace(times=times, x_mean=averaged, fit=fit)


def to_position(packet):
    """(x grid, psi(x) two components) via psi(x) = (2 pi)^-1/2 integral a(k) e^{ikx} dk."""
    n = packet.k.size
    dk = packet.dk
    x = 2 * np.pi * np.fft.fftfreq(n, d=dk)
    order = np.argsort(x)
    x = x[order]
    psi = n * np.fft.ifft(packet.a, axis=-1) * dk / math.sqrt(2 * math.pi)
    # the grid's reference momentum k[0] re-enters as a plane-wave factor
    psi = psi[:, order] * np.exp(1j * packet.k[0] * x)[None, :]
    return x, psi
