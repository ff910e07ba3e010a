import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmbh_lab import dirac

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def evolved(packet, t):
    """Oracle: exact per-mode evolution a(k, t) = exp(-i H(k) t) a(k), hbar = 1,
    for H(k) = k sigma_x + sigma_z, whose branch energies are E = sqrt(k^2 + 1)."""
    k = packet.k
    e = np.sqrt(k**2 + 1.0)
    theta = e * t
    cos, sin = np.cos(theta), np.sin(theta)
    nx, nz = k / e, 1.0 / e
    a0, a1 = packet.a
    b0 = (cos - 1j * sin * nz) * a0 + (-1j * sin * nx) * a1
    b1 = (-1j * sin * nx) * a0 + (cos + 1j * sin * nz) * a1
    return packet._replace(a=np.stack([b0, b1]))


def to_position(packet):
    """Oracle: (x grid, psi(x) two components) via
    psi(x) = (2 pi)^-1/2 integral a(k) e^{ikx} dk."""
    n = packet.k.size
    dk = packet.dk
    x = 2 * np.pi * np.fft.fftfreq(n, d=dk)
    order = np.argsort(x)
    x = x[order]
    psi = n * np.fft.ifft(packet.a, axis=-1) * dk / math.sqrt(2 * math.pi)
    # the grid's reference momentum k[0] re-enters as a plane-wave factor
    psi = psi[:, order] * np.exp(1j * packet.k[0] * x)[None, :]
    return x, psi


def mixed_packet(sigma=10.0):
    return dirac.build_gaussian(sigma_x=sigma, x0=0.0, p0=0.0, seed=(1, 1))


def zbw_trace(packet, periods=6.0, samples=768):
    t_max = periods * 2 * math.pi / packet.zbw_omega
    return dirac.mean_position_trace(packet, t_max, samples)


def lstsq_fit_trace(times, values, omega=None):
    """Reference: the same fit through LAPACK's least-squares solver, the
    form fit_trace had before its closed-form solve."""
    t = np.asarray(times, dtype=np.float64)
    x = np.asarray(values, dtype=np.float64)

    def solve(omega):
        basis = np.stack([np.ones_like(t), t, np.sin(omega * t), np.cos(omega * t)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
        return basis, coef, x - basis @ coef

    if omega is None:
        detrended = x - np.polyval(np.polyfit(t, x, 1), t)
        spectrum = np.abs(np.fft.rfft(detrended))
        freqs = 2 * np.pi * np.fft.rfftfreq(t.size, d=t[1] - t[0])
        omega = float(freqs[int(np.argmax(spectrum[1:])) + 1])
        for _ in range(8):
            basis, coef, resid = solve(omega)
            jac = np.column_stack([basis, t * (coef[2] * basis[:, 3] - coef[3] * basis[:, 2])])
            step = float(np.linalg.lstsq(jac, resid, rcond=None)[0][4])
            omega += step
            if abs(step) <= 1e-15 * omega:
                break
    _, coef, resid = solve(omega)
    return dirac.ZbwFit(slope=float(coef[1]), amplitude=float(np.hypot(coef[2], coef[3])),
                        omega=float(omega), rms_residual=float(np.sqrt(np.mean(resid**2))))


def extended_slope(t, x, omega):
    """Reference: the least-squares slope at a fixed omega, solved in long
    double (80-bit on x86-64) by eliminating 1, t - mean(t), sin and cos one
    after the other from the normal equations."""
    t, x = t.astype(np.longdouble), x.astype(np.longdouble)
    cols = [np.ones_like(t), t - t.mean(), np.sin(omega * t), np.cos(omega * t)]
    gram = np.array([[a @ b for b in cols] for a in cols])
    rhs = np.array([a @ x for a in cols])
    for i in range(4):
        for j in range(i + 1, 4):
            f = gram[j, i] / gram[i, i]
            gram[j] -= f * gram[i]
            rhs[j] -= f * rhs[i]
    coef = np.zeros(4, dtype=np.longdouble)
    for i in reversed(range(4)):
        coef[i] = (rhs[i] - gram[i, i + 1:] @ coef[i + 1:]) / gram[i, i]
    return float(coef[1])


class TestPacketConstruction:
    def test_normalization(self):
        p = dirac.build_gaussian(sigma_x=3.0, x0=1.0, p0=0.5, seed=(0.3, 1j))
        assert abs(p.norm() - 1.0) <= 1e-12

    def test_initial_position(self):
        p = dirac.build_gaussian(sigma_x=5.0, x0=3.0, p0=0.0, seed=(1, 0))
        assert dirac.mean_position(p) == pytest.approx(3.0, abs=1e-10)

    def test_degenerate_width_rejected(self):
        with pytest.raises(ValueError, match="sigma_x"):
            dirac.build_gaussian(sigma_x=0.0, x0=0.0, p0=0.0, seed=(1, 0))

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            dirac.build_gaussian(sigma_x=1.0, x0=0.0, p0=0.0, seed=(0, 0))

    def test_grid_invariants(self):
        with pytest.raises(ValueError, match="power of two"):
            dirac.DiracPacket1D(np.linspace(-1, 1, 200),
                                np.ones((2, 200), complex))
        with pytest.raises(ValueError, match="uniform"):
            dirac.DiracPacket1D(np.geomspace(1, 2, 256),
                                np.ones((2, 256), complex))
        for bad in (np.nan, np.inf):
            k = np.linspace(-1, 1, 256)
            k[100] = bad
            with pytest.raises(ValueError, match="uniform"):
                dirac.DiracPacket1D(k, np.ones((2, 256), complex))

    @pytest.mark.parametrize("sigma_x, p0", [(10.0, 10.0), (100.0, 2.0), (10.0, 100.0)])
    def test_boosted_grid_builds(self, sigma_x, p0):
        # p0 + linspace rounds each k to an ulp of |p0|, far above 1e-12 dk
        p = dirac.build_gaussian(sigma_x=sigma_x, x0=0.0, p0=p0, seed=(1, 1))
        assert abs(p.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("p0", [0.0, 10.0, 100.0])
    def test_one_step_off_rejected(self, p0):
        k = dirac.build_gaussian(sigma_x=10.0, x0=0.0, p0=p0, seed=(1, 0)).k.copy()
        k[512:] += 1e-9 * (k[1] - k[0])
        with pytest.raises(ValueError, match="uniform"):
            dirac.DiracPacket1D(k, np.ones((2, k.size), complex))


class TestVelocityOperator:
    def test_eigenvalues_are_luminal(self):
        # direct 2x2 diagonalization of c sigma_x
        c = 2.99792458e10
        vals = np.linalg.eigvalsh(c * SIGMA_X)
        assert vals == pytest.approx([-c, c], rel=1e-15)


class TestEnergyFractions:
    def test_weights_sum_to_one(self):
        split = dirac.energy_fractions(mixed_packet(2.0))
        assert abs(split.w_plus + split.w_minus - 1.0) <= 1e-12

    def test_wide_packet_small_k_oracle(self):
        # oracle: integrated small-k projector weight, (hbar k / 2 m c)^2
        # against the Gaussian gives sigma_k^2 / 4 = 1/(16 sigma_x^2)
        sigma = 100.0
        p = dirac.build_gaussian(sigma_x=sigma, x0=0.0, p0=0.0, seed=(1, 0))
        split = dirac.energy_fractions(p)
        assert split.w_minus <= 1e-4
        assert split.w_minus == pytest.approx(1 / (16 * sigma**2), rel=1e-2)

    def test_compton_width_against_quadrature_oracle(self):
        p = dirac.build_gaussian(sigma_x=1.0, x0=0.0, p0=0.0, seed=(1, 0))
        split = dirac.energy_fractions(p)
        # independent quadrature: eigendecompose H(k) mode by mode
        w_minus = 0.0
        for j, k in enumerate(p.k):
            h = np.array([[1.0, k], [k, -1.0]])
            vals, vecs = np.linalg.eigh(h)
            minus = vecs[:, int(np.argmin(vals))]
            amp = p.a[:, j]
            w_minus += abs(np.vdot(minus, amp)) ** 2 * p.dk
        assert split.w_minus == pytest.approx(w_minus, abs=1e-12)
        assert split.w_minus >= 1e-2

    def test_projected_packet_is_single_branch(self):
        p = dirac.project_branch(mixed_packet(1.0), +1)
        assert dirac.energy_fractions(p).w_minus <= 1e-14

    def test_monotone_in_width(self):
        widths = [0.5, 1.0, 2.0, 5.0, 10.0, 100.0]
        fractions = []
        for w in widths:
            p = dirac.build_gaussian(sigma_x=w, x0=0.0, p0=0.0, seed=(1, 0))
            fractions.append(dirac.energy_fractions(p).w_minus)
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))

    def test_balanced_seed_splits_evenly(self):
        p = dirac.build_gaussian(sigma_x=50.0, x0=0.0, p0=0.0, seed=(1, 1))
        split = dirac.energy_fractions(p)
        assert split.w_plus == pytest.approx(0.5, abs=1e-3)
        assert split.w_minus == pytest.approx(0.5, abs=1e-3)


class TestEvolution:
    def test_unitary(self):
        p = mixed_packet(3.0)
        out = evolved(p, 37.5)
        assert abs(out.norm() - p.norm()) <= 1e-12

    def test_position_grid_oracle(self):
        # brute force: transform to a position grid and integrate x |psi|^2
        p = mixed_packet(10.0)
        for t in (0.0, 0.9, 2.3):
            moved = evolved(p, t)
            x, psi = to_position(moved)
            rho = (np.abs(psi) ** 2).sum(axis=0)
            dx = x[1] - x[0]
            assert rho.sum() * dx == pytest.approx(1.0, rel=1e-10)
            oracle = float((x * rho).sum() / rho.sum())
            assert dirac.mean_position(moved) == pytest.approx(oracle, abs=1e-9)


class TestZitterbewegung:
    def setup_method(self):
        self.packet = mixed_packet(10.0)
        self.trace = zbw_trace(self.packet)

    def test_frequency(self):
        fit = self.trace.fit
        assert fit.omega == pytest.approx(self.packet.zbw_omega, rel=0.05)
        assert fit.rms_residual <= 0.1 * fit.amplitude

    def test_amplitude(self):
        lam = self.packet.compton_length
        assert self.trace.fit.amplitude <= 1.1 * lam / 2
        assert self.trace.fit.amplitude >= 0.8 * lam / 2

    def test_pure_branch_has_no_oscillation(self):
        pure = dirac.project_branch(self.packet, +1)
        trace = zbw_trace(pure)
        assert trace.fit.amplitude <= 1e-6 * pure.compton_length

    def test_velocity_oscillates_at_same_frequency(self):
        t_max = 6 * 2 * math.pi / self.packet.zbw_omega
        _, vtrace, _ = dirac.zbw_traces(self.packet, t_max, 768)
        assert vtrace.fit.omega == pytest.approx(self.trace.fit.omega, rel=0.05)

    def test_interference_term_is_pointwise_nonzero(self):
        # the cross density of the two branches is visibly nonzero pointwise
        plus = dirac.project_branch(self.packet, +1)
        minus = dirac.project_branch(self.packet, -1)
        _, psi_p = to_position(plus)
        _, psi_m = to_position(minus)
        cross = 2 * np.real((psi_p * np.conj(psi_m)).sum(axis=0))
        assert np.max(np.abs(cross)) > 1e-5


class TestClosedFormTraces:
    @pytest.mark.parametrize("kw", [
        dict(sigma_x=10.0, x0=0.0, p0=0.0, seed=(1, 1)),
        dict(sigma_x=3.0, x0=1.5, p0=0.7, seed=(0.3, 1j)),
        dict(sigma_x=2.0, x0=-2.0, p0=-0.4, seed=(1 - 0.5j, 0.2 + 1j)),
        dict(sigma_x=1.0, x0=0.5, p0=0.0, seed=(1j, 1)),
    ])
    def test_matches_per_sample_evolution(self, kw):
        # reference: evolve each sample exactly, then <x> spectrally and
        # <sigma_x> = 2 Re(conj(a0) a1) dk / norm mode by mode (c = 1)
        p = dirac.build_gaussian(**kw)
        t_max = 3 * 2 * math.pi / p.zbw_omega
        xtrace, vtrace, _ = dirac.zbw_traces(p, t_max, 64)
        assert np.array_equal(xtrace.x_mean, dirac.mean_position_trace(p, t_max, 64).x_mean)
        x_ref, v_ref = [], []
        for t in xtrace.times:
            moved = evolved(p, t)
            a0, a1 = moved.a
            x_ref.append(dirac.mean_position(moved))
            v_ref.append(2 * np.real(np.sum(np.conj(a0) * a1)) * moved.dk / moved.norm())
        x_ref, v_ref = np.array(x_ref), np.array(v_ref)
        assert np.max(np.abs(xtrace.x_mean - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))
        assert np.max(np.abs(vtrace.x_mean - v_ref)) <= 1e-12

    @pytest.mark.parametrize("samples", [16, 17, 768, 769, 1000])
    @pytest.mark.parametrize("kw", [
        dict(sigma_x=10.0, x0=0.0, p0=0.0, seed=(1, 1)),
        dict(sigma_x=2.0, x0=-2.0, p0=-0.4, seed=(1 - 0.5j, 0.2 + 1j)),
        dict(sigma_x=10.0, x0=0.0, p0=10.0, seed=(1, 1)),
    ])
    def test_angle_addition_matches_direct_sum(self, kw, samples):
        # reference: the full (samples, n_k) phase matrix through np.sin/np.cos
        # and mat-vecs; square, prime and ragged-last-block sample counts. The
        # p0 = 0 grid holds 549 distinct 2E(k) in 1024 modes; no frequency
        # repeats on the boosted one
        p = dirac.build_gaussian(**kw)
        t_max = 6 * 2 * math.pi / p.zbw_omega
        xtrace, vtrace, _ = dirac.zbw_traces(p, t_max, samples)
        t = np.linspace(0.0, t_max, samples)
        assert np.array_equal(xtrace.times, t)
        e = np.hypot(p.k, 1.0)
        nx, nz = p.k / e, 1.0 / e
        a0, a1 = p.a
        weight = p.dk / p.norm()
        cross = 2 * weight * np.conj(a0) * a1
        drift = nx * (nx * cross.real + nz * weight * (np.abs(a0) ** 2 - np.abs(a1) ** 2))
        beat_cos, beat_sin = cross.real - drift, nz * cross.imag
        omega = 2 * e
        phase = np.outer(t, omega)
        sin, cos = np.sin(phase), np.cos(phase)
        v_ref = drift.sum() + cos @ beat_cos - sin @ beat_sin
        x_ref = (dirac.mean_position(p) + drift.sum() * t + sin @ (beat_cos / omega)
                 + cos @ (beat_sin / omega) - (beat_sin / omega).sum())
        assert np.max(np.abs(xtrace.x_mean - x_ref)) <= 1e-13 * max(1.0, np.max(np.abs(x_ref)))
        assert np.max(np.abs(vtrace.x_mean - v_ref)) <= 1e-13

    @pytest.mark.parametrize("periods, samples", [(4.01, 256), (6, 768), (64, 1280),
                                                  (64, 4096)])
    @pytest.mark.parametrize("sigma", [1.0, 10.0, 1000.0])
    def test_rotation_tables_match_direct_exponentials(self, sigma, periods, samples):
        # reference: exp of the full outer product of row times and 2E(k)
        p = mixed_packet(sigma)
        omega = 2 * np.hypot(p.k, 1.0)
        dt = np.linspace(0.0, periods * 2 * math.pi / p.zbw_omega, samples)[1]
        b = math.isqrt(samples - 1) + 1
        for times in (np.arange(-(-samples // b)) * b * dt, np.arange(b) * dt):
            angle = np.outer(times, omega)
            err = np.max(np.abs(dirac._rotation_table(times, omega) - np.exp(1j * angle)))
            assert err <= 4 * np.finfo(float).eps * (1 + angle.max())

    @pytest.mark.parametrize("samples", [64, 768, 4096])
    def test_shared_tables_match_separate_traces(self, samples):
        # the projected branch reuses the packet's trig tables bit for bit
        p = mixed_packet()
        pure = dirac.project_branch(p, +1)
        t_max = 6 * 2 * math.pi / p.zbw_omega
        _, _, pure_trace = dirac.zbw_traces(p, t_max, samples)
        alone = dirac.mean_position_trace(pure, t_max, samples)
        assert np.array_equal(pure_trace.times, alone.times)
        assert np.array_equal(pure_trace.x_mean, alone.x_mean)
        assert pure_trace.fit == alone.fit

    def test_long_trace_memory_is_bounded(self):
        # the direct (samples, n_k) sin and cos matrices would take 1.6 GB here
        p = mixed_packet()
        tracemalloc.start()
        try:
            xtrace, *_ = dirac.zbw_traces(p, 6 * 2 * math.pi / p.zbw_omega, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xtrace.x_mean.shape == (100_000,)
        assert peak < 20 * 2**20

    def test_default_trace_working_set(self):
        # tables of one column per distinct 2E(k), and no velocity trace for
        # the projected branch; measured after one warm-up call, since the FFT
        # and LAPACK caches are not the traces' working set
        p = mixed_packet()
        t_max = 6 * 2 * math.pi / p.zbw_omega
        dirac.zbw_traces(p, t_max, 768)
        tracemalloc.start()
        try:
            dirac.zbw_traces(p, t_max, 768)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 2**20

    @pytest.mark.parametrize("trace_fn", [dirac.mean_position_trace, dirac.zbw_traces])
    @pytest.mark.parametrize("t_max, samples, match", [
        (0.0, 768, "t_max"),
        (-1.0, 768, "t_max"),
        (10.0, 3, "samples"),
    ])
    def test_rejects_bad_inputs(self, trace_fn, t_max, samples, match):
        with pytest.raises(ValueError, match=match):
            trace_fn(mixed_packet(), t_max, samples)


class TestTimeAverage:
    def setup_method(self):
        self.packet = mixed_packet(10.0)
        self.trace = zbw_trace(self.packet)

    def test_compton_window_suppression(self):
        window = math.pi  # the Compton time pi hbar / (m c^2)
        averaged = dirac.time_average(self.trace, window)
        assert averaged.fit.amplitude <= 0.1 * self.trace.fit.amplitude

    def test_full_period_window(self):
        window = 2 * math.pi / self.trace.fit.omega
        averaged = dirac.time_average(self.trace, window)
        assert averaged.fit.amplitude <= 0.02 * self.trace.fit.amplitude

    def test_tiny_window_is_identity(self):
        dt = float(self.trace.times[1] - self.trace.times[0])
        averaged = dirac.time_average(self.trace, 0.3 * dt)
        assert np.array_equal(averaged.x_mean, self.trace.x_mean)
        assert np.array_equal(averaged.times, self.trace.times)

    def test_window_bound(self):
        span = float(self.trace.times[-1] - self.trace.times[0])
        with pytest.raises(ValueError, match="quarter"):
            dirac.time_average(self.trace, span / 2)


class TestFitTrace:
    t = np.linspace(0.0, 20.0, 768)

    @pytest.mark.parametrize("omega", [2.0, 2.0024731, 1.37])
    def test_recovers_noise_free_frequency(self, omega):
        x = 0.3 - 0.01 * self.t + 0.5 * np.sin(omega * self.t + 0.7)
        fit = dirac.fit_trace(self.t, x)
        assert fit.omega == pytest.approx(omega, rel=1e-12)
        assert fit.amplitude == pytest.approx(0.5, rel=1e-12)
        assert fit.rms_residual <= 1e-10

    @pytest.mark.parametrize("which", [0, 1])
    def test_refined_frequency_is_residual_minimum(self, which):
        packet = mixed_packet()
        t_max = 6 * 2 * math.pi / packet.zbw_omega
        trace = dirac.zbw_traces(packet, t_max, 768)[which]
        fit = trace.fit
        for factor in (1 - 1e-6, 1 + 1e-6):
            moved = dirac.fit_trace(trace.times, trace.x_mean, omega=fit.omega * factor)
            assert moved.rms_residual >= fit.rms_residual

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(st.floats(0.5, 5.0), st.floats(0.01, 2.0), st.floats(0.0, 2 * math.pi),
           st.floats(-1.0, 1.0), st.floats(-0.1, 0.1))
    def test_matches_lstsq_on_sinusoids(self, omega, amplitude, phase, x0, drift):
        x = x0 + drift * self.t + amplitude * np.sin(omega * self.t + phase)
        fit, ref = dirac.fit_trace(self.t, x), lstsq_fit_trace(self.t, x)
        scale = np.abs(x).max()
        assert fit.omega == pytest.approx(ref.omega, rel=1e-13, abs=0)
        assert fit.amplitude == pytest.approx(ref.amplitude, rel=1e-13, abs=0)
        # lstsq's own slope is off by up to 7e-15 max|x| from the extended
        # precision solve on these draws; the closed form is within 1e-16
        assert abs(fit.slope - ref.slope) <= 1e-14 * scale
        assert abs(fit.slope - extended_slope(self.t, x, fit.omega)) <= 1e-15 * scale

    def test_matches_lstsq_on_default_traces(self):
        packet = mixed_packet()
        t_max = 6 * 2 * math.pi / packet.zbw_omega
        xtrace, vtrace, pure = dirac.zbw_traces(packet, t_max, 768)
        averaged = dirac.time_average(xtrace, math.pi)
        fits = [(tr.fit, lstsq_fit_trace(tr.times, tr.x_mean), tr)
                for tr in (xtrace, vtrace, pure)]
        fits.append((averaged.fit, lstsq_fit_trace(averaged.times, averaged.x_mean,
                                                   xtrace.fit.omega), averaged))
        for fit, ref, tr in fits:
            assert fit.omega == pytest.approx(ref.omega, rel=1e-13, abs=0)
            assert abs(fit.slope - ref.slope) <= 1e-15 * np.abs(tr.x_mean).max()
            if tr is pure:
                # a pure branch has no oscillation: both amplitudes are round-off
                assert max(fit.amplitude, ref.amplitude) <= 1e-15
            else:
                assert fit.amplitude == pytest.approx(ref.amplitude, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n, span", [(64, 63.0), (768, 20.0), (768, 767.0)])
    def test_matches_lstsq_at_nyquist(self, n, span):
        # the periodogram peaks in the Nyquist bin, where sin(Omega t) is only
        # round-off: lstsq's rank rule gives it coefficient 0, as must the closed form
        t = np.linspace(0.0, span, n)
        alt = (-1.0) ** np.arange(n)
        noise = np.random.default_rng(n).standard_normal(n)
        for x in (0.3 - 0.01 * t + 0.5 * alt, 1e-18 * noise + 1e-17 * alt):
            fit, ref = dirac.fit_trace(t, x), lstsq_fit_trace(t, x)
            assert fit.omega == ref.omega == pytest.approx(np.pi / (t[1] - t[0]), rel=1e-15)
            assert fit.amplitude == pytest.approx(ref.amplitude, rel=1e-13, abs=0)
            assert abs(fit.slope - ref.slope) <= 1e-15 * np.abs(x).max()

    def test_no_sinusoid(self):
        fit = dirac.fit_trace(self.t, 0.3 - 0.01 * self.t)
        assert fit.amplitude < 1e-12

    def test_unresolved_oscillation_rejected(self):
        # decays within one period: the periodogram peaks in bin 1 and the
        # refinement walks out of its +-1.5-bin bracket
        with pytest.raises(ValueError, match="bracket"):
            dirac.fit_trace(self.t, np.exp(-1.5 * self.t) * np.sin(3 * self.t))
