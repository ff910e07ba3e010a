import math
import tracemalloc

import numpy as np
import pytest

from qmbh_lab import bohm, experiments


def harmonic_ground_state(n=256, box=16.0):
    """Exact 2-D oscillator ground state (hbar = m = omega = 1), E = 1."""
    dx = box / n
    x = (np.arange(n) - n // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    psi = np.exp(-(X**2 + Y**2) / 2).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx**2)
    return bohm.WaveGrid2D(psi, dx), (X**2 + Y**2) / 2


def grid_norm(grid):
    """Discrete norm sum |psi|^2 dx^2 of a grid state."""
    return float(np.sum(np.abs(grid.psi) ** 2) * grid.dx**2)


class TestWaveGrid:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            bohm.WaveGrid2D(np.ones((48, 48), complex), 0.1)
        with pytest.raises(ValueError, match="power of two"):
            bohm.WaveGrid2D(np.ones((96, 96), complex), 0.1)
        with pytest.raises(ValueError, match="square"):
            bohm.WaveGrid2D(np.ones((64, 128), complex), 0.1)
        bad = np.ones((64, 64), complex)
        bad[3, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            bohm.WaveGrid2D(bad, 0.1)

    def test_norm(self):
        g = bohm.gaussian_state(64, 0.2, sigma=1.0)
        assert grid_norm(g) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("center, k", [((0.0, 0.0), (0.0, 0.0)),
                                           ((-1.3, 0.7), (1.0, -0.5))])
    def test_separable_gaussian_matches_2d_form(self, center, k):
        # reference: the envelope and plane wave evaluated on the 2-D mesh
        n, dx, sigma = 128, 0.15, 1.1
        x = (np.arange(n) - n // 2) * dx
        X, Y = np.meshgrid(x, x, indexing="ij")
        psi = (np.exp(-((X - center[0]) ** 2 + (Y - center[1]) ** 2) / (4 * sigma**2))
               * np.exp(1j * (k[0] * X + k[1] * Y)))
        psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * dx**2)
        g = bohm.gaussian_state(n, dx, sigma, center=center, k=k)
        assert np.max(np.abs(g.psi - psi)) <= 1e-14 * np.max(np.abs(psi))


class TestEvolve:
    def test_free_gaussian_norm_conservation(self):
        g = bohm.gaussian_state(128, 0.25, sigma=1.5)
        out = bohm.evolve(g, 1e-3, 1000)
        assert abs(grid_norm(out) / grid_norm(g) - 1) <= 1e-10

    def test_ehrenfest_centroid(self):
        # oracle: a free Gaussian's centroid moves at exactly hbar k / m
        n, dx, k = 256, 40.0 / 256, 2.0
        g = bohm.gaussian_state(n, dx, sigma=2.0, center=(-4.0, 0.0), k=(k, 0.0))
        dt, steps = 1e-3, 2000
        out = bohm.evolve(g, dt, steps)

        def centroid(grid):
            x = grid.axis()
            X, _ = np.meshgrid(x, x, indexing="ij")
            rho = np.abs(grid.psi) ** 2
            return float((X * rho).sum() / rho.sum())

        speed = (centroid(out) - centroid(g)) / (dt * steps)
        assert speed == pytest.approx(k, rel=0.01)

    def test_matches_per_step_loop(self):
        # reference: the free per-step loop, one FFT pair per step
        g = bohm.gaussian_state(256, 40.0 / 256, sigma=1.5, k=(1.0, 0.5))
        dt = 5e-4
        k = 2 * np.pi * np.fft.fftfreq(g.n, d=g.dx)
        KX, KY = np.meshgrid(k, k, indexing="ij")
        P = np.exp(-0.5j * (KX**2 + KY**2) * dt)
        psi = g.psi
        for _ in range(400):
            psi = np.fft.ifft2(P * np.fft.fft2(psi))
        out = bohm.evolve(g, dt, 400)
        assert np.max(np.abs(out.psi - psi)) <= 1e-12 * np.max(np.abs(psi))

    @pytest.mark.parametrize("n, box, s0, t", [(256, 40.0, 1.5, 1.0),
                                               (256, 60.0, 1.0, 3.0)])
    def test_free_gaussian_spreading(self, n, box, s0, t):
        # oracle: a free Gaussian's per-axis variance is s0^2 + (t/(2 s0))^2
        # and its centroid moves by k t (hbar = m = 1)
        kx, ky = 1.0, 0.5
        g = bohm.gaussian_state(n, box / n, sigma=s0, k=(kx, ky))
        out = bohm.evolve(g, t, 1)
        x = out.axis()
        X, Y = np.meshgrid(x, x, indexing="ij")
        rho = np.abs(out.psi) ** 2
        rho /= rho.sum()
        variance = s0**2 + (t / (2 * s0)) ** 2
        for coord, k_axis in ((X, kx), (Y, ky)):
            centroid = float((coord * rho).sum())
            assert centroid == pytest.approx(k_axis * t, rel=1e-10)
            spread = float(((coord - centroid) ** 2 * rho).sum())
            assert spread == pytest.approx(variance, rel=1e-10)

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("steps", [0, 1, 400])
    def test_separable_phase_matches_2d_exp(self, n, steps):
        # reference: the kinetic phase as n^2 exponentials on the 2-D k mesh
        g = bohm.gaussian_state(n, 40.0 / n, sigma=1.5, k=(1.0, 0.5))
        dt = 5e-4
        k = 2 * np.pi * np.fft.fftfreq(n, d=g.dx)
        KX, KY = np.meshgrid(k, k, indexing="ij")
        phase = np.exp(-0.5j * (KX**2 + KY**2) * (steps * dt))
        psi = np.fft.ifft2(phase * np.fft.fft2(g.psi))
        out = bohm.evolve(g, dt, steps)
        assert np.max(np.abs(out.psi - psi)) <= 1e-13 * np.max(np.abs(psi))

    def test_rejects_negative_steps(self):
        g = bohm.gaussian_state(64, 0.2, sigma=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            bohm.evolve(g, 1e-3, -1)


class TestDecompose:
    def test_plane_wave_velocity(self):
        # commensurate wavevector keeps the periodic phase seam exact
        n, dx = 256, 0.15
        k = 2 * math.pi * 8 / (n * dx)
        g = bohm.gaussian_state(n, dx, sigma=3.0, k=(k, 0.0))
        f = bohm.decompose(g)
        off = ~f.node_mask
        assert np.max(np.abs(f.v[0][off] - k)) <= 1e-6
        assert np.max(np.abs(f.v[1][off])) <= 1e-6

    def test_real_positive_field(self):
        g = bohm.gaussian_state(64, 0.3, sigma=1.2)
        f = bohm.decompose(g)
        assert np.all(f.v == 0.0)

    def test_vortex_velocity_profile(self):
        n, dx = 256, 0.1
        g = bohm.vortex_state(n, dx, core_radius=2 * dx)
        f = bohm.decompose(g)
        x = g.axis()
        X, Y = np.meshgrid(x, x, indexing="ij")
        r = np.hypot(X, Y)
        speed = np.hypot(f.v[0], f.v[1])
        sel = (r >= 4 * dx) & (r <= n * dx / 4) & ~f.node_mask
        # oracle: |grad(azimuth)| = 1/r
        assert np.max(np.abs(speed[sel] * r[sel] - 1.0)) <= 0.02

    def test_norm_preserved_by_decomposition(self):
        g = bohm.gaussian_state(128, 0.2, sigma=1.0)
        f = bohm.decompose(g)
        assert float(np.sum(f.R**2) * g.dx**2) == pytest.approx(grid_norm(g), rel=1e-12)

    def test_reconstruct(self):
        g = bohm.gaussian_state(128, 0.2, sigma=1.0, k=(0.7, -0.4))
        f = bohm.decompose(g)
        back = f.R * np.exp(1j * f.S)
        assert np.max(np.abs(back - g.psi)) <= 1e-12 * np.max(np.abs(g.psi))

    def test_velocity_is_computed_on_first_read(self):
        g = bohm.gaussian_state(128, 0.2, sigma=1.0, k=(0.7, -0.4))
        f = bohm.decompose(g)
        assert "v" not in f.__dict__
        bohm.quantum_potential(f)
        assert "v" not in f.__dict__
        expected = bohm._wrapped_gradient(f.S, f.dx, 2 * math.pi)
        assert np.array_equal(f.v, expected)
        assert f.__dict__["v"] is f.v

    def test_synthetic_velocity_uses_phase_period(self):
        n, dx = 128, 0.1
        x = (np.arange(n) - n // 2) * dx
        X, Y = np.meshgrid(x, x, indexing="ij")
        S = 0.5 * np.arctan2(Y, X)
        f = bohm.synthetic_fields(np.ones((n, n)), S, dx, phase_period=math.pi)
        assert "v" not in f.__dict__
        c = n // 2
        bohm.circulation(f, bohm.LoopPath.rectangle(c - 20, c - 20, c + 20, c + 20))
        assert "v" not in f.__dict__
        assert np.array_equal(f.v, bohm._wrapped_gradient(S, dx, math.pi))

    def test_zero_field_rejected(self):
        g = bohm.gaussian_state(64, 0.2, sigma=1.0)
        g.psi[:] = 0.0
        with pytest.raises(ValueError, match="zero"):
            bohm.decompose(g)


class TestQuantumPotential:
    def test_stationary_state_constancy(self):
        g, v = harmonic_ground_state()
        f = bohm.decompose(g)
        q = bohm.quantum_potential(f)
        total = q + v
        off = ~f.node_mask
        # Q + V = E = 1 for the ground state
        assert float(total[off].mean()) == pytest.approx(1.0, abs=1e-6)
        assert float(total[off].std()) <= 1e-3

    def test_plane_wave_zero(self):
        n = 64
        x = (np.arange(n) - n // 2) * 0.2
        X, _ = np.meshgrid(x, x, indexing="ij")
        k = 2 * math.pi * 4 / (n * 0.2)
        g = bohm.WaveGrid2D(np.exp(1j * k * X), 0.2)
        q = bohm.quantum_potential(bohm.decompose(g))
        assert float(np.max(np.abs(q))) <= 1e-10

    def test_gaussian_peak_value(self):
        # oracle: closed-form Laplacian of the Gaussian amplitude at center,
        # Q(0) = hbar^2 / (2 m sigma^2)
        sigma = 1.2
        g = bohm.gaussian_state(256, 16.0 / 256, sigma=sigma)
        q = bohm.quantum_potential(bohm.decompose(g))
        assert q[128, 128] == pytest.approx(1 / (2 * sigma**2), rel=0.01)


def complex_fft_derivatives(field, dx):
    """Reference: (Laplacian, d/dx, d/dy) of a real periodic grid as the real
    part of full complex FFT pairs."""
    k = 2 * np.pi * np.fft.fftfreq(field.shape[0], d=dx)
    KX, KY = np.meshgrid(k, k, indexing="ij")
    spectrum = np.fft.fft2(field)
    return tuple(np.real(np.fft.ifft2(factor * spectrum))
                 for factor in (-(KX**2 + KY**2), 1j * KX, 1j * KY))


class TestRealTransforms:
    def real_fields(self, n):
        rng = np.random.default_rng(n)
        g = bohm.gaussian_state(n, 40.0 / n, sigma=1.5, k=(1.0, 0.5))
        f = bohm.decompose(g)
        # smooth fluxes as the continuity check sees them, and white noise,
        # which fills the Nyquist row and column
        return [(f.R, f.R * f.v[0], f.R * f.v[1]),
                tuple(rng.standard_normal((3, n, n)))]

    @pytest.mark.parametrize("n", [64, 256])
    def test_laplacian_matches_complex_fft(self, n):
        dx = 40.0 / n
        for field, _, _ in self.real_fields(n):
            ref, _, _ = complex_fft_derivatives(field, dx)
            lap = bohm._spectral_laplacian(field, dx)
            assert np.max(np.abs(lap - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [64, 256])
    def test_divergence_matches_complex_fft(self, n):
        dx = 40.0 / n
        for _, fx, fy in self.real_fields(n):
            _, dfx, _ = complex_fft_derivatives(fx, dx)
            _, _, dfy = complex_fft_derivatives(fy, dx)
            div = bohm._spectral_divergence(fx, fy, dx)
            scale = max(np.max(np.abs(dfx)), np.max(np.abs(dfy)))
            assert np.max(np.abs(div - (dfx + dfy))) <= 1e-12 * scale


class TestCirculation:
    def setup_method(self):
        self.n, self.dx = 256, 0.1
        grid = bohm.vortex_state(self.n, self.dx, core_radius=2 * self.dx)
        self.fields = bohm.decompose(grid)
        self.center = self.n // 2

    def test_unit_vortex(self):
        c = self.center
        loop = bohm.LoopPath.rectangle(c - 20, c - 20, c + 20, c + 20)
        res = bohm.circulation(self.fields, loop)
        # oracle: analytic circulation of exp(i phi) is 2 pi hbar / m
        assert res.gamma == pytest.approx(2 * math.pi, rel=1e-6)
        assert res.half_quanta == pytest.approx(2.0, abs=1e-3)
        assert res.nearest == 2
        assert res.residual <= 1e-3

    def test_no_vortex_enclosed(self):
        c = self.center
        loop = bohm.LoopPath.rectangle(c + 10, c + 10, c + 40, c + 40)
        res = bohm.circulation(self.fields, loop)
        assert res.nearest == 0
        assert res.residual <= 1e-3

    def test_loop_independence(self):
        c = self.center
        loops = [
            bohm.LoopPath.rectangle(c - 8, c - 8, c + 8, c + 8),
            bohm.LoopPath.rectangle(c - 30, c - 12, c + 9, c + 27),
            bohm.LoopPath.rectangle(c - 55, c - 55, c + 55, c + 55),
        ]
        values = [bohm.circulation(self.fields, lp).half_quanta for lp in loops]
        assert max(values) - min(values) <= 1e-3

    def test_half_winding_synthetic_field(self):
        n, dx = self.n, self.dx
        x = (np.arange(n) - n // 2) * dx
        X, Y = np.meshgrid(x, x, indexing="ij")
        phi = np.arctan2(Y, X)
        fields = bohm.synthetic_fields(np.ones((n, n)), 0.5 * phi, dx,
                                       phase_period=math.pi)
        c = self.center
        loop = bohm.LoopPath.rectangle(c - 20, c - 20, c + 20, c + 20)
        res = bohm.circulation(fields, loop)
        # oracle: analytic loop integral of grad(phi/2) is pi
        assert res.gamma == pytest.approx(math.pi, abs=1e-3)
        assert res.half_quanta == pytest.approx(1.0, abs=1e-3)

    def test_matches_segment_sum_bit_for_bit(self):
        # reference: the per-segment loop, one wrapped difference at a time
        def segment_sum(fields, loop):
            total = 0.0
            nodes = loop.nodes
            for (i0, j0), (i1, j1) in zip(nodes, nodes[1:] + nodes[:1]):
                delta = float(fields.S[i1, j1] - fields.S[i0, j0])
                total += float(bohm._wrap_centered(np.float64(delta),
                                                   fields.phase_period))
            return total

        n, dx, c = self.n, self.dx, self.center
        x = (np.arange(n) - n // 2) * dx
        X, Y = np.meshgrid(x, x, indexing="ij")
        half = bohm.synthetic_fields(np.ones((n, n)), 0.5 * np.arctan2(Y, X), dx,
                                     phase_period=math.pi)
        loops = [bohm.LoopPath.rectangle(c - 10, c - 10, c + 10, c + 10),
                 bohm.LoopPath.rectangle(c - 25, c - 20, c + 18, c + 24),
                 bohm.LoopPath.rectangle(c - 50, c - 50, c + 50, c + 50),
                 bohm.LoopPath.rectangle(c + 10, c + 10, c + 40, c + 40)]
        for fields in (self.fields, half):
            for loop in loops:
                assert bohm.circulation(fields, loop).gamma == segment_sum(fields, loop)

    @pytest.mark.parametrize("corner", [-1, 250])
    def test_node_outside_grid_rejected(self, corner):
        loop = bohm.LoopPath.rectangle(corner, 100, corner + 10, 110)
        with pytest.raises(ValueError, match="outside the grid"):
            bohm.circulation(self.fields, loop)

    def test_masked_node_rejected(self):
        c = self.center  # vortex core sits at the center node, R = 0 there
        assert self.fields.node_mask[c, c]
        loop = bohm.LoopPath(
            [(c, c), (c + 1, c), (c + 1, c + 1), (c, c + 1)])
        with pytest.raises(ValueError, match="masked node"):
            bohm.circulation(self.fields, loop)

    def test_loop_validation(self):
        with pytest.raises(ValueError, match="grid edges"):
            bohm.LoopPath([(0, 0), (2, 0), (2, 2), (0, 2)])
        with pytest.raises(ValueError, match="simple"):
            bohm.LoopPath([(0, 0), (1, 0), (0, 0), (0, 1)])
        with pytest.raises(ValueError, match="at least 4"):
            bohm.LoopPath([(0, 0), (1, 0)])


class TestContinuity:
    def test_evolved_pair_residual(self):
        g = bohm.gaussian_state(256, 40.0 / 256, sigma=1.5, k=(1.0, 0.5))
        dt = 5e-4
        mid = bohm.evolve(g, dt, 400)
        before = bohm.evolve(g, dt, 399)
        after = bohm.evolve(g, dt, 401)
        assert bohm.continuity_residual(before, mid, after, dt) <= 1e-3


def stacked_wrapped_gradient(S, dx, period):
    """Reference: the per-axis list-and-stack form of `_wrapped_gradient`."""
    grads = []
    for axis in (0, 1):
        step = bohm._wrap_centered(np.roll(S, -1, axis=axis) - S, period)
        d_plus1 = step
        d_plus2 = step + np.roll(step, -1, axis=axis)
        d_minus1 = -np.roll(step, 1, axis=axis)
        d_minus2 = d_minus1 - np.roll(step, 2, axis=axis)
        grads.append((8 * (d_plus1 - d_minus1) - (d_plus2 - d_minus2)) / (12 * dx))
    return np.stack(grads)


class TestInPlaceBitIdentity:
    """The in-place kernels repeat the reference forms' floating-point
    operations in the same order, so they agree bit for bit."""

    @pytest.fixture(scope="class")
    def triple(self):
        g = bohm.gaussian_state(256, 40.0 / 256, sigma=1.5, k=(1.0, 0.5))
        return [bohm.evolve(g, 5e-4, steps) for steps in (399, 400, 401)]

    @pytest.mark.parametrize("period", [2 * math.pi, math.pi])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_wrapped_gradient_on_random_phases(self, period, seed):
        rng = np.random.default_rng(seed)
        S = rng.uniform(-period / 2, period / 2, (128, 128))
        assert np.array_equal(bohm._wrapped_gradient(S, 0.07, period),
                              stacked_wrapped_gradient(S, 0.07, period))

    def test_wrapped_gradient_on_evolved_state(self, triple):
        f = bohm.decompose(triple[1])
        assert np.array_equal(f.v, stacked_wrapped_gradient(f.S, f.dx, 2 * math.pi))


GRIDS = [128, 256, 512, 1024]


def full_grid_vortex_stage(f, dx):
    """`experiments._vortex_stage`'s rows, and the deviations whose maximum it
    returns, computed on the full-grid fields f of the vortex: the loops in
    grid coordinates, the half-winding field and v over the whole grid, and
    the deviations over the whole grid's annulus 4 dx <= r <= n dx / 4."""
    n, c0 = f.n, f.n // 2
    x = bohm.centered_axis(n, dx)
    mid = (c0 - 25, c0 - 20, c0 + 18, c0 + 24)
    rows = []
    for name, corners in [("inner", (c0 - 10, c0 - 10, c0 + 10, c0 + 10)),
                          ("mid", mid), ("outer", (c0 - 50, c0 - 50, c0 + 50, c0 + 50))]:
        res = bohm.circulation(f, bohm.LoopPath.rectangle(*corners))
        rows.append([name, res.gamma, res.half_quanta, res.residual])
    half = bohm.synthetic_fields(np.ones((n, n)), 0.5 * np.arctan2(x[None, :], x[:, None]),
                                 dx, phase_period=math.pi)
    res = bohm.circulation(half, bohm.LoopPath.rectangle(*mid))
    rows.append(["half-winding", res.gamma, res.half_quanta, res.residual])
    del half
    speed = np.hypot(f.v[0], f.v[1])
    del f.v  # drop the cached v: a caller may hold two sets of full-grid fields
    r = np.hypot(x[:, None], x[None, :])
    sel = (r >= 4 * dx) & (r <= n * dx / 4) & ~f.node_mask
    return rows, np.abs(speed[sel] * r[sel] - 1.0)


def four_outer_continuity_residual(n):
    """Reference: `experiments._continuity_stage` with each of the four outer
    products a grid of its own and the scale read from |g| grids."""
    dx, dt, steps = 40.0 / n, 5e-4, 400
    factors = []
    for kc in (1.0, 0.5):
        f = bohm.gaussian_factor(n, dx, sigma=1.5, k=kc)
        minus, plus = (np.abs(bohm.evolve_factor(f, dx, dt, s)) ** 2
                       for s in (steps - 1, steps + 1))
        mid = bohm.evolve_factor(f, dx, dt, steps)
        rho = np.abs(mid) ** 2
        v = bohm._wrapped_gradient(np.angle(mid), dx, 2 * math.pi)[0]
        factors.append((minus, rho, plus, bohm._rfft_derivative(rho * v, dx, 1)))
    (am, a, ap, da), (bm, b, bp, db) = factors
    rho_dot = (np.outer(ap, bp) - np.outer(am, bm)) / (2 * dt)
    div = np.outer(da, b) + np.outer(a, db)
    scale = max(float(np.max(np.abs(rho_dot))), float(np.max(np.abs(div))))
    return float(np.sqrt(np.mean((rho_dot + div) ** 2))) / scale


def full_grid_q_plus_v_std(n):
    """Reference: `experiments._harmonic_stage` by np.std of the kept sites of
    the full Q + V grid, selected by the full R grid."""
    dx, thr = 16.0 / n, bohm.NODE_MASK_RELATIVE_THRESHOLD
    r = np.abs(bohm.gaussian_factor(n, dx, sigma=math.sqrt(0.5)))
    h = bohm._rfft_derivative(r, dx, 2) * -0.5 / np.where(r < thr * r.max(), 1.0, r)
    h += bohm.centered_axis(n, dx) ** 2 / 2
    R = np.outer(r, r)
    return float(np.add.outer(h, h)[R >= thr * R.max()].std())


def peak_bytes(stage, n):
    """tracemalloc peak of stage(n) in bytes, after one warm-up call (the FFT
    plan caches are not the stage's working set)."""
    stage(n)
    tracemalloc.start()
    try:
        stage(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_rows(stage, n):
    """`peak_bytes` in rows of n float64 values: a bound on it that does not
    depend on n is a working set that grows as n, not n^2."""
    return peak_bytes(stage, n) / (8 * n)


class TestProductStates:
    """The product-state forms of the bohm-vortex stages against the 2-D
    reference paths they replace."""

    @pytest.mark.parametrize("n", GRIDS)
    def test_factor_evolution_matches_2d_evolve(self, n):
        dx, dt = 40.0 / n, 5e-4
        fa, fb = (bohm.gaussian_factor(n, dx, 1.5, k=k) for k in (1.0, 0.5))
        norm = math.sqrt(np.sum(np.abs(fa) ** 2) * np.sum(np.abs(fb) ** 2)) * dx
        psi = bohm.evolve(bohm.gaussian_state(n, dx, 1.5, k=(1.0, 0.5)), dt, 400).psi
        outer = np.outer(*(bohm.evolve_factor(f, dx, dt, 400) for f in (fa, fb))) / norm
        assert np.max(np.abs(outer - psi)) <= 1e-13 * np.max(np.abs(psi))

    @pytest.mark.parametrize("n", GRIDS)
    def test_continuity_stage_matches_2d_residual(self, n):
        g = bohm.gaussian_state(n, 40.0 / n, sigma=1.5, k=(1.0, 0.5))
        ref = bohm.continuity_residual(
            *(bohm.evolve(g, 5e-4, steps) for steps in (399, 400, 401)), 5e-4)
        assert experiments._continuity_stage(n) == pytest.approx(ref, rel=1e-5)

    @pytest.mark.parametrize("n", GRIDS)
    def test_harmonic_stage_matches_2d_quantum_potential(self, n):
        g = bohm.gaussian_state(n, 16.0 / n, sigma=math.sqrt(0.5))
        x = g.axis()
        f = bohm.decompose(g)
        total = bohm.quantum_potential(f) + np.add.outer(x**2, x**2) / 2
        ref = float(total[~f.node_mask].std())
        std = experiments._harmonic_stage(n)
        assert abs(std - ref) <= 1e-5
        assert max(std, ref) < 1e-4

    @pytest.mark.parametrize("n", GRIDS)
    def test_continuity_stage_same_bits_as_four_outer_products(self, n):
        assert experiments._continuity_stage(n) == four_outer_continuity_residual(n)

    @pytest.mark.parametrize("n", GRIDS)
    def test_harmonic_stage_same_bits_as_np_std(self, n):
        assert experiments._harmonic_stage(n) == full_grid_q_plus_v_std(n)

    @pytest.mark.parametrize("seed", range(4))
    def test_block_mean_within_eps_of_the_exact_mean(self, seed):
        # blocks of any sizes, empty ones included; the oracle is the
        # correctly rounded sum of all the values. The last input's twelve
        # block sums cancel: a plain left-to-right sum of them drops every
        # 1.0 against 1e16 and gives 0, off by 0.83 against a bound of 0.37
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(20000) * 10.0 ** rng.uniform(-6, 6, 20000)
        inputs = [np.split(values[:size], np.sort(rng.integers(0, size, 40)))
                  for size in (1, 129, 1000, 16392, 20000)]
        inputs.append([np.array([x]) for x in (1e16, *[1.0] * 10, -1e16)])
        for blocks in inputs:
            mean = bohm._block_mean(lambda rows: blocks[rows.start // bohm.PRODUCT_ROWS],
                                    len(blocks) * bohm.PRODUCT_ROWS)
            flat = np.concatenate(blocks)
            exact = math.fsum(flat) / flat.size
            scale = math.fsum(np.abs(flat)) / flat.size
            assert abs(mean - exact) <= np.finfo(float).eps * scale

    def test_q_plus_v_std_within_4_ulps_of_exact_std_on_any_amplitude(self):
        # repeated values and zeros, so the kept sites of a row are no
        # interval; with a peak of 1, r = 1e-8 and 1 meet on the threshold.
        # The oracle is the two-pass std of the full grid's kept sites, each
        # pass summed exactly
        rng = np.random.default_rng(0)
        dx, thr = 0.1, bohm.NODE_MASK_RELATIVE_THRESHOLD
        for _ in range(200):
            n = int(rng.integers(2, 70))
            r = rng.choice([0.0, 1e-8, 2e-8, 1e-4, 0.5, 1.0], n)
            r[0] = 1.0
            h = bohm._rfft_derivative(r, dx, 2) * -0.5 / np.where(r < thr, 1.0, r)
            h += np.sin(bohm.centered_axis(n, dx))
            R = np.outer(r, r)
            kept = np.add.outer(h, h)[R >= thr * R.max()]
            mean = math.fsum(kept) / kept.size
            ref = math.sqrt(math.fsum(np.square(kept - mean)) / kept.size)
            std = bohm.product_q_plus_v_std(r, dx, np.sin)
            assert abs(std - ref) <= 4 * math.ulp(ref)

    def test_continuity_stage_working_set(self):
        # three blocks of rows (rho_dot, div and an outer product of a block)
        # and the 1-D factors: 240 rows at 512, 215 at 2048
        for n in (512, 2048):
            assert peak_rows(experiments._continuity_stage, n) <= 4 * bohm.PRODUCT_ROWS

    def test_harmonic_stage_working_set(self):
        # a block of Q + V, its kept sites and its site mask; the block of R
        # that the mask is taken from is freed first: 122 rows at 512, 123
        # at 2048
        for n in (512, 2048):
            assert peak_rows(experiments._harmonic_stage, n) <= 2.5 * bohm.PRODUCT_ROWS

    def test_vortex_stage_working_set(self):
        # the fields of the 101 x 101 loop box, freed before those of the
        # 69 x 69 profile box: 0.36 MiB at every grid, 92 rows at 512 and
        # 23 at 2048
        for n in (512, 2048):
            assert peak_rows(lambda n: experiments._vortex_stage(), n) <= 200

    def test_runner_working_set_at_grid_2048(self):
        # the stages run in turn: the continuity stage sets the peak, 0.53
        # MiB at grid 256 and 3.36 MiB at 2048. At 256 the bound also
        # catches a vortex stage that takes v on the whole loop box (0.69 MiB)
        for n, bound in ((256, 0.6 * 2**20), (2048, 4 * 2**20)):
            peak = peak_bytes(lambda n: experiments._run_bohm_vortex({"grid": n}), n)
            assert peak <= bound

    @pytest.mark.parametrize("n", GRIDS)
    def test_vortex_state_matches_meshgrid_form(self, n):
        dx = 0.1
        x = (np.arange(n) - n // 2) * dx
        X, Y = np.meshgrid(x, x, indexing="ij")
        psi = np.tanh(np.hypot(X, Y) / (2 * dx)) * np.exp(1j * np.arctan2(Y, X))
        assert np.array_equal(bohm.vortex_state(n, dx, core_radius=2 * dx).psi, psi)

    @pytest.mark.parametrize("n", [*GRIDS, 2048])
    @pytest.mark.parametrize("dx", [0.1, 0.37])
    def test_box_velocity_profile_matches_full_grid(self, n, dx):
        # the stage builds the vortex on two fixed boxes about its axis and
        # takes v over grid 128's annulus, r <= 32 dx; the same fields over
        # the whole grid, with its n dx / 4 annulus, give the same bits
        rows, dev = experiments._vortex_stage(dx)
        f = bohm.vortex_fields(bohm.centered_axis(n, dx), dx, core_radius=2 * dx)
        rows_full, devs = full_grid_vortex_stage(f, dx)
        assert (rows, dev) == (rows_full, devs.max())

    def test_factor_checks(self):
        f = bohm.gaussian_factor(64, 0.2, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            bohm.evolve_factor(f, 0.2, 1e-3, -1)
        with pytest.raises(ValueError, match="finite"):
            bohm.evolve_factor(np.where(np.arange(64) == 3, np.nan, f), 0.2, 1e-3, 1)
        with pytest.raises(ValueError, match="identically zero"):
            bohm.product_continuity_residual(f, np.zeros(64), 0.2, 1e-3, 1)
        with pytest.raises(ValueError, match="identically zero"):
            bohm.product_q_plus_v_std(np.zeros(64), 0.2, np.zeros_like)
        with pytest.raises(ValueError, match="non-negative"):
            bohm.product_q_plus_v_std(np.where(np.arange(64) == 3, -1.0, f.real), 0.2,
                                      np.zeros_like)


class TestVortexFields:
    """bohm-vortex builds its vortex from the real R and S; the oracle is the
    Madelung split of the complex vortex state."""

    @pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048])
    @pytest.mark.parametrize("dx", [0.1, 0.37])
    def test_matches_decomposed_vortex_state(self, n, dx):
        ref = bohm.decompose(bohm.vortex_state(n, dx, core_radius=2 * dx))
        rows_ref, devs_ref = full_grid_vortex_stage(ref, dx)
        f = bohm.vortex_fields(bohm.centered_axis(n, dx), dx, core_radius=2 * dx)
        assert np.max(np.abs(f.R - ref.R) / np.where(ref.node_mask, 1.0, ref.R)) <= 2.3e-16
        assert np.max(np.abs(f.S - ref.S)) <= 2.3e-16
        assert np.array_equal(f.node_mask, ref.node_mask)
        assert (f.dx, f.phase_period) == (ref.dx, ref.phase_period)
        del ref
        _, devs = full_grid_vortex_stage(f, dx)
        # the velocity-profile claim reads the maximum deviation, which is
        # bit-equal; single deviations move by the S error over the stencil,
        # times r
        rows, dev = experiments._vortex_stage(dx)
        assert dev == devs_ref.max()
        assert np.max(np.abs(devs - devs_ref)) <= 1e-16 * n
        # S differs from the reference's in the last bits at a few loop nodes,
        # which moves gamma by round-off; the half-winding row does not read
        # the vortex
        assert rows[3] == rows_ref[3]
        for row, row_ref in zip(rows[:3], rows_ref[:3]):
            assert row[0] == row_ref[0]
            assert row[1] == pytest.approx(row_ref[1], rel=1e-14, abs=0.0)
