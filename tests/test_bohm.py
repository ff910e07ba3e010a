import math

import numpy as np
import pytest

from qmbh_lab import bohm
from qmbh_lab.constants import BUILTIN_PARTICLES, CGS

ELECTRON = BUILTIN_PARTICLES["electron"]


def harmonic_ground_state(n=256, box=16.0):
    """Exact 2-D oscillator ground state (hbar = m = omega = 1), E = 1."""
    dx = box / n
    x = (np.arange(n) - n // 2) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")
    psi = np.exp(-(X**2 + Y**2) / 2).astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx**2)
    return bohm.WaveGrid2D(psi, dx), (X**2 + Y**2) / 2


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
        assert g.norm() == pytest.approx(1.0, rel=1e-12)


class TestEvolve:
    def test_free_gaussian_norm_conservation(self):
        g = bohm.gaussian_state(128, 0.25, sigma=1.5)
        out = bohm.evolve(g, None, 1e-3, 1000)
        assert abs(out.norm() / g.norm() - 1) <= 1e-10

    def test_stationary_state_density(self):
        g, v = harmonic_ground_state()
        dt = 2e-5
        assert bohm.split_step_error_bound(g, v, dt) <= 1e-6
        out = bohm.evolve(g, v, dt, 1000)
        drift = np.max(np.abs(np.abs(out.psi) ** 2 - np.abs(g.psi) ** 2))
        assert drift / np.max(np.abs(g.psi) ** 2) <= 1e-6

    def test_ehrenfest_centroid(self):
        # oracle: a free Gaussian's centroid moves at exactly hbar k / m
        n, dx, k = 256, 40.0 / 256, 2.0
        g = bohm.gaussian_state(n, dx, sigma=2.0, center=(-4.0, 0.0), k=(k, 0.0))
        dt, steps = 1e-3, 2000
        out = bohm.evolve(g, None, dt, steps)

        def centroid(grid):
            x = grid.axis()
            X, _ = np.meshgrid(x, x, indexing="ij")
            rho = np.abs(grid.psi) ** 2
            return float((X * rho).sum() / rho.sum())

        speed = (centroid(out) - centroid(g)) / (dt * steps)
        assert speed == pytest.approx(k, rel=0.01)

    def test_dt_bound_enforced(self):
        g, v = harmonic_ground_state()
        with pytest.raises(ValueError, match="split-step error bound"):
            bohm.evolve(g, v, 1e-2, 1)

    def test_rejects_nonfinite_potential(self):
        g = bohm.gaussian_state(64, 0.2, sigma=1.0)
        v = np.zeros((64, 64))
        v[0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            bohm.evolve(g, v, 1e-4, 1)


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
        assert float(np.sum(f.R**2) * g.dx**2) == pytest.approx(g.norm(), rel=1e-12)

    def test_reconstruct(self):
        g = bohm.gaussian_state(128, 0.2, sigma=1.0, k=(0.7, -0.4))
        f = bohm.decompose(g)
        back = f.R * np.exp(1j * f.S)
        assert np.max(np.abs(back - g.psi)) <= 1e-12 * np.max(np.abs(g.psi))

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
        mid = bohm.evolve(g, None, dt, 400)
        before = bohm.evolve(g, None, dt, 399)
        after = bohm.evolve(g, None, dt, 401)
        assert bohm.continuity_residual(before, mid, after, dt) <= 1e-3


class TestRingModel:
    def test_electron_radius(self):
        m = bohm.ring_model(1, ELECTRON.mass)
        assert m.radius == pytest.approx(1.930796338621417e-11, rel=1e-12)
        assert m.energy == pytest.approx(ELECTRON.mass * CGS.c**2, rel=1e-15)

    def test_radius_linear_in_winding(self):
        m1 = bohm.ring_model(1, ELECTRON.mass)
        m2 = bohm.ring_model(2, ELECTRON.mass)
        assert m2.radius == pytest.approx(2 * m1.radius, rel=1e-15)

    def test_quadrature_identities(self):
        model = bohm.ring_model(3, 2.5e-25)
        checks = bohm.ring_quadrature_checks(model)
        assert abs(checks["energy_over_mc2"] - 1.0) <= 1e-10
        assert abs(checks["action_over_nh_half"] - 1.0) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError, match="winding"):
            bohm.ring_model(0, 1e-27)
        with pytest.raises(ValueError, match="mass"):
            bohm.ring_model(1, 0.0)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = bohm.gaussian_state(64, 0.2, sigma=1.0)
        f = bohm.decompose(g)
        path = tmp_path / "field.grid"
        bohm.save_field(path, f.R, g.dx, label="R")
        arr, dx = bohm.load_field(path)
        assert dx == g.dx
        assert np.array_equal(arr, f.R)
        sidecar = (tmp_path / "field.grid.txt").read_text(encoding="utf-8")
        assert "n = 64" in sidecar

    def test_header_is_16_bytes(self, tmp_path):
        g = bohm.gaussian_state(64, 0.2, sigma=1.0)
        path = tmp_path / "f.grid"
        bohm.save_field(path, np.abs(g.psi), g.dx)
        assert path.stat().st_size == 16 + 64 * 64 * 8

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.grid"
        bohm.save_field(path, np.ones((64, 64)), 0.1)
        payload = path.read_bytes()[:-8]
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="payload"):
            bohm.load_field(path)
