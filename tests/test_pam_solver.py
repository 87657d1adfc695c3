import math

import numpy as np
import pytest

from torpam import pam_solver as ps
from torpam.covariance import NoiseSpec
from torpam.errors import AliasingError, DomainError, NumericsError
from torpam.heat_kernel import TWO_PI, heat_kernel
from torpam.noise_field import grid_points

PI = math.pi


def heat_spec(lam=0.0):
    return NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=lam)


class TestInitialMeasure:
    def test_total_mass(self):
        assert ps.InitialMeasure.uniform(2.0).total_mass(1) == 2.0
        atoms = ps.InitialMeasure.point_atoms([([0.1], 0.5), ([1.0], 1.5)])
        assert atoms.total_mass(1) == 2.0
        dens = ps.InitialMeasure.from_density(np.full(16, TWO_PI ** -1))
        assert dens.total_mass(1) == pytest.approx(1.0)

    def test_nonnegativity_guards(self):
        with pytest.raises(DomainError):
            ps.InitialMeasure.from_density(np.array([1.0, -0.1]))
        with pytest.raises(DomainError):
            ps.InitialMeasure.point_atoms([([0.0], -1.0)])
        with pytest.raises(DomainError):
            ps.InitialMeasure.delta([0.0], 0.0)


class TestJ0:
    def test_uniform_stationary(self):
        mu = ps.InitialMeasure.uniform(1.0)
        for t in (0.1, 1.0, 10.0):
            assert ps.j0(t, [0.7], mu) == pytest.approx(TWO_PI ** -1)

    def test_delta_is_kernel(self):
        mu = ps.InitialMeasure.delta([0.0], 0.01)
        assert float(ps.j0(0.4, [1.1], mu)) == pytest.approx(
            float(heat_kernel(0.4, [1.1])), rel=1e-14)

    def test_atom_superposition(self):
        mu = ps.InitialMeasure.point_atoms([([0.2], 0.5), ([-1.0], 2.0)])
        expected = (0.5 * float(heat_kernel(0.3, [0.9 - 0.2]))
                    + 2.0 * float(heat_kernel(0.3, [0.9 + 1.0])))
        assert float(ps.j0(0.3, [0.9], mu)) == pytest.approx(expected, rel=1e-12)

    def test_mass_conservation_density(self):
        xs = grid_points(64, 1)[:, 0]
        mu = ps.InitialMeasure.from_density(1.0 + 0.5 * np.cos(xs))
        vals = np.array([ps.j0(0.5, [x], mu) for x in xs])
        assert np.sum(vals) * TWO_PI / 64 == pytest.approx(mu.total_mass(1), abs=1e-8)

    def test_rejects_t_zero(self):
        with pytest.raises(DomainError):
            ps.j0(0.0, [0.1], ps.InitialMeasure.uniform())


class TestConfig:
    def test_dealias_grid_requirement(self):
        with pytest.raises(AliasingError):
            ps.SolverConfig(spec=heat_spec(), grid_n=33, mode_k=16, dt=0.01,
                            t_final=0.1, dealias=True)
        cfg = ps.SolverConfig(spec=heat_spec(), grid_n=33, mode_k=16, dt=0.01,
                              t_final=0.1, dealias=False)
        assert cfg.n_steps == 10

    def test_dalang_refusal(self):
        bad = NoiseSpec(d=3, alpha=0.5, rho=1.0, lam=1.0)
        with pytest.raises(DomainError):
            # d = 3 rejected outright by the solver surface
            ps.SolverConfig(spec=bad, grid_n=16, mode_k=4, dt=0.01, t_final=0.1)


class TestHeatFlowReduction:
    def test_spectral_accuracy(self):
        cfg = ps.SolverConfig(spec=heat_spec(0.0), grid_n=64, mode_k=16,
                              dt=0.01, t_final=0.5)
        xs = grid_points(64, 1)[:, 0]
        mu = ps.InitialMeasure.from_density(
            1.0 + 0.5 * np.cos(xs) + 0.2 * np.sin(3 * xs))
        traj = ps.solve(cfg, mu, seed=1, output_times=[0.5])
        exact = (1.0 + 0.5 * math.exp(-0.25) * np.cos(xs)
                 + 0.2 * math.exp(-4.5 * 0.5) * np.sin(3 * xs))
        assert np.max(np.abs(traj.fields[-1] - exact)) < 1e-12

    def test_single_mode_decay(self):
        cfg = ps.SolverConfig(spec=heat_spec(0.0), grid_n=64, mode_k=16,
                              dt=0.02, t_final=0.02)
        xs = grid_points(64, 1)[:, 0]
        mu = ps.InitialMeasure.from_density(1.0 + np.cos(xs))
        traj = ps.solve(cfg, mu, seed=0, output_times=[0.02])
        coef = np.fft.fft(traj.fields[-1])
        c1 = 2 * np.real(np.exp(1j * PI) * coef[1]) / 64
        assert c1 == pytest.approx(math.exp(-0.01), rel=1e-12)

    def test_uniform_constant_trajectory(self):
        cfg = ps.SolverConfig(spec=heat_spec(0.0), grid_n=32, mode_k=8,
                              dt=0.01, t_final=0.2)
        traj = ps.solve(cfg, ps.InitialMeasure.uniform(1.0), seed=0)
        assert np.max(np.abs(traj.fields - TWO_PI ** -1)) < 1e-14


class TestStochasticProperties:
    def test_determinism(self):
        cfg = ps.SolverConfig(spec=heat_spec(1.0), grid_n=32, mode_k=8,
                              dt=0.01, t_final=0.2)
        mu = ps.InitialMeasure.uniform(1.0)
        a = ps.solve(cfg, mu, seed=9)
        b = ps.solve(cfg, mu, seed=9)
        assert np.array_equal(a.fields, b.fields)

    def test_realness(self):
        cfg = ps.SolverConfig(spec=heat_spec(1.0), grid_n=32, mode_k=8,
                              dt=0.01, t_final=0.3)
        traj = ps.solve(cfg, ps.InitialMeasure.uniform(1.0), seed=4)
        assert np.isrealobj(traj.fields)

    def test_mean_follows_heat_semigroup(self):
        # Ito term has zero mean, so E[u(t)] solves the heat equation
        spec = heat_spec(1.0)
        cfg = ps.SolverConfig(spec=spec, grid_n=48, mode_k=12, dt=0.01,
                              t_final=0.25)
        xs = grid_points(48, 1)[:, 0]
        mu = ps.InitialMeasure.from_density(1.0 + 0.8 * np.cos(xs))
        times, fields = ps.solve_ensemble(cfg, mu, seed=2, n_paths=4000,
                                          output_times=[0.25])
        mean_field = fields[-1].mean(axis=0)
        se = fields[-1].std(axis=0, ddof=1) / math.sqrt(fields.shape[1])
        exact = 1.0 + 0.8 * math.exp(-0.125) * np.cos(xs)
        assert np.all(np.abs(mean_field - exact) <= 3.5 * se + 1e-12)

    def test_constant_noise_second_moment(self):
        # k = 0 modes only: u is a discrete geometric martingale with
        # E[u^2] = J0^2 (1 + lam^2 rho (2 pi)^{-1} dt)^n
        spec = NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1.0)
        dt, t_final = 1 / 200, 1.0
        cfg = ps.SolverConfig(spec=spec, grid_n=8, mode_k=0, dt=dt,
                              t_final=t_final)
        times, fields = ps.solve_ensemble(cfg, ps.InitialMeasure.uniform(1.0),
                                          seed=11, n_paths=20000,
                                          output_times=[1.0])
        vals = fields[-1][:, 0] ** 2
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        target = math.exp(1.0 / TWO_PI) * TWO_PI ** -2
        assert abs(est - target) <= 3 * se

    def test_self_convergence_grid(self):
        spec = heat_spec(1.0)
        xs32 = grid_points(32, 1)[:, 0]
        mu = ps.InitialMeasure.uniform(1.0)
        out = {}
        for n in (32, 64):
            cfg = ps.SolverConfig(spec=spec, grid_n=n, mode_k=8, dt=0.01,
                                  t_final=0.5)
            traj = ps.solve(cfg, mu, seed=7, output_times=[0.5])
            out[n] = traj.fields[-1]
        coarse = out[32]
        fine = out[64][::2]
        l2 = np.sqrt(np.mean((coarse - fine) ** 2))
        ref = np.sqrt(np.mean(fine**2))
        assert l2 / ref < 0.01

    def test_delta_initial_data(self):
        spec = heat_spec(0.0)
        cfg = ps.SolverConfig(spec=spec, grid_n=64, mode_k=16, dt=0.01,
                              t_final=0.3)
        mu = ps.InitialMeasure.delta([0.5], 0.05)
        traj = ps.solve(cfg, mu, seed=0, output_times=[0.05, 0.35])
        xs = grid_points(64, 1)[:, 0]
        # clock starts at t0 = 0.05; after 0.3 more the field is G(0.35, .)
        exact = heat_kernel(0.35, (xs - 0.5)[:, None])
        assert np.max(np.abs(traj.fields[-1] - exact)) < 1e-10


class TestSingleEqualsEnsemble:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("variant", ["uniform", "delta"])
    @pytest.mark.parametrize("output_times", [None, [0.1, 0.3]])
    def test_solve_is_one_path_ensemble(self, d, variant, output_times):
        spec = NoiseSpec(d=d, alpha=0.3 if d == 1 else 0.8, rho=1.0, lam=1.0)
        n, k = (32, 8) if d == 1 else (16, 5)
        cfg = ps.SolverConfig(spec=spec, grid_n=n, mode_k=k, dt=0.02,
                              t_final=0.4)
        mu = (ps.InitialMeasure.uniform(1.0) if variant == "uniform"
              else ps.InitialMeasure.delta([0.3] * d, 0.05))
        traj = ps.solve(cfg, mu, seed=5, output_times=output_times)
        times, fields = ps.solve_ensemble(cfg, mu, seed=5, n_paths=1,
                                          output_times=output_times)
        assert np.array_equal(traj.times, times)
        assert traj.fields.shape == fields[:, 0].shape
        assert traj.fields.tobytes() == fields[:, 0].tobytes()


class TestNonFiniteGuard:
    # lambda = 1e200 overflows the noise term on the second step
    cfg = ps.SolverConfig(spec=NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1e200),
                          grid_n=16, mode_k=5, dt=0.01, t_final=0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solve_raises_with_step(self):
        with pytest.raises(NumericsError, match="step 2 of 10"):
            ps.solve(self.cfg, ps.InitialMeasure.uniform(1.0), seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solve_ensemble_raises_with_step(self):
        with pytest.raises(NumericsError, match="step 2 of 10"):
            ps.solve_ensemble(self.cfg, ps.InitialMeasure.uniform(1.0),
                              seed=0, n_paths=3, output_times=[0.1])
