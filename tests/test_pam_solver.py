import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torpam import pam_solver as ps
from torpam.covariance import NoiseSpec
from torpam.errors import AliasingError, DomainError, NumericsError
from torpam.heat_kernel import TWO_PI, heat_kernel
from torpam.noise_field import (IncrementSampler, grid_points, grid_to_modes,
                                modes_to_grid, step_rng)

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

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_uniform_refuses_non_finite_mass(self, mass):
        with pytest.raises(DomainError, match="finite"):
            ps.InitialMeasure.uniform(mass)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_density_refuses_non_finite_values(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ps.InitialMeasure.from_density([1.0, bad, 1.0])

    @pytest.mark.parametrize("atom", [([0.1], math.nan), ([0.1], math.inf),
                                      ([math.nan], 1.0), ([0.1, math.inf], 1.0)])
    def test_atoms_refuse_non_finite_mass_or_position(self, atom):
        with pytest.raises(DomainError, match="finite"):
            ps.InitialMeasure.point_atoms([([0.0], 1.0), atom])

    def test_delta_is_one_unit_atom(self):
        mu = ps.InitialMeasure.delta([0.3], 0.05)
        assert mu == ps.InitialMeasure(variant="atoms", atoms=(((0.3,), 1.0),),
                                       t0=0.05)
        assert mu.total_mass(1) == 1.0

    @pytest.mark.parametrize("n", [16, 33, 64])
    def test_density_read_out_exact_at_nodes(self, rng, n):
        dens = rng.uniform(0.1, 2.0, n)
        mu = ps.InitialMeasure.from_density(dens)
        assert np.array_equal(mu.density_at(grid_points(n, 1)[:, 0]), dens)
        half = mu.density_at(grid_points(n, 1)[:, 0] + PI / n)
        assert np.allclose(half, 0.5 * (dens + np.roll(dens, -1)), rtol=1e-14)

    def test_density_read_out_refusals(self):
        assert ps.InitialMeasure.uniform(2.0).density_at(0.3) == 2.0 / TWO_PI
        for mu in (ps.InitialMeasure.delta([0.0], 0.01),
                   ps.InitialMeasure.from_density(np.ones((4, 4)))):
            with pytest.raises(DomainError, match="no bounded d = 1 density"):
                mu.density_at(0.3)

    def test_value_equality_and_hash(self):
        a = ps.InitialMeasure.from_density(np.ones(4))
        b = ps.InitialMeasure.from_density(np.ones(4))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != ps.InitialMeasure.from_density([1.0, 1.0, 1.0, 2.0])
        assert a != ps.InitialMeasure.from_density(np.ones((2, 2)))
        assert a != ps.InitialMeasure.uniform()
        atoms = [([0.1], 0.5), ([1.0], 1.5)]
        assert (ps.InitialMeasure.point_atoms(atoms)
                == ps.InitialMeasure.point_atoms(atoms))


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

    def test_rejects_more_than_one_time(self):
        with pytest.raises(DomainError, match="j0 takes one time"):
            ps.j0(np.array([0.5, 1.0]), [0.1], ps.InitialMeasure.uniform())

    @pytest.mark.parametrize("mu", [
        ps.InitialMeasure.uniform(2.0),
        ps.InitialMeasure.point_atoms([([0.2], 0.5), ([-1.0], 2.0)]),
        ps.InitialMeasure.from_density(np.linspace(0.5, 1.5, 16))])
    def test_one_value_per_point(self, mu):
        pts = [[0.1], [0.2], [-2.5]]
        vals = ps.j0(1.0, pts, mu)
        assert np.shape(vals) == (3,)
        assert vals.tolist() == [ps.j0(1.0, p, mu) for p in pts]


class TestInitialField:
    cfg = ps.SolverConfig(spec=NoiseSpec(d=2, alpha=0.8, rho=1.0, lam=1.0),
                          grid_n=16, mode_k=5, dt=0.01, t_final=0.1)

    @pytest.mark.parametrize("t0", [0.0, 0.05])
    def test_atoms_start_from_j0(self, t0):
        mu = ps.InitialMeasure(variant="atoms", t0=t0,
                               atoms=(((0.3, -1.0), 0.5), ((2.0, 0.1), 1.5)))
        u0, t_start = ps.initial_field(self.cfg, mu)
        assert t_start == (t0 or self.cfg.dt)
        expected = ps.j0(t_start, grid_points(16, 2), mu).reshape(16, 16)
        assert u0.shape == (16, 16)
        assert np.array_equal(u0, expected)

    def test_no_atoms_start_from_zero(self):
        u0, t_start = ps.initial_field(self.cfg, ps.InitialMeasure.point_atoms([]))
        assert t_start == self.cfg.dt
        assert u0.shape == (16, 16)
        assert not u0.any()


class TestConfig:
    def test_dealias_grid_requirement(self):
        with pytest.raises(AliasingError):
            ps.SolverConfig(spec=heat_spec(), grid_n=48, mode_k=16, dt=0.01,
                            t_final=0.1)
        cfg = ps.SolverConfig(spec=heat_spec(), grid_n=49, mode_k=16, dt=0.01,
                              t_final=0.1)
        assert cfg.n_steps == 10

    def test_horizon_not_whole_steps_refused(self):
        with pytest.raises(DomainError, match=r"t_final = 0\.3 .*dt = "
                           r"0\.00390625; 77 steps reach 0\.30078125"):
            ps.SolverConfig(spec=heat_spec(), grid_n=49, mode_k=16,
                            dt=1 / 256, t_final=0.3)

    @pytest.mark.parametrize("t_final,dt,name", [
        (math.nan, 0.01, "t_final"), (math.inf, 0.01, "t_final"),
        (0.1, math.nan, "dt")])
    def test_non_finite_horizon_or_step_refused(self, t_final, dt, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            ps.SolverConfig(spec=heat_spec(), grid_n=49, mode_k=16, dt=dt,
                            t_final=t_final)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_non_positive_step_refused_before_dividing(self, dt):
        with pytest.raises(DomainError, match=r"^dt_bm = .* must be positive"):
            ps.whole_steps(1.0, dt, "horizon t", "dt_bm")

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
    # times on the steps of each march: 0.02 k, and 0.05 + 0.02 k for delta
    @pytest.mark.parametrize("output_times", [
        None, {"uniform": [0.1, 0.3], "delta": [0.09, 0.29]}])
    def test_solve_is_one_path_ensemble(self, d, variant, output_times):
        spec = NoiseSpec(d=d, alpha=0.3 if d == 1 else 0.8, rho=1.0, lam=1.0)
        n, k = (32, 8) if d == 1 else (16, 5)
        cfg = ps.SolverConfig(spec=spec, grid_n=n, mode_k=k, dt=0.02,
                              t_final=0.4)
        mu = (ps.InitialMeasure.uniform(1.0) if variant == "uniform"
              else ps.InitialMeasure.delta([0.3] * d, 0.05))
        output_times = output_times and output_times[variant]
        traj = ps.solve(cfg, mu, seed=5, output_times=output_times)
        times, fields = ps.solve_ensemble(cfg, mu, seed=5, n_paths=1,
                                          output_times=output_times)
        assert np.array_equal(traj.times, times)
        assert traj.fields.shape == fields[:, 0].shape
        assert traj.fields.tobytes() == fields[:, 0].tobytes()


class TestPathPrefix:
    @given(d=st.sampled_from([1, 2]), mode_k=st.integers(1, 4),
           extra=st.integers(0, 3), variant=st.sampled_from(["uniform", "delta"]),
           m=st.integers(1, 3), more=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_first_paths_equal_smaller_run(self, d, mode_k, extra, variant,
                                           m, more, seed):
        spec = NoiseSpec(d=d, alpha=0.3 if d == 1 else 0.8, rho=1.0, lam=1.0)
        cfg = ps.SolverConfig(spec=spec, grid_n=3 * mode_k + 1 + extra,
                              mode_k=mode_k, dt=0.02, t_final=0.1)
        mu = (ps.InitialMeasure.uniform(1.0) if variant == "uniform"
              else ps.InitialMeasure.delta([0.3] * d, 0.05))
        _, small = ps.solve_ensemble(cfg, mu, seed, m, None)
        _, large = ps.solve_ensemble(cfg, mu, seed, m + more, None)
        assert large[:, :m].tobytes() == small.tobytes()


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


class TestOutputTimes:
    cfg = ps.SolverConfig(spec=NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1.0),
                          grid_n=16, mode_k=5, dt=0.01, t_final=0.1)

    @pytest.mark.parametrize("t_out", [5.0, 0.1051, -0.0051])
    def test_time_outside_the_march_is_refused(self, t_out):
        with pytest.raises(DomainError, match="outside the march"):
            ps.solve(self.cfg, ps.InitialMeasure.uniform(1.0), seed=0,
                     output_times=[t_out])

    def test_delta_march_starts_at_smoothing_time(self):
        mu = ps.InitialMeasure.delta([0.0], 0.05)
        with pytest.raises(DomainError, match=r"\[0.05, 0.15\]"):
            ps.solve_ensemble(self.cfg, mu, seed=0, n_paths=2,
                              output_times=[0.0])

    @pytest.mark.parametrize("t_out, start", [(-0.0049, 0.0), (0.1049, 0.0),
                                              (0.0749, 0.05)])
    def test_within_half_a_step_is_refused(self, t_out, start):
        mu = (ps.InitialMeasure.delta([0.0], start) if start
              else ps.InitialMeasure.uniform(1.0))
        with pytest.raises(DomainError, match=(
                f"output time {t_out:g} less the march start {start:g} = .* "
                "is not a whole number of steps dt = 0.01")):
            ps.solve(self.cfg, mu, seed=0, output_times=[t_out])

    def test_time_on_a_step_is_read_there(self):
        mu = ps.InitialMeasure.delta([0.0], 0.05)
        traj = ps.solve(self.cfg, mu, seed=0, output_times=[0.05, 0.08, 0.15])
        assert traj.times.tolist() == [0.05, 0.05 + 3 * 0.01, 0.05 + 10 * 0.01]


def _reference_march(cfg, mu, seed, n_paths):
    """The exponential-Euler step written out plainly, one draw per step:
    the field at t_final."""
    d, kmax, n = cfg.spec.d, cfg.mode_k, cfg.grid_n
    u0, _ = ps.initial_field(cfg, mu)
    u = np.broadcast_to(u0, (n_paths,) + u0.shape).copy()
    heat = ps._heat_factor(cfg)
    sampler = IncrementSampler(cfg.spec, kmax, n, cfg.dt)
    for nstep in range(cfg.n_steps):
        modes = sampler.sample_modes(step_rng(seed, nstep), n_batch=n_paths)
        dw = modes_to_grid(modes, kmax, n, d)
        prod = grid_to_modes(u * dw, kmax, n, d)
        u_modes = grid_to_modes(u, kmax, n, d)
        u = modes_to_grid(heat * (u_modes + cfg.spec.lam * prod), kmax, n, d)
    return u


class TestPrefetch:
    """Batches of at least ps._PREFETCH_MIN grid values draw the next step's
    noise on a worker thread; the host is taken to have two CPUs so the
    worker runs wherever the tests do."""

    cfg = ps.SolverConfig(spec=NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1.0),
                          grid_n=64, mode_k=16, dt=0.01, t_final=0.1)
    n_paths = 1100  # x 64 grid points >= 2**16

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(ps, "_cpu_count", lambda: 2)

    @pytest.mark.parametrize("d, n_paths, grid_n, mode_k",
                             [(1, 1100, 64, 16), (2, 300, 16, 5)])
    def test_fields_equal_serial_path(self, monkeypatch, d, n_paths, grid_n,
                                      mode_k):
        spec = NoiseSpec(d=d, alpha=0.3 if d == 1 else 0.8, rho=1.0, lam=1.0)
        cfg = ps.SolverConfig(spec=spec, grid_n=grid_n, mode_k=mode_k,
                              dt=0.01, t_final=0.05)
        mu = ps.InitialMeasure.delta([0.3] * d, 0.05)
        prefetches = []
        prefetch = ps._prefetch
        monkeypatch.setattr(ps, "_prefetch",
                            lambda items: prefetches.append(1) or prefetch(items))
        runs = []
        for least in (ps._PREFETCH_MIN, n_paths * grid_n**d + 1):
            monkeypatch.setattr(ps, "_PREFETCH_MIN", least)
            times, fields = ps.solve_ensemble(cfg, mu, 7, n_paths, [0.1])
            runs.append((times.tobytes(), fields[-1].tobytes()))
        assert prefetches == [1]
        assert runs[0] == runs[1]
        assert runs[0][1] == _reference_march(cfg, mu, 7, n_paths).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_error_mid_march_ends_the_worker(self):
        cfg = ps.SolverConfig(spec=NoiseSpec(d=1, alpha=0.3, rho=1.0,
                                             lam=1e200),
                              grid_n=64, mode_k=16, dt=0.01, t_final=0.1)
        start = threading.active_count()
        march = ps._march(cfg, ps.InitialMeasure.uniform(1.0), 0,
                          self.n_paths, None)
        next(march), next(march)
        assert threading.active_count() == start + 1
        with pytest.raises(NumericsError, match="step 2 of 10"):
            next(march)
        assert threading.active_count() == start

    def test_closing_the_march_ends_the_worker(self):
        start = threading.active_count()
        march = ps._march(self.cfg, ps.InitialMeasure.uniform(1.0), 0,
                          self.n_paths, None)
        for _ in range(3):
            next(march)
        assert threading.active_count() == start + 1
        march.close()
        assert threading.active_count() == start

    def test_noise_error_reraises_in_the_caller(self, monkeypatch):
        step_rng = ps.step_rng

        def failing(seed, step, stream=0):
            if step == 3:
                raise RuntimeError("draw failed at step 3")
            return step_rng(seed, step, stream=stream)

        monkeypatch.setattr(ps, "step_rng", failing)
        start = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed at step 3"):
            ps.solve_ensemble(self.cfg, ps.InitialMeasure.uniform(1.0), 0,
                              self.n_paths, None)
        assert threading.active_count() == start
