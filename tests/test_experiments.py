import math

import numpy as np
import pytest

from torpam import experiments as ex
from torpam.covariance import NoiseSpec
from torpam.errors import DomainError
from torpam.heat_kernel import TWO_PI
from torpam.pam_solver import InitialMeasure, SolverConfig, j0


def solver_config(spec, **kw):
    defaults = dict(grid_n=64, mode_k=16, dt=1 / 256, t_final=0.5)
    defaults.update(kw)
    return SolverConfig(spec=spec, **defaults)


class TestJackknife:
    def test_matches_classic_se_for_mean(self, rng):
        x = rng.normal(size=400)
        classic = np.std(x, ddof=1) / math.sqrt(len(x))
        assert ex.jackknife_se(x) == pytest.approx(classic, rel=1e-10)

    def test_needs_two(self):
        with pytest.raises(DomainError):
            ex.jackknife_se([1.0])


class TestMcMoments:
    def test_constant_noise_oracle(self, spec_d1):
        cfg = solver_config(spec_d1, grid_n=8, mode_k=0, dt=1 / 200,
                            t_final=1.0)
        mu = InitialMeasure.uniform(1.0)
        ests = ex.mc_moments(cfg, mu, 2, 10_000, [0.5, 1.0], [[0.0]], seed=3)
        for est in ests:
            target = math.exp(est.t / TWO_PI) * TWO_PI ** -2
            assert est.within(target, 3.0)

    def test_small_coupling_returns_j0_sq(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1e-5)
        cfg = solver_config(spec, t_final=0.25)
        mu = InitialMeasure.uniform(1.0)
        est = ex.mc_moments(cfg, mu, 2, 200, [0.25], [[0.0]], seed=1)[0]
        assert est.value == pytest.approx(TWO_PI ** -2, rel=1e-6)

    def test_chunking_is_scheduling_invariant(self, spec_d1):
        cfg = solver_config(spec_d1, grid_n=16, mode_k=4, dt=0.02,
                            t_final=0.1)
        mu = InitialMeasure.uniform(1.0)
        a = ex.mc_moments(cfg, mu, 2, 64, [0.1], [[0.0]], seed=1,
                          n_chunks=8, threads=1)[0]
        b = ex.mc_moments(cfg, mu, 2, 64, [0.1], [[0.0]], seed=1,
                          n_chunks=8, threads=4)[0]
        assert a.value == b.value

    def test_bound_report(self, spec_d1):
        cfg = solver_config(spec_d1, t_final=0.5)
        mu = InitialMeasure.uniform(1.0)
        rows = ex.moment_bound_report(cfg, mu, 400, [0.5], [0.0], seed=2)
        assert rows[0]["upper_ok"]


class TestResolvent:
    def test_l0_identity(self, spec_d1):
        tg = np.linspace(0, 1.0, 11)
        tab = ex.resolvent_Ln(spec_d1, 0, tg, a_grid_n=5, q_grid_n=17)
        g = ex._kernel_matrix(tg[5], tab.a_grid, tab.q_grid)
        expected = np.einsum("aq,br->aqbr", g, g)
        assert np.max(np.abs(tab.values[0][4] - expected)) < 1e-14

    def test_l1_constant_covariance(self, spec_d1):
        c_f = 0.7
        tg = np.linspace(0, 1.0, 21)
        tab = ex.resolvent_Ln(
            spec_d1, 1, tg, a_grid_n=5, q_grid_n=33,
            f_override=lambda d: np.full_like(np.asarray(d, float), c_f))
        for i in (10, 20):
            g = ex._kernel_matrix(tg[i], tab.a_grid, tab.q_grid)
            target = np.einsum("aq,br->aqbr", g, g) * c_f * tg[i]
            rel = np.max(np.abs(tab.values[1][i - 1] - target)
                         / np.maximum(np.abs(target), 1e-12))
            assert rel < 0.01

    def test_bound_fit_stable_under_refinement(self, spec_d1):
        cap = TWO_PI / 33
        coarse = ex.resolvent_Ln(spec_d1, 2, np.linspace(0, 1, 21),
                                 a_grid_n=7, q_grid_n=33, cap_dist=cap)
        fine = ex.resolvent_Ln(spec_d1, 2, np.linspace(0, 1, 41),
                               a_grid_n=7, q_grid_n=65, cap_dist=cap)
        fits_c = ex.resolvent_bound_fit(coarse)
        fits_f = ex.resolvent_bound_fit(fine)
        for n in fits_c:
            assert np.isfinite(fits_c[n])
            assert abs(fits_f[n] - fits_c[n]) <= 0.2 * fits_c[n]

    def test_cost_refusal(self, spec_d1):
        with pytest.raises(DomainError):
            ex.resolvent_Ln(spec_d1, 4, np.linspace(0, 1, 11))
        with pytest.raises(DomainError):
            ex.resolvent_Ln(NoiseSpec(d=2, alpha=0.8, rho=1.0), 1,
                            np.linspace(0, 1, 11))


class TestTwoPoint:
    def test_zero_coupling_reduces_to_j0(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1e-9)
        mu = InitialMeasure.uniform(1.0)
        rep = ex.two_point(spec, mu, 1.0, [0.5], [-0.7], n_max=2)
        target = float(j0(1.0, [0.5], mu)) * float(j0(1.0, [-0.7], mu))
        assert rep["value"] == pytest.approx(target, rel=1e-10)

    def test_symmetry(self, spec_d1):
        mu = InitialMeasure.uniform(1.0)
        a = ex.two_point(spec_d1, mu, 0.5, [0.4], [-1.0], n_max=2)
        b = ex.two_point(spec_d1, mu, 0.5, [-1.0], [0.4], n_max=2)
        assert a["value"] == pytest.approx(b["value"], rel=1e-12)

    def test_constant_noise_closed_form(self, spec_d1):
        mu = InitialMeasure.uniform(1.0)
        rep = ex.two_point(spec_d1, mu, 1.0, [0.0], [0.0], n_max=3, kmax=0)
        closed = math.exp(1.0 / TWO_PI) * TWO_PI ** -2
        assert rep["value"] == pytest.approx(closed, rel=5 * rep["truncation_ratio"])
        assert not rep["truncation_warning"]

    def test_truncation_ratio_decreases(self, spec_d1):
        mu = InitialMeasure.uniform(1.0)
        r2 = ex.two_point(spec_d1, mu, 0.5, [0.0], [0.0], n_max=2)
        r3 = ex.two_point(spec_d1, mu, 0.5, [0.0], [0.0], n_max=3)
        assert r3["truncation_ratio"] < r2["truncation_ratio"]

    def test_measure_guard(self, spec_d1):
        with pytest.raises(DomainError):
            ex.two_point(spec_d1, InitialMeasure.delta([0.0], 0.01),
                         0.5, [0.0], [0.0])


class TestFeynmanKac:
    def test_constant_noise_deterministic(self, spec_d1):
        mu = InitialMeasure.uniform(1.0)
        est = ex.feynman_kac_second_moment(spec_d1, mu, 1.0, [0.0], 500,
                                           1 / 128, seed=3, kmax=0)
        target = math.exp(1.0 / TWO_PI) * TWO_PI ** -2
        assert est.std_err < 1e-12
        assert est.value == pytest.approx(target, rel=1e-12)

    def test_jensen_floor(self, spec_d1):
        mu = InitialMeasure.uniform(1.0)
        est = ex.feynman_kac_second_moment(spec_d1, mu, 0.5, [0.0], 4000,
                                           1 / 128, seed=4, kmax=16)
        floor = ex.fk_jensen_floor(spec_d1, 0.5, kmax=16) * TWO_PI ** -2
        assert est.value + 3 * est.std_err >= floor

    def test_agrees_with_solver_mc(self, spec_d1):
        mu = InitialMeasure.uniform(1.0)
        fk = ex.feynman_kac_second_moment(spec_d1, mu, 0.5, [0.0], 10_000,
                                          1 / 256, seed=5, kmax=16)
        cfg = solver_config(spec_d1, t_final=0.5)
        mc_est = ex.mc_moments(cfg, mu, 2, 10_000, [0.5], [[0.0]], seed=6)[0]
        gap = abs(fk.value - mc_est.value)
        assert gap <= 3.0 * math.hypot(fk.std_err, mc_est.std_err) + 0.01 * mc_est.value

    def test_measure_guard(self, spec_d1):
        with pytest.raises(DomainError):
            ex.feynman_kac_second_moment(
                spec_d1, InitialMeasure.point_atoms([([0.0], 1.0)]),
                0.5, [0.0], 100, 0.01)


class TestErgodic:
    def test_rho_limit(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        rep = ex.ergodic_average_check(spec, [50.0, 200.0], 200,
                                       dt_bm=0.01, seed=6)
        assert rep["limit"] == pytest.approx(1.0 / math.pi)
        assert rep["pass"]

    def test_rho_zero_vanishes(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=0.0, lam=1.0)
        rep = ex.ergodic_average_check(spec, [200.0], 200, dt_bm=0.01, seed=7)
        assert abs(rep["rows"][-1]["mean"]) <= 3 * rep["rows"][-1]["std_err"]

    def test_variance_decreases(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1.0)
        rep = ex.ergodic_average_check(spec, [25.0, 100.0], 200,
                                       dt_bm=0.01, seed=8)
        assert rep["rows"][1]["variance"] < rep["rows"][0]["variance"]

    @pytest.mark.parametrize("t_list", [[0.004], [0.004, 1.0]])
    def test_horizon_below_half_step_refused(self, t_list):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        with pytest.raises(DomainError, match="shorter than half a step"):
            ex.ergodic_average_check(spec, t_list, 4, dt_bm=0.01)

    def test_horizons_on_one_step_refused(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        with pytest.raises(DomainError, match="round to the same step"):
            ex.ergodic_average_check(spec, [1.0, 1.001], 4, dt_bm=0.01)


class TestHolder:
    def test_smooth_field_saturates(self):
        # lam = 0 with non-uniform data: increments scale like the lag
        spec = NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=0.0)
        from torpam.noise_field import grid_points

        xs = grid_points(96, 1)[:, 0]
        mu = InitialMeasure.from_density(1.0 + 0.8 * np.cos(xs))
        cfg = SolverConfig(spec=spec, grid_n=96, mode_k=31, dt=2**-10,
                           t_final=1.0)
        rep = ex.empirical_holder(cfg, mu, seed=1, n_paths=2,
                                  t_window=(0.5, 1.0), save_every=4,
                                  space_lags=(1, 2, 4, 8))
        assert rep["beta1_hat"] >= 0.9
        assert rep["beta2_hat"] >= 0.9

    def test_lag_count_guard(self, spec_d1):
        cfg = solver_config(spec_d1)
        with pytest.raises(DomainError):
            ex.empirical_holder(cfg, InitialMeasure.uniform(1.0), seed=0,
                                time_lags=(1, 2, 4), space_lags=(1, 2, 4, 8))
