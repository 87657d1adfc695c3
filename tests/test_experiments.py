import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torpam import experiments as ex
from torpam import moment_calculus as mc
from torpam import pam_solver as ps
from torpam.covariance import NoiseSpec, covariance_truncated
from torpam.errors import DomainError
from torpam.heat_kernel import TWO_PI, signed_mod
from torpam.noise_field import grid_points, step_rng
from torpam.pam_solver import InitialMeasure, SolverConfig, j0, solve_ensemble


def solver_config(spec, **kw):
    defaults = dict(grid_n=64, mode_k=16, dt=1 / 256, t_final=0.5)
    defaults.update(kw)
    return SolverConfig(spec=spec, **defaults)


class TestJackknife:
    def test_matches_classic_se_for_mean(self, rng):
        x = rng.normal(size=400)
        classic = np.std(x, ddof=1) / math.sqrt(len(x))
        loo = (np.sum(x) - x) / (len(x) - 1)  # leave-one-out means
        jackknife = math.sqrt((len(x) - 1) / len(x)
                              * np.sum((loo - loo.mean()) ** 2))
        assert ex.jackknife_se(x) == pytest.approx(classic, rel=1e-10)
        assert ex.jackknife_se(x) == pytest.approx(jackknife, rel=1e-10)

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

    def test_reports_the_grid_point_read(self, spec_d1):
        # grid_n = 11: the grid is -pi + 2 pi j / 11, which misses 0.0; the
        # grid point nearest to 0.1 is pi / 11
        cfg = solver_config(spec_d1, grid_n=11, mode_k=3, dt=0.05,
                            t_final=0.1)
        mu = InitialMeasure.uniform(1.0)
        est = ex.mc_moments(cfg, mu, 2, 8, [0.1], [[0.1]], seed=1)[0]
        assert est.x == (0.1,)
        assert est.x_grid == pytest.approx((TWO_PI / 22,), rel=1e-15)

    def test_one_chunk_is_the_direct_ensemble(self, spec_d1):
        cfg = solver_config(spec_d1, grid_n=16, mode_k=4, dt=0.02,
                            t_final=0.2)
        mu = InitialMeasure.uniform(1.0)
        ests = ex.mc_moments(cfg, mu, 2, 12, [0.1, 0.2], [[0.0]], seed=5,
                             n_chunks=1)
        times, fields = solve_ensemble(cfg, mu, 5, 12, [0.1, 0.2])
        xi = int(np.argmin(np.abs(grid_points(16, 1)[:, 0])))
        assert len(ests) == 2
        for est, t, u in zip(ests, times, fields):
            sq = u[:, xi] ** 2
            assert (est.t, est.value, est.std_err) == (
                t, np.mean(sq), ex.jackknife_se(sq))

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

    def test_bounds_read_at_the_grid_point(self, spec_d1):
        # 11 grid points: the estimate at x = 0.1 is read at pi / 11
        mu = InitialMeasure.delta([0.0], 0.01)
        x_grid = np.array([math.pi / 11])
        for spec in (spec_d1, NoiseSpec(d=1, alpha=0.3, rho=5.0, lam=1.0)):
            cfg = solver_config(spec, grid_n=11, mode_k=3, dt=0.01,
                                t_final=0.1)
            [row] = ex.moment_bound_report(cfg, mu, 8, [0.1], [0.1], seed=0,
                                           rho_suff=5.0)
            assert row["x_grid"] == pytest.approx(tuple(x_grid), rel=1e-15)
            t = row["t"]
            upper = mc.p_moment_upper(t, x_grid, 2.0, mu, spec) ** 2
            assert row["upper"] == upper
            assert upper < 0.9 * mc.p_moment_upper(t, [0.1], 2.0, mu, spec) ** 2
        assert row["lower"] == mc.lower_bound_second_moment(
            t, t, ex.covariance_infimum(spec), 1.0, 1.0, 1,
            j0_val=float(j0(t, x_grid, mu)))

    def test_no_lower_bound_below_zero_covariance(self, spec_d1):
        # alpha 0.3, rho 1: the covariance dips below zero (C_f ~ -0.039),
        # so rho >= rho_suff = 0.5 alone does not make the lower bound hold
        assert ex.covariance_infimum(spec_d1) < 0.0
        cfg = solver_config(spec_d1, grid_n=16, mode_k=4, dt=0.02,
                            t_final=0.1)
        rows = ex.moment_bound_report(cfg, InitialMeasure.uniform(1.0), 8,
                                      [0.04, 0.1], [0.0], rho_suff=0.5)
        assert len(rows) == 2
        for row in rows:
            assert "lower" not in row and "lower_ok" not in row
            assert row["upper_ok"]

    def test_covariance_infimum_is_d1_only(self):
        c_f = ex.covariance_infimum(NoiseSpec(d=1, alpha=0.3, rho=5.0),
                                    n_grid=64)
        assert math.isfinite(c_f)
        with pytest.raises(DomainError, match="d = 2"):
            ex.covariance_infimum(NoiseSpec(d=2, alpha=0.8, rho=5.0),
                                  n_grid=16)


class TestChunkColumns:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n_chunks, threads", [(1, 1), (1, 2), (4, 1),
                                                   (4, 2)])
    def test_equal_to_chunks_of_the_ensemble(self, spec_d1, p, n_chunks,
                                             threads):
        cfg = solver_config(spec_d1, grid_n=16, mode_k=4, dt=0.02,
                            t_final=0.2)
        mu = InitialMeasure.uniform(1.0)
        t_list, x_list = [0.2, 0.1], [[0.0], [1.0]]
        ests = ex.mc_moments(cfg, mu, p, 16, t_list, x_list, seed=5,
                             n_chunks=n_chunks, threads=threads)
        per = 16 // n_chunks
        stacks = [solve_ensemble(cfg, mu, 5, per, t_list, stream=c)[1]
                  for c in range(n_chunks)]
        fields = np.concatenate(stacks, axis=1)  # (time, path, x)
        xs = grid_points(16, 1)[:, 0]
        expected = []
        for ti, t in ((1, 0.2), (0, 0.1)):
            for x in x_list:
                xi = int(np.argmin(np.abs(signed_mod(xs - x[0]))))
                powers = np.abs(fields[ti, :, xi]) ** p
                expected.append((t, float(np.mean(powers)),
                                 ex.jackknife_se(powers)))
        assert [(e.t, e.value, e.std_err) for e in ests] == expected


class TestThreadCount:
    @given(p=st.sampled_from([1, 2, 3]), n_chunks=st.sampled_from([2, 3, 4]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_moments_independent_of_threads(self, p, n_chunks, seed):
        cfg = solver_config(NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1.0),
                            grid_n=16, mode_k=4, dt=0.02, t_final=0.1)
        mu = InitialMeasure.uniform(1.0)
        runs = [ex.mc_moments(cfg, mu, p, 6 * n_chunks, [0.1], [[0.0]],
                              seed=seed, n_chunks=n_chunks, threads=threads)[0]
                for threads in (1, 2, 3)]
        assert {(r.value, r.std_err) for r in runs} == \
            {(runs[0].value, runs[0].std_err)}


def _einsum_pairs(gz, inner):
    return np.einsum("xz,yw,azbw->axby", gz, gz, inner)


def _volterra_by_target(prev, weight, gq, dt, cell, propagate, end_lo):
    """The Volterra level with the target node t_i on the outside and a
    fresh accumulator per node: the reference for ex._volterra_level."""
    cur = np.zeros_like(prev)
    for i in range(1, len(prev) + 1):
        acc = np.zeros_like(prev[0])
        for jj in range(1, i):
            acc += propagate(gq[i - jj], prev[jj - 1] * weight)
        total = dt * acc * cell**2
        lo = 0.0 if end_lo is None else end_lo(i)
        total += 0.5 * dt * (lo + prev[i - 1] * weight)
        cur[i - 1] = total
    return cur


class TestResolvent:
    # positive entries, as the kernel and covariance tables have: no
    # cancellation, so the matmul and einsum sums of 33 x 33 products agree
    # to a few ulp entrywise
    REL = 1e-13

    def test_propagation_matches_einsum(self):
        rng = np.random.default_rng(27)
        gz, inner = rng.uniform(size=(33, 33)), rng.uniform(size=(7, 33, 7, 33))
        want = _einsum_pairs(gz, inner)
        got = ex._propagate_pairs(gz, inner)
        assert np.max(np.abs(got - want) / want) <= self.REL

    def test_volterra_level_matches_einsum_reference(self):
        rng = np.random.default_rng(28)
        prev = rng.uniform(size=(5, 7, 33, 7, 33))
        weight = rng.uniform(size=(1, 33, 1, 33))
        gq = [None] + [rng.uniform(size=(33, 33)) for _ in range(5)]
        lows = rng.uniform(size=(5, 7, 33, 7, 33))
        for end_lo in (None, lambda i: lows[i - 1]):
            want = _volterra_by_target(prev, weight, gq, 0.05, 0.19,
                                       _einsum_pairs, end_lo)
            got = ex._volterra_level(prev, weight, gq, 0.05, 0.19,
                                     ex._propagate_pairs, end_lo)
            assert np.max(np.abs(got - want) / want) <= self.REL

    def test_volterra_level_keeps_summation_order(self):
        # two_point's propagate: each level must come out bit for bit
        rng = np.random.default_rng(29)
        prev, weight = rng.uniform(size=(6, 33, 33)), rng.uniform(size=(33, 33))
        gq = [None] + [rng.uniform(size=(33, 33)) for _ in range(6)]
        lows = rng.uniform(size=(6, 33, 33))

        def propagate(gz, inner):
            return gz @ inner @ gz.T
        for end_lo in (None, lambda i: lows[i - 1]):
            args = (prev, weight, gq, 0.05, 0.19, propagate, end_lo)
            assert np.array_equal(ex._volterra_level(*args), _volterra_by_target(*args))

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

    def test_time_grid_uniform_to_hn_table_tolerance(self, spec_d1):
        tg = np.linspace(0, 1.0, 11)
        tg[5] += 1e-10
        for build in (lambda: ex.resolvent_Ln(spec_d1, 0, tg),
                      lambda: mc.hn_table(spec_d1, 1, tg)):
            with pytest.raises(DomainError, match="uniform"):
                build()

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

    def test_same_bits_as_target_loop(self, monkeypatch):
        spec = NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1.0)
        mu = InitialMeasure.uniform(1.0)
        got = ex.two_point(spec, mu, 1.0, [0.5], [-0.7], n_max=3)
        monkeypatch.setattr(ex, "_volterra_level", _volterra_by_target)
        want = ex.two_point(spec, mu, 1.0, [0.5], [-0.7], n_max=3)
        assert repr(got["contributions"]) == repr(want["contributions"])
        assert repr(got["value"]) == repr(want["value"])

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

    @pytest.mark.parametrize("x, x_prime, name", [([0.4, 9.0], [-1.0, 5.0], "x"),
                                                  ([0.4], [-1.0, 5.0], "x_prime")])
    def test_refuses_more_than_one_coordinate(self, spec_d1, x, x_prime, name):
        with pytest.raises(DomainError, match=f"one coordinate for {name},"):
            ex.two_point(spec_d1, InitialMeasure.uniform(1.0), 0.5, x, x_prime,
                         n_max=1)


@pytest.mark.parametrize("n", [16, 33, 64])
def test_constant_density_reads_as_uniform(spec_d1, n):
    flat = InitialMeasure.from_density(np.full(n, TWO_PI ** -1))
    uniform = InitialMeasure.uniform(1.0)
    fk = [ex.feynman_kac_second_moment(spec_d1, mu, 0.25, [0.3], 64, 1 / 64,
                                       seed=1) for mu in (flat, uniform)]
    assert (fk[0].value, fk[0].std_err) == (fk[1].value, fk[1].std_err)
    tp = [ex.two_point(spec_d1, mu, 0.5, [0.4], [-1.0], n_max=1)
          for mu in (flat, uniform)]
    assert tp[0]["contributions"] == tp[1]["contributions"]


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

    def test_rounded_horizon_refused(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        with pytest.raises(DomainError, match=r"t = 1\.004 .*dt_bm = 0\.01; "
                           r"100 steps reach 1$"):
            ex.ergodic_average_check(spec, [1.004], 4, dt_bm=0.01)

    @pytest.mark.parametrize("dt_bm", [0.0, -0.01])
    def test_non_positive_step_refused(self, dt_bm):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        with pytest.raises(DomainError, match="^dt_bm = .* must be positive"):
            ex.ergodic_average_check(spec, [1.0], 4, dt_bm=dt_bm)


TABLE_NODES = grid_points(8192, 1)[:, 0]


def interp_lookup(f, x):
    """The table read by np.interp: wrap, sort and binary search."""
    return np.interp(signed_mod(x), TABLE_NODES, f, period=TWO_PI)


def reference_pair_walk(spec, kmax, x0, n_paths, n_steps, dt_bm, rng):
    """One step per iteration, wrapping every step and reading the table
    by np.interp: the walk before blocking and before direct indexing."""
    f_tab, _ = ex._f_table(spec, kmax)
    b1 = np.full(n_paths, x0)
    b2 = b1.copy()
    acc = np.zeros(n_paths)
    root = math.sqrt(dt_bm)
    for step_i in range(1, n_steps + 1):
        acc += interp_lookup(f_tab, b1 - b2)
        steps = rng.standard_normal((2, n_paths)) * root
        b1 = signed_mod(b1 + steps[0])
        b2 = signed_mod(b2 + steps[1])
        yield step_i, b1, b2, acc


def serial_pair_walk(spec, kmax, x0, n_paths, stops, dt_bm, rng):
    """The blocked walk with a fresh array per block and every draw on the
    calling thread: the walk before its look-ahead."""
    f_tab, df_tab = ex._f_table(spec, kmax)
    m = max(1, ex._PAIR_BLOCK // (2 * n_paths))
    ends = np.full((2, n_paths), x0)
    acc = np.zeros(n_paths)
    stops, done, rows = list(stops), 0, []
    while stops:
        k = min(m, stops[-1] - done)
        pos = np.empty((k + 1, 2, n_paths))
        pos[0] = ends
        rng.standard_normal(out=pos[1:])
        pos[1:] *= math.sqrt(dt_bm)
        np.cumsum(pos, axis=0, out=pos)
        sums = ex._table_lookup(f_tab, df_tab, pos[:-1, 0] - pos[:-1, 1])
        sums[0] += acc
        np.cumsum(sums, axis=0, out=sums)
        ends, acc = signed_mod(pos[-1]), sums[-1]
        while stops and stops[0] <= done + k:
            j = stops.pop(0) - done
            b = ends if j == k else signed_mod(pos[j])
            rows.append((done + j, b[0], b[1], sums[j - 1]))
        done += k
    return rows


class RecordedRng:
    """A generator whose standard_normal records, call by call, whether it
    ran on a thread other than the one that made it, and raises on call
    ``fail_at``."""

    def __init__(self, rng, fail_at=None):
        self.rng, self.fail_at = rng, fail_at
        self.caller, self.off_thread = threading.get_ident(), []

    def standard_normal(self, *args, **kwargs):
        self.off_thread.append(threading.get_ident() != self.caller)
        if len(self.off_thread) == self.fail_at:
            raise RuntimeError(f"draw {self.fail_at} failed")
        return self.rng.standard_normal(*args, **kwargs)


def row_bytes(rows):
    return [(step, b1.tobytes(), b2.tobytes(), acc.tobytes())
            for step, b1, b2, acc in rows]


class TestBlockedPairWalk:
    def test_table_is_f_at_the_nodes(self, spec_d1):
        f, df = ex._f_table(spec_d1, 16)
        assert f.shape == df.shape == (8192,)
        assert np.array_equal(
            f, covariance_truncated(spec_d1, TABLE_NODES[:, None], 16))
        assert np.array_equal(df, np.append(f[1:], f[0]) - f)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.9])
    def test_lookup_matches_np_interp(self, rng, alpha):
        f, df = ex._f_table(NoiseSpec(d=1, alpha=alpha, rho=2.0, lam=1.0), 16)
        x = np.concatenate([
            rng.uniform(-5 * np.pi, 5 * np.pi, 100_000), TABLE_NODES,
            [-np.pi, np.pi], np.nextafter(TABLE_NODES, -np.inf),
            np.nextafter(TABLE_NODES, np.inf)])
        gap = np.abs(ex._table_lookup(f, df, x) - interp_lookup(f, x))
        assert np.max(gap) <= 1e-13 * np.max(np.abs(f))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_lookup_refuses_non_finite(self, spec_d1, bad):
        f, df = ex._f_table(spec_d1, 16)
        with pytest.raises(DomainError, match=r"needs finite \|x\| < 1e15"):
            ex._table_lookup(f, df, np.array([[0.1, bad], [0.2, 0.3]]))

    def test_block_draw_equals_step_draws(self):
        block = np.empty((7, 2, 30))
        step_rng(5, 0, stream=2).standard_normal(out=block)
        rng = step_rng(5, 0, stream=2)
        steps = np.stack([rng.standard_normal((2, 30)) for _ in range(7)])
        assert np.array_equal(block, steps)

    # 50 pairs: 655-step blocks, stop 1000 inside the second, the last cut
    # at 2000; 40 000 pairs: one step per block
    @pytest.mark.parametrize("n_paths,stops,dt_bm", [
        (50, [1000, 2000], 0.01), (40_000, [1, 3], 1 / 256)])
    def test_matches_step_loop(self, n_paths, stops, dt_bm):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        ref = {s: (b1.copy(), b2.copy(), acc.copy())
               for s, b1, b2, acc in reference_pair_walk(
                   spec, 16, 0.3, n_paths, stops[-1], dt_bm,
                   step_rng(9, 0, stream=2))
               if s in stops}
        got = list(ex._pair_walk(spec, 16, 0.3, n_paths, stops, dt_bm,
                                 step_rng(9, 0, stream=2)))
        assert [row[0] for row in got] == stops
        for step, b1, b2, acc in got:
            r1, r2, racc = ref[step]
            assert np.max(np.abs(acc - racc) / np.abs(racc)) <= 1e-12
            assert np.max(np.abs(signed_mod(b1 - r1))) <= 1e-12
            assert np.max(np.abs(signed_mod(b2 - r2))) <= 1e-12

    # 50 pairs walk 655 steps a block: one block; a stop on the first
    # block boundary; three blocks, the last short, with a stop in each
    @pytest.mark.parametrize("stops, n_blocks", [
        ([600], 1), ([655, 1310], 2), ([200, 1000, 1700], 3)])
    def test_look_ahead_rows_equal_serial_walk(self, monkeypatch, stops,
                                               n_blocks):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        runs, where = [], []
        for cpus in (2, 1):
            monkeypatch.setattr(ps, "cpu_count", lambda: cpus)
            rng = RecordedRng(step_rng(9, 0, stream=2))
            runs.append(row_bytes(ex._pair_walk(spec, 16, 0.3, 50, stops,
                                                0.01, rng)))
            where.append(rng.off_thread)
        # a single block is drawn on the caller's thread, with no worker
        assert where == [[n_blocks > 1] * n_blocks, [False] * n_blocks]
        serial = serial_pair_walk(spec, 16, 0.3, 50, stops, 0.01,
                                  step_rng(9, 0, stream=2))
        assert [row[0] for row in runs[0]] == stops
        assert runs[0] == runs[1] == row_bytes(serial)

    def test_lookup_error_mid_walk_ends_the_worker(self, monkeypatch,
                                                    request):
        monkeypatch.setattr(ps, "cpu_count", lambda: 2)
        lookup, calls = ex._table_lookup, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("lookup failed in block 3")
            return lookup(*args)

        monkeypatch.setattr(ex, "_table_lookup", failing)
        rng = RecordedRng(step_rng(9, 0, stream=2))
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        with pytest.raises(RuntimeError, match="lookup failed") as caught:
            ex._pair_walk(spec, 16, 0.3, 50, [5 * 655], 0.01, rng)
        # blocks 1 to 3 were summed and block 4 was drawn ahead
        assert rng.off_thread == [True] * 4
        # the error's traceback holds the walk's frame and so its worker
        # pool; kept past the test, it lets the conftest thread check see a
        # worker that the walk itself failed to end
        request.node.error = caught.value

    def test_draw_error_reraises_in_the_caller(self, monkeypatch, request):
        monkeypatch.setattr(ps, "cpu_count", lambda: 2)
        rng = RecordedRng(step_rng(9, 0, stream=2), fail_at=3)
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        with pytest.raises(RuntimeError, match="draw 3 failed") as caught:
            ex._pair_walk(spec, 16, 0.3, 50, [5 * 655], 0.01, rng)
        assert rng.off_thread == [True] * 3
        request.node.error = caught.value

    def test_row_independent_of_other_horizons(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        alone = ex.ergodic_average_check(spec, [10.0], 50, seed=4)
        both = ex.ergodic_average_check(spec, [10.0, 20.0], 50, seed=4)
        assert alone["rows"][0] == both["rows"][0]

    def test_constant_noise_exact_over_blocks(self, spec_d1):
        # 64 pairs: 512-step blocks, the third cut at 1300 steps
        mu = InitialMeasure.uniform(1.0)
        est = ex.feynman_kac_second_moment(spec_d1, mu, 1.3, [0.0], 64,
                                           1e-3, seed=3, kmax=0)
        target = math.exp(1.3 / TWO_PI) * TWO_PI ** -2
        assert est.std_err < 1e-12
        assert est.value == pytest.approx(target, rel=1e-12)


class TestErgodicExactMean:
    @pytest.mark.parametrize("seed", [33, 58])
    def test_default_check_passes(self, seed):
        # the 3-SE test against the t -> oo limit rho / (2 pi) fails at
        # these seeds: at t = 200 the finite-horizon bias is about 1.3 SE
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        rep = ex.ergodic_average_check(spec, [50.0, 200.0], 200, seed=seed)
        assert rep["pass"]

    def test_exact_mean_is_step_sum(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0, lam=1.0)
        rep = ex.ergodic_average_check(spec, [1.0, 10.0], 4, seed=0)
        k = np.arange(1.0, 17.0)
        for row in rep["rows"]:
            s = 0.01 * np.arange(round(row["t"] / 0.01))
            f_mean = (2.0 + 2.0 * np.exp(-np.outer(s, k**2)) @ k**-0.6) / TWO_PI
            assert row["exact_mean"] == pytest.approx(np.mean(f_mean),
                                                      rel=1e-12)
        bias = [row["exact_mean"] - rep["limit"] for row in rep["rows"]]
        assert 0.0 < bias[1] < bias[0]


class TestFeynmanKacHorizon:
    def test_rounded_horizon_refused(self, spec_d1):
        mu = InitialMeasure.uniform(1.0)
        with pytest.raises(DomainError,
                           match=r"t = 0\.5 .*dt_bm = 0\.3.* reach 0\.6"):
            ex.feynman_kac_second_moment(spec_d1, mu, 0.5, [0.0], 10, 0.3)


def test_feynman_kac_refuses_more_than_one_coordinate(spec_d1):
    with pytest.raises(DomainError, match="takes one point"):
        ex.feynman_kac_second_moment(spec_d1, InitialMeasure.uniform(1.0),
                                     0.5, [0.3, 2.0], 10, 0.01)


def reference_holder(config, mu, seed, n_paths, time_lags, space_lags):
    """Pooled S2 over every path at once, then one more pass per path for
    the confidence width: the two-pass rule the per-path table reproduces."""
    out_times = np.arange(0.5, 1.0 + 1e-12, config.dt * 4)
    times, fields = solve_ensemble(config, mu, seed, n_paths, out_times)
    u = np.moveaxis(fields, 0, 1)

    def slopes(v):
        s2_t = [np.mean((v[:, lag:] - v[:, :-lag]) ** 2) for lag in time_lags]
        s2_s = [np.mean((np.roll(v, -lag, axis=-1) - v) ** 2)
                for lag in space_lags]
        return [np.polyfit(np.log(np.array(lags) * h), 0.5 * np.log(s2), 1)[0]
                for lags, h, s2 in ((time_lags, times[1] - times[0], s2_t),
                                    (space_lags, TWO_PI / config.grid_n, s2_s))]

    per_path = np.array([slopes(u[i:i + 1]) for i in range(n_paths)])
    return slopes(u), 2.0 * np.std(per_path, axis=0, ddof=1) / math.sqrt(n_paths)


class TestHolder:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_two_pass_reference(self, d):
        spec = NoiseSpec(d=d, alpha=0.3, rho=1.0, lam=1.0)
        cfg = SolverConfig(spec=spec, grid_n=16, mode_k=5, dt=1 / 256,
                           t_final=1.0)
        mu = InitialMeasure.uniform(1.0)
        rep = ex.empirical_holder(cfg, mu, seed=2, n_paths=4)
        betas, cis = reference_holder(cfg, mu, 2, 4, rep["time_lags"],
                                      rep["space_lags"])
        assert rep["space_lags"] == (1, 2, 4, 8)
        got = [rep["beta1_hat"], rep["beta2_hat"], rep["beta1_ci"],
               rep["beta2_ci"]]
        assert got == pytest.approx([*betas, *cis], rel=1e-12)

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

    @pytest.mark.parametrize("lags, message", [
        ({"time_lags": (1, 2, 4, 129)}, r"time lags .* \[1, 128\]"),
        ({"time_lags": (0, 1, 2, 4)}, r"time lags .* \[1, 128\]"),
        ({"space_lags": (1, 2, 4, 64)}, r"space lags .* \[1, 63\]")])
    def test_lags_beyond_the_data_are_refused(self, spec_d1, lags, message):
        # 129 stored times on a 64-point grid
        cfg = solver_config(spec_d1, t_final=1.0)
        with pytest.raises(DomainError, match=message):
            ex.empirical_holder(cfg, InitialMeasure.uniform(1.0), seed=0,
                                save_every=1, **lags)

    def test_lag_count_guard(self, spec_d1):
        cfg = solver_config(spec_d1)
        with pytest.raises(DomainError):
            ex.empirical_holder(cfg, InitialMeasure.uniform(1.0), seed=0,
                                time_lags=(1, 2, 4), space_lags=(1, 2, 4, 8))

    @pytest.mark.parametrize("d, grid_n, mode_k", [(1, 192, 63), (2, 16, 5)])
    def test_holds_about_one_stack(self, d, grid_n, mode_k):
        # 129 stored times of 16 paths; the S2 tables go through two
        # (time, x...) slabs besides the solver's step arrays
        spec = NoiseSpec(d=d, alpha=0.3 if d == 1 else 0.8, rho=1.0, lam=1.0)
        cfg = SolverConfig(spec=spec, grid_n=grid_n, mode_k=mode_k,
                           dt=1 / 1024, t_final=1.0)
        mu = InitialMeasure.uniform(1.0)
        n_paths, n_out = 16, 129

        def holder():
            return ex.empirical_holder(cfg, mu, seed=0, n_paths=n_paths)

        holder()  # warm caches; numpy reports its buffers to tracemalloc
        tracemalloc.start()
        try:
            holder()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slab = n_out * grid_n**d * 8
        step = n_paths * grid_n**d * 16  # one complex field of the batch
        assert peak <= n_paths * slab + 2 * slab + 16 * step
