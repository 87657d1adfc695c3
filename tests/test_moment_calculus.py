import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate, special

from torpam import moment_calculus as mc
from torpam.covariance import NoiseSpec
from torpam.errors import DalangViolation, DomainError, NumericsError
from torpam.heat_kernel import TWO_PI
from torpam.lattice import lattice_r2, sphere_area
from torpam.pam_solver import InitialMeasure


class TestK1:
    def test_long_time_limit(self, spec_d1):
        assert mc.k1(1e3, spec_d1) == pytest.approx(
            spec_d1.rho / math.sqrt(TWO_PI), abs=1e-14)

    def test_nonincreasing_positive(self, spec_d1):
        s = np.geomspace(1e-4, 10, 200)
        vals = mc.k1(s, spec_d1)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_power_upper_bound(self, spec_d1):
        # k1 <= rho (2pi)^{-1/2} + C_{a,b,d} s^{-b} at the default beta
        a, d = spec_d1.alpha, spec_d1.d
        beta = max(-a + d / 2, 0.0) + min(a + 1 - d / 2, 1.0) / 2
        from torpam.lattice import zeta_lattice

        c_ab = (beta**beta * math.exp(-beta) / math.sqrt(TWO_PI)
                * zeta_lattice(d, 2 * (a + beta)))
        s = np.geomspace(1e-3, 50, 100)
        bound = spec_d1.rho / math.sqrt(TWO_PI) + c_ab * s ** (-beta)
        assert np.all(mc.k1(s, spec_d1) <= bound * (1 + 1e-12))

    def test_integral_budget(self, spec_d1):
        from torpam.covariance import c_alpha_d

        t = 3.0
        assert mc.k1_integral(t, spec_d1) <= (
            spec_d1.rho * t / math.sqrt(TWO_PI) + c_alpha_d(spec_d1) + 1e-12)

    def test_small_s_path_consistency(self, spec_d1):
        # the heat-integral route must join the direct sum smoothly
        direct = mc.k1(1e-4, spec_d1, kmax=4096)
        rerouted = spec_d1.rho / math.sqrt(TWO_PI) + (
            mc._weighted_heat_sum_small_s(1e-4, spec_d1) / math.sqrt(TWO_PI))
        assert direct == pytest.approx(rerouted, rel=1e-9)

    def test_laplace_against_quadrature(self, spec_d1):
        gamma = 1.0

        def short(w):
            s = w * w
            return math.exp(-gamma * s) * mc.k1(s, spec_d1) * 2 * w

        a, _ = integrate.quad(short, 0, 1, epsabs=1e-12, epsrel=1e-12, limit=400)
        b, _ = integrate.quad(lambda s: math.exp(-gamma * s) * mc.k1(s, spec_d1),
                              1, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert a + b == pytest.approx(mc.k1_laplace(gamma, spec_d1), abs=1e-8)

    def test_rejects_nonpositive(self, spec_d1):
        with pytest.raises(DomainError):
            mc.k1(0.0, spec_d1)

    def test_row_blocks_match_single_points(self, spec_d1, monkeypatch):
        # 64 lattice radii, 200-element blocks: 3 rows per block, the last
        # block partial
        monkeypatch.setattr(mc, "_K1_BLOCK", 200)
        s = np.geomspace(1e-2, 10, 50)
        single = [mc.k1(float(v), spec_d1, kmax=64) for v in s]
        assert mc.k1(s, spec_d1, kmax=64) == pytest.approx(single, rel=1e-14)


class TestLaplaceTail:
    """k1_laplace's radial tail is omega K^{d-2-2a} / (2b) 2F1(1, b; b+1; -z):
    the 2F1 against scipy's and the elementary forms at b = 1/2 and 1."""

    Z = np.array([0.0, 1e-12, 1e-6, 0.01, 0.5, 1.0, 2.0, 2.0 + 1e-9, 3.0, 10.0,
                  1e3, 6e4, 1e6, 1e9, 1e12])

    # scipy's hyp2f1 at b = 1 is off by 3.6e-12 at z = 1e6 and 8.0e-7 at
    # 1e12 against mpmath, so there it is read to z = 1e3 and the log1p
    # form below covers the rest
    @pytest.mark.parametrize("b, z_max", [(0.2, 1e12), (0.5, 1e12), (0.8, 1e12),
                                          (1.0, 1e3), (1.3, 1e12), (2.0, 1e12)])
    def test_against_scipy(self, b, z_max):
        z = self.Z[self.Z <= z_max]
        got = [mc._hyp2f1_1b(b, v) for v in z]
        assert got == pytest.approx(special.hyp2f1(1.0, b, b + 1.0, -z),
                                    rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("b, form", [
        (0.5, lambda z: math.atan(math.sqrt(z)) / math.sqrt(z)),
        (1.0, lambda z: math.log1p(z) / z),
    ])
    def test_elementary_forms(self, b, form):
        for z in self.Z[1:]:
            assert mc._hyp2f1_1b(b, z) == pytest.approx(form(z), rel=1e-13,
                                                        abs=0.0)
        assert mc._hyp2f1_1b(b, 0.0) == 1.0

    def test_large_gamma_at_d2(self):
        # b = 1/2: the tail is 2 pi arctan(sqrt(gamma) / K) / sqrt(gamma);
        # the quadrature it replaces returned -6.3e-12 for it at gamma 1e12
        spec = NoiseSpec(d=2, alpha=0.5, rho=1.0)
        gamma, kmax = 1e12, mc._laplace_kmax(2)
        r2, counts = lattice_r2(2, kmax)
        ball = r2 <= kmax**2
        r2, counts = r2[ball], counts[ball]
        main = float(np.sum(counts / np.sqrt(r2) / (r2 + gamma)))
        tail = TWO_PI * math.atan(math.sqrt(gamma) / kmax) / math.sqrt(gamma)
        exact = (1.0 / gamma + main + tail) / TWO_PI
        assert mc.k1_laplace(gamma, spec) == pytest.approx(exact, rel=1e-13, abs=0.0)


def radial_tail(d, alpha, gamma, radius):
    """int_R^oo omega r^{d-1-2a} / (r^2 + gamma) dr by scipy's 2F1."""
    b = 1.0 - d / 2.0 + alpha
    return (sphere_area(d) * radius ** (d - 2.0 - 2.0 * alpha) / (2.0 * b)
            * special.hyp2f1(1.0, b, b + 1.0, -gamma / radius**2))


def ball_laplace(d, alpha, rho, gamma, radius):
    """k1_laplace's mode sum over the ball |k| <= radius, one k_1 slice at
    a time from the histogram of the other coordinates' squared norms, plus
    the radial tail beyond it."""
    axis = np.arange(-radius, radius + 1)
    rest = np.zeros(1, dtype=np.int64)
    for _ in range(d - 1):
        rest = (rest[:, None] + axis[None, :] ** 2).ravel()
    hist = np.bincount(rest[rest <= radius**2])
    norms = np.flatnonzero(hist)
    counts = hist[norms].astype(float)
    total = 0.0
    for k1 in axis:
        n = np.searchsorted(norms, radius**2 - k1 * k1, side="right")
        r2, c = k1 * k1 + norms[:n].astype(float), counts[:n]
        if k1 == 0:
            r2, c = r2[1:], c[1:]
        total += float(np.sum(c * r2 ** (-alpha) / (r2 + gamma)))
    tail = radial_tail(d, alpha, gamma, radius)
    return (rho / gamma + total + tail) / TWO_PI ** (d / 2.0)


class TestLaplaceLattice:
    """k1_laplace against independent sums: the ball to a larger radius at
    d >= 2, and a 4e6-term direct sum at d = 1, each with its tail."""

    @pytest.mark.parametrize("d, alpha, gamma, radius", [
        (2, 0.5, 1.0, 2048), (2, 0.5, 100.0, 2048), (2, 0.9, 1.0, 2048),
        (3, 0.8, 1.0, 1024)])
    def test_ball_sum(self, d, alpha, gamma, radius):
        spec = NoiseSpec(d=d, alpha=alpha, rho=1.0)
        assert mc.k1_laplace(gamma, spec) == pytest.approx(
            ball_laplace(d, alpha, 1.0, gamma, radius), rel=1e-6)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the d = 1 end term has the sign opposite to "
                       "Euler-Maclaurin's (3.2e-10); ROADMAP item 17, "
                       "re-recorded with item 6")
    def test_direct_sum_at_d1(self):
        alpha, gamma, n = 0.3, 1.0, 4_000_000
        k = np.arange(1, n + 1, dtype=float)
        f = k ** (-2.0 * alpha) / (k * k + gamma)
        # Euler-Maclaurin: the sum beyond n is the integral less f(n) / 2
        # per side
        lattice = 2.0 * math.fsum(f) - f[-1] + radial_tail(1, alpha, gamma, n)
        exact = (1.0 / gamma + lattice) / math.sqrt(TWO_PI)
        spec = NoiseSpec(d=1, alpha=alpha, rho=1.0)
        assert mc.k1_laplace(gamma, spec) == pytest.approx(exact, rel=1e-12)


class TestK2:
    def test_scaling_exponent(self):
        spec = NoiseSpec(d=2, alpha=1.0, rho=0.0)
        assert mc.k2(2.0, spec) / mc.k2(1.0, spec) == pytest.approx(1.0)
        spec13 = NoiseSpec(d=1, alpha=0.3, rho=0.0)
        assert mc.k2(2.0, spec13) / mc.k2(1.0, spec13) == pytest.approx(2 ** (-0.2))

    @pytest.mark.parametrize("d,alpha", [(1, 0.3), (1, 0.45), (2, 0.5), (2, 0.9)])
    def test_constant_from_quadrature(self, d, alpha):
        # the defining integral c_{d,a} omega_d int_0^oo r^{d-1-2a} e^{-r^2/2} dr,
        # with c_{d,a} = 2^{2a-d/2} Gamma(a) / Gamma(d/2 - a) the Fourier
        # constant of |x|^{-d+2a}; r = v^{1/(1+p)} flattens the endpoint power
        p = d - 1.0 - 2.0 * alpha
        q = 1.0 / (1.0 + p)
        val, _ = integrate.quad(lambda v: q * math.exp(-(v ** (2.0 * q)) / 2.0),
                                0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
        c = (2.0 ** (2.0 * alpha - d / 2.0) * math.gamma(alpha)
             / math.gamma(d / 2.0 - alpha))
        assert mc.riesz_gaussian_constant(d, alpha) == pytest.approx(
            c * sphere_area(d) * val, rel=1e-12)

    def test_laplace_constant(self):
        # int e^{-g s} C s^{a-d/2} ds = C Gamma(a+1-d/2) g^{-(a+1-d/2)}
        d, alpha, gamma = 1, 0.3, 1.7
        spec = NoiseSpec(d=d, alpha=alpha, rho=0.0)
        val, _ = integrate.quad(lambda s: math.exp(-gamma * s) * float(mc.k2(s, spec)),
                                0, np.inf, epsabs=1e-12, limit=300)
        pred = mc.k2_laplace_constant(d, alpha) * gamma ** (-(alpha + 1 - d / 2))
        assert val == pytest.approx(pred, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            mc.k2(-1.0, NoiseSpec(d=1, alpha=0.3))


class TestHnTable:
    def test_h0_and_start(self, spec_d1):
        tab = mc.hn_table(spec_d1, 3, np.linspace(0, 1, 101))
        assert np.all(tab.values[0] == 1.0)
        assert np.all(tab.values[1:, 0] == 0.0)

    def test_h1_closed_form(self, spec_d1):
        grid = np.linspace(0, 2, 201)
        tab = mc.hn_table(spec_d1, 1, grid)
        a, d = spec_d1.alpha, spec_d1.d
        c = mc.riesz_gaussian_constant(d, a)
        p = a - d / 2 + 1
        for i in (50, 100, 200):
            t = grid[i]
            exact = mc.k1_integral(t, spec_d1) + c * t**p / p + t
            assert tab.values[1][i] == pytest.approx(exact, rel=1e-7)

    def test_h2_against_brute_quadrature(self, spec_d1):
        grid = np.linspace(0, 1.0, 101)
        tab = mc.hn_table(spec_d1, 2, grid)
        a, d = spec_d1.alpha, spec_d1.d
        c = mc.riesz_gaussian_constant(d, a)
        p = a - d / 2 + 1

        def h1(t):
            if t <= 0:
                return 0.0
            return mc.k1_integral(t, spec_d1) + c * t**p / p + t

        def kfun(s):
            return float(mc.k1(s, spec_d1)) + float(mc.k2(s, spec_d1)) + 1.0

        t_test = 1.0
        head, _ = integrate.quad(lambda w: h1(t_test - w * w) * kfun(w * w) * 2 * w,
                                 1e-8, 1.0, epsabs=1e-9, limit=400)
        assert tab.values[2][-1] == pytest.approx(head, rel=1e-4)

    def test_rows_nondecreasing(self, spec_d1):
        tab = mc.hn_table(spec_d1, 5, np.linspace(0, 5, 251))
        for row in tab.values:
            assert np.all(np.diff(row) >= -1e-12)

    def test_refinement_convergence(self, spec_d1):
        coarse = mc.hn_table(spec_d1, 4, np.linspace(0, 10, 501))
        fine = mc.hn_table(spec_d1, 4, np.linspace(0, 10, 1001))
        sel = coarse.t_grid >= 0.5
        for n in range(1, 5):
            a = coarse.values[n][sel]
            b = fine.values[n][::2][sel]
            assert np.max(np.abs(a - b) / np.abs(b)) < 0.01

    def test_dalang_refusal(self):
        bad = NoiseSpec(d=3, alpha=0.5, rho=1.0)
        with pytest.raises(DalangViolation):
            mc.hn_table(bad, 2, np.linspace(0, 1, 11))


class TestHLambda:
    def test_zero_coupling(self, spec_d1):
        assert mc.H_lambda(spec_d1, 1.0, lam=0.0) == 1.0
        assert mc.H_lambda(spec_d1, 0.0, lam=2.0) == 1.0

    def test_small_coupling_limit(self, spec_d1):
        assert mc.H_lambda(spec_d1, 1.0, lam=1e-8) == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_t_and_lambda(self, spec_d1):
        hs = mc.H_lambda(spec_d1, np.array([0.5, 1.0, 2.0, 5.0]), lam=1.0)
        assert np.all(np.diff(hs) > 0)
        assert mc.H_lambda(spec_d1, 1.0, lam=2.0) > mc.H_lambda(spec_d1, 1.0, lam=1.0)

    def test_matches_renewal_march(self, spec_d1):
        # independent route: solve H = 1 + lam^2 (k * H) by time marching
        lam2 = 1.0
        dt = 0.005
        n = 200
        grid = np.linspace(0, dt * n, n + 1)
        p_w, a_w = mc._pi_weights(spec_d1, grid.size, dt)
        h = np.ones(grid.size)
        for i in range(1, grid.size):
            conv = float(np.dot(p_w[1:i + 1][::-1], h[:i])) + p_w[0] * 0.0
            # solve the implicit node value: h_i = 1 + lam2*(P0*h_i + rest)
            rest = conv - a_w[i + 1] * h[0] if i + 1 < a_w.size else conv
            h[i] = (1.0 + lam2 * rest) / (1.0 - lam2 * p_w[0])
        h_lambda = mc.H_lambda(spec_d1, dt * n, lam=1.0, dt=dt)
        assert h_lambda == pytest.approx(h[-1], rel=1e-8)

    def test_matches_level_sum(self, spec_d1):
        # independent route: the series sum_n lambda^{2n} h_n(t), lambda = 1
        tab = mc.hn_table(spec_d1, 80, np.linspace(0, 2, 101))
        level_sum = float(np.sum(tab.values[:, -1]))
        assert tab.values[-1][-1] < 1e-12 * level_sum
        march, info = mc.H_lambda(spec_d1, 2.0, lam=1.0, dt=0.02,
                                  full_output=True)
        assert info["dt"] == 0.02
        assert march == pytest.approx(level_sum, rel=1e-8)

    def test_step_halves_until_the_first_weight_is_small(self, spec_d1):
        # lambda^2 P[0] < 0.5 at the step taken, and not at twice that step
        lam, t = 10.0, 0.2
        _, info = mc.H_lambda(spec_d1, t, lam=lam, dt=t, full_output=True)
        dt = info["dt"]
        assert dt < t
        first = [mc._pi_weights(spec_d1, int(math.ceil(t / h)) + 1, h)[0][0]
                 for h in (dt, 2 * dt)]
        assert lam**2 * first[0] < 0.5 <= lam**2 * first[1]

    def test_reports_snapped_time(self, spec_d1):
        _, info = mc.H_lambda(spec_d1, 50.0, lam=1.0, full_output=True)
        t_eval = float(info["t_eval"][0])
        assert t_eval == pytest.approx(50.00085, abs=1e-5)
        assert abs(t_eval - 50.0) <= info["dt"] / 2
        assert info["n_nodes"] * info["dt"] > 50.0

    def test_overflow_reported(self, spec_d1):
        with pytest.raises(NumericsError):
            mc.H_lambda(spec_d1, 50.0, lam=4.0)

    def test_growth_rate_below_gamma0(self, spec_d1):
        g = mc.gamma0(1.0, spec_d1)
        for t in (10.0, 50.0):
            rate = math.log(mc.H_lambda(spec_d1, t, lam=1.0)) / t
            assert rate <= g.gamma0 + 0.1


class TestGamma:
    def test_theta_decreasing(self, spec_d1):
        gs = np.geomspace(0.1, 100, 30)
        vals = [mc.theta_gamma(g, spec_d1) for g in gs]
        assert np.all(np.diff(vals) < 0)

    def test_residual(self, spec_d1):
        sol = mc.gamma0(2.0, spec_d1)
        assert sol.residual < 1e-9

    def test_monotone_in_lambda(self, spec_d1):
        roots = [mc.gamma0(l, spec_d1).gamma0 for l in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_rate_exponent_fit(self, spec_d1):
        lams = np.geomspace(1e2, 1e4, 5)
        roots = np.array([mc.gamma0(l, spec_d1).gamma0 for l in lams])
        slope = np.polyfit(np.log(lams), np.log(roots), 1)[0]
        target = mc.gamma0_rate_exponent(spec_d1)
        assert abs(slope - target) <= 0.1 * target

    def test_zero_lambda_rejected(self, spec_d1):
        with pytest.raises(DomainError):
            mc.gamma0(0.0, spec_d1)

    def test_export(self, spec_d1):
        # The gamma0 command writes these fields to gamma0.json, so each
        # must survive a JSON round trip unchanged.
        sol = mc.gamma0(1.0, spec_d1)
        record = dataclasses.asdict(sol)
        assert set(record) == {"lam", "gamma0", "theta_at_gamma0",
                               "residual", "mode_cutoff"}
        assert json.loads(json.dumps(record)) == record


class TestDimensionThree:
    """At d = 3 the zeta tail of k1_integral would sum the lattice to kmax
    3544: it and each route through it refuse by name; k1_laplace runs."""

    SPEC = NoiseSpec(d=3, alpha=0.8, rho=1.0, lam=1.0)

    @pytest.mark.parametrize("call", [
        lambda spec: mc.k1_integral(0.5, spec),
        lambda spec: mc.hn_table(spec, 2, np.linspace(0, 1, 11)),
        lambda spec: mc.H_lambda(spec, 0.5),
        lambda spec: mc.p_moment_upper(0.5, [0.0, 0.0, 0.0], 2.0,
                                       InitialMeasure.uniform(1.0), spec),
    ])
    def test_refused_by_name(self, call):
        with pytest.raises(DomainError, match="k1_integral at d = 3 needs its "
                           "zeta tail summed to the lattice cutoff 3544"):
            call(self.SPEC)

    def test_laplace_transform_runs(self):
        assert 0.0 < mc.k1_laplace(1.0, self.SPEC) < math.inf


class TestBounds:
    def test_upper_bound_zero_coupling(self):
        from torpam.pam_solver import InitialMeasure

        spec = NoiseSpec(d=1, alpha=0.3, rho=1.0, lam=1e-9)
        mu = InitialMeasure.uniform(1.0)
        val = mc.p_moment_upper(1.0, [0.0], 2.0, mu, spec)
        assert val == pytest.approx(math.sqrt(2.0) / TWO_PI, rel=1e-6)

    def test_upper_bound_monotone_in_p(self, spec_d1):
        from torpam.pam_solver import InitialMeasure

        mu = InitialMeasure.uniform(1.0)
        b2 = mc.p_moment_upper(0.2, [0.0], 2.0, mu, spec_d1)
        b4 = mc.p_moment_upper(0.2, [0.0], 4.0, mu, spec_d1)
        assert np.isfinite(b2) and np.isfinite(b4)
        assert b4 >= b2

    def test_upper_bound_overflow_reports_inf(self, spec_d1):
        from torpam.pam_solver import InitialMeasure

        # H_{4 lambda sqrt(p)} passes e^709 here; the bound is still valid
        mu = InitialMeasure.uniform(1.0)
        assert mc.p_moment_upper(1.0, [0.0], 4.0, mu, spec_d1) == math.inf

    def test_upper_bound_past_the_node_cap_is_inf(self, monkeypatch):
        from torpam.pam_solver import InitialMeasure

        # d = 2: H_{4 sqrt 2} would march ~6.2e5 nodes, above the cap, so it
        # is refused before the product-integration weights are built
        spec = NoiseSpec(d=2, alpha=0.5, rho=1.0, lam=1.0)
        monkeypatch.setattr(mc, "_pi_weights",
                            lambda *args: pytest.fail("weights built"))
        mu = InitialMeasure.uniform(1.0)
        assert mc.p_moment_upper(0.5, [0.0, 0.0], 2.0, mu, spec) == math.inf

    def test_upper_bound_rejects_small_p(self, spec_d1):
        from torpam.pam_solver import InitialMeasure

        with pytest.raises(DomainError):
            mc.p_moment_upper(0.5, [0.0], 1.5, InitialMeasure.uniform(), spec_d1)

    def test_lower_bound_formula_and_slope(self):
        from torpam.bridge import comparison_constants

        c_eps = comparison_constants(1.0)[0]
        c_f, c_mu, lam, d = 2.0, 1.0, 1.5, 1
        vals = [mc.lower_bound_second_moment(t, 1.0, c_f, c_mu, lam, d)
                for t in (5.0, 20.0)]
        expect5 = 0.5 * lam**-2 * c_eps * c_mu**2 * math.exp(c_f * 5.0 / 2)
        assert vals[0] == pytest.approx(expect5, rel=1e-12)
        slope = (math.log(vals[1]) - math.log(vals[0])) / 15.0
        assert slope == pytest.approx(c_f / 2.0, abs=1e-10)

    def test_holder_exponents(self):
        b1, b2 = mc.holder_exponents(0.3, 1)
        assert (b1, b2) == (pytest.approx(0.4), pytest.approx(0.8))
        with pytest.raises(DomainError):
            mc.holder_exponents(0.6, 1)
