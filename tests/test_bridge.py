import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp
from scipy.stats import qmc

from torpam import bridge as br
from torpam.errors import DomainError

PI = math.pi


class TestDensities:
    def test_torus_normalization(self):
        spec = br.BridgeSpec(t=1.0, x0=[0.3], x=[-1.2])
        for s in (0.2, 0.35, 0.8):
            val, _ = integrate.quad(
                lambda z: float(br.bridge_density_torus(spec, s, [z])),
                -PI, PI, limit=200)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_euclid_normalization(self):
        spec = br.BridgeSpec(t=1.0, x0=[0.0], x=[0.5])
        val, _ = integrate.quad(
            lambda z: float(br.bridge_density_euclid(spec, 0.3, [z])),
            -np.inf, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_time_reversal(self):
        fwd = br.BridgeSpec(t=1.0, x0=[0.3], x=[-1.2])
        bwd = br.BridgeSpec(t=1.0, x0=[-1.2], x=[0.3])
        for (s, z) in [(0.25, 0.9), (0.5, -2.0), (0.75, 0.1)]:
            a = float(br.bridge_density_torus(fwd, s, [z]))
            b = float(br.bridge_density_torus(bwd, 1.0 - s, [z]))
            assert a == pytest.approx(b, rel=1e-12)

    def test_midpoint_symmetry_pinned_loop(self):
        spec = br.BridgeSpec(t=1.0, x0=[0.4], x=[0.4])
        for dz in (0.3, 1.0, 2.0):
            a = float(br.bridge_density_torus(spec, 0.5, [0.4 + dz]))
            b = float(br.bridge_density_torus(spec, 0.5, [0.4 - dz]))
            assert a == pytest.approx(b, rel=1e-12)

    def test_euclid_dual_formulas(self):
        spec = br.BridgeSpec(t=1.0, x0=[0.0], x=[0.5])
        a = float(br.bridge_density_euclid(spec, 0.3, [0.2], form="ratio"))
        b = float(br.bridge_density_euclid(spec, 0.3, [0.2], form="collapsed"))
        assert a == pytest.approx(b, abs=1e-12)

    def test_euclid_variance(self):
        spec = br.BridgeSpec(t=1.0, x0=[0.0], x=[0.5])
        s = 0.3
        zs = np.linspace(-15, 15, 30001)
        dens = br.bridge_density_euclid(spec, s, zs[:, None])
        mean = 0.0 + s * 0.5
        var = np.trapezoid(dens * (zs - mean) ** 2, zs)
        assert var == pytest.approx(s * (1 - s), abs=1e-10)

    def test_short_time_concentration(self):
        spec = br.BridgeSpec(t=1.0, x0=[0.0], x=[0.5])
        s = 1e-4
        zs = np.linspace(-3 * math.sqrt(s), 3 * math.sqrt(s), 4001)
        dens = br.bridge_density_euclid(spec, s, zs[:, None])
        mass = np.trapezoid(dens, zs)
        assert mass >= 0.99

    def test_time_domain_guard(self):
        spec = br.BridgeSpec(t=1.0, x0=[0.0], x=[0.5])
        with pytest.raises(DomainError):
            br.bridge_density_torus(spec, 1.5, [0.0])
        with pytest.raises(DomainError):
            br.bridge_density_euclid(spec, 0.0, [0.0])


class TestComparisonConstants:
    def test_ordering_at_one(self):
        c, big = br.comparison_constants(1.0)
        assert 0.0 < c < 1.0 < big

    def test_monotone_in_eps(self):
        vals = [br.comparison_constants(e)[0] for e in (0.1, 1.0, 10.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_upper_constant_limit(self):
        # C_eps -> 2 as eps -> infinity; at 1e6 the gap is still ~5e-3,
        # so the 1e-3 check sits at 1e8
        assert abs(br.comparison_constants(1e8)[1] - 2.0) < 1e-3
        gap6 = abs(br.comparison_constants(1e6)[1] - 2.0)
        gap8 = abs(br.comparison_constants(1e8)[1] - 2.0)
        assert gap8 < gap6

    def test_corrected_below_classical(self):
        for eps in (0.5, 1.0, 2.0):
            c_fixed, big_fixed = br.corrected_comparison_constants(eps)
            c_classic, big_classic = br.comparison_constants(eps)
            assert c_fixed < c_classic
            assert big_fixed == big_classic


class TestLargeTimeSandwich:
    @pytest.mark.parametrize("d,eps", [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)])
    def test_zero_violations_classical_constants(self, d, eps):
        for t in (2 * eps, 10 * eps):
            rep = br.check_large_time_bound(eps, t, d=d, n_samples=4096, seed=3)
            assert rep["violations"] == 0

    @pytest.mark.parametrize("d,eps", [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)])
    def test_zero_violations_corrected_at_edge(self, d, eps):
        for t in (eps, 2 * eps, 10 * eps):
            rep = br.check_large_time_bound(eps, t, d=d, n_samples=4096,
                                            seed=3, corrected=True)
            assert rep["violations"] == 0

    def test_classical_constant_fails_at_edge(self):
        # documented defect: the classical lower constant carries
        # exp(-pi^2/(2 eps)) where the kernel ratio only gives
        # exp(-pi^2/eps); at t = eps it admits violations
        rep = br.check_large_time_bound(1.0, 1.0, d=1, n_samples=8192, seed=3)
        assert rep["violations"] > 0
        # analytic counterexample: s = t/2, z at distance pi from x,
        # x0 = x: ratio = G(0.5, pi) / G(1, 0) < c_1
        from torpam.heat_kernel import heat_kernel

        ratio = float(heat_kernel(0.5, [PI])) / float(heat_kernel(1.0, [0.0]))
        assert ratio < br.comparison_constants(1.0)[0]

    def test_degenerate_small_s(self):
        # direct tiny-s evaluation stays finite and inside the band
        c, big = br.comparison_constants(1.0)
        from torpam.heat_kernel import heat_kernel

        s = 1e-6
        ratio = float(heat_kernel(2.0 - s, [0.7 - 0.2])
                      / heat_kernel(2.0, [0.7 - 0.1]))
        assert c <= ratio <= big

    def test_requires_t_at_least_eps(self):
        with pytest.raises(DomainError):
            br.check_large_time_bound(1.0, 0.5)


class TestSweepRefusals:
    """Each bad sweep argument is refused by its name before any draw."""

    @pytest.mark.parametrize("kwargs,message", [
        (dict(n_samples=0), "n_samples = 0 must be >= 1"),
        (dict(n_samples=-5), "n_samples = -5 must be >= 1"),
        (dict(d=0), "d = 0 must be >= 1"),
    ])
    def test_both_sweeps(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            br.check_large_time_bound(1.0, 2.0, **kwargs)
        with pytest.raises(DomainError, match=message):
            br.fit_image_sum_constant(**kwargs)

    @pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, math.inf])
    def test_eps_positive_and_finite(self, eps):
        with pytest.raises(DomainError,
                           match=f"eps = {eps:g} must be positive and finite"):
            br.check_large_time_bound(eps, 2.0)

    def test_dimension_above_the_table(self):
        with pytest.raises(DomainError, match="dimension 33 exceeds the 32"):
            br._sobol_box(8, 33, 0)
        # a sweep at d = 11 needs 34 and 35 dimensions
        with pytest.raises(DomainError, match="dimension 34"):
            br.check_large_time_bound(1.0, 2.0, d=11, n_samples=8)
        with pytest.raises(DomainError, match="dimension 35"):
            br.fit_image_sum_constant(d=11, n_samples=8)


class TestSobolBox:
    """The numpy draw is scipy's scrambled Sobol sequence, bit for bit."""

    @pytest.mark.parametrize("dim", range(1, 33))
    def test_equals_scipy_bitwise(self, dim):
        for seed in (0, 66, 67, 12345):
            for n in (1, 2, 3, 1000, 10_000, 20_000):
                m = max(1, math.ceil(math.log2(n)))
                ref = qmc.Sobol(d=dim, scramble=True,
                                seed=seed).random_base2(m)[:n]
                got = br._sobol_box(n, dim, seed)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.array_equal(got.view(np.int64), ref.view(np.int64)), \
                    (dim, seed, n)


class TestLogSumExp:
    """The image sum's log-sum-exp keeps scipy.special.logsumexp's bits."""

    @pytest.mark.parametrize("k", [3, 9, 27])
    def test_equals_scipy_bitwise(self, k):
        a = np.random.default_rng(k).normal(size=(k, 4000)) * 30.0
        a[:, :10] = 5.0                    # every entry tied at the maximum
        a[0, 10:20] = a[-1, 10:20] = 40.0  # two tied maxima
        a[1, 20:30] = -np.inf
        assert np.array_equal(br._logsumexp(a), logsumexp(a, axis=0))

    @pytest.mark.parametrize("d", [1, 2])
    def test_on_criterion_6_inputs(self, monkeypatch, d):
        own, same = br._logsumexp, []

        def checked(a):
            got = own(a)
            same.append(np.array_equal(got, logsumexp(a, axis=0)))
            return got

        monkeypatch.setattr(br, "_logsumexp", checked)
        br.fit_image_sum_constant(d=d, n_samples=10_000, seed=67)
        assert same == [True]


class TestImageSumBound:
    def test_fit_finite_and_stable(self):
        a = br.fit_image_sum_constant(d=1, n_samples=8192, seed=2)
        b = br.fit_image_sum_constant(d=1, n_samples=16384, seed=2)
        assert np.isfinite(a["c_fit"]) and np.isfinite(b["c_fit"])
        assert abs(b["c_fit"] - a["c_fit"]) <= 0.2 * a["c_fit"]

    def test_small_t_interior_near_one(self):
        rep = br.check_image_sum_bound(0.01, 0.004, [0.1], [0.3], [0.2])
        assert rep["c_fit"] == pytest.approx(1.0 / (1 + math.sqrt(0.01)), rel=0.05)

    def test_case_one_geometry_d2(self):
        # x - x0 in (pi, 2 pi] per coordinate
        x0 = [-2.5, -2.8]
        x = [1.5, 1.2]
        rep = br.check_image_sum_bound(0.5, 0.2, x0, x, [-2.0, -2.2])
        assert np.isfinite(rep["c_fit"])
        assert rep["c_fit"] <= 1.5

    def test_window_guard(self):
        with pytest.raises(DomainError):
            br.check_image_sum_bound(0.5, 0.2, [0.0], [0.1], [3.5])
