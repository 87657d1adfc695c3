import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from torpam import covariance as cov
from torpam import moment_calculus as mc
from torpam import noise_field as nf
from torpam.errors import (DalangViolation, DomainError, NumericsError,
                           SingularityError)
from torpam.heat_kernel import TWO_PI
from torpam.lattice import (cube_norm_sq, cube_points, lattice_r2,
                            lattice_vectors, zeta_lattice)
from torpam.noise_field import grid_points, grid_to_modes

PI = math.pi


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            cov.NoiseSpec(d=0, alpha=0.5)
        with pytest.raises(DomainError):
            cov.NoiseSpec(d=1, alpha=-0.1)
        with pytest.raises(DomainError):
            cov.NoiseSpec(d=1, alpha=0.5, rho=-1.0)

    # nan <= 0 is False, so the sign checks alone let a NaN through
    @pytest.mark.parametrize("field", ["alpha", "rho", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_refused(self, field, value):
        kwargs = {"d": 1, "alpha": 0.5, "rho": 1.0, "lam": 1.0, field: value}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            cov.NoiseSpec(**kwargs)

    def test_dalang(self):
        assert cov.NoiseSpec(d=3, alpha=0.6).dalang_ok
        assert not cov.NoiseSpec(d=3, alpha=0.5).dalang_ok
        assert cov.NoiseSpec(d=1, alpha=0.3).dalang_ok
        with pytest.raises(DalangViolation):
            cov.NoiseSpec(d=3, alpha=0.5).require_dalang()


class TestFourierWeight:
    """theta~_k of cov.mode_weight, and theta_k = (2 pi)^{-d/2} theta~_k."""

    def test_zero_mode(self):
        spec = cov.NoiseSpec(d=1, alpha=0.5, rho=2.0)
        assert cov.mode_weight(spec, 0) == 2.0
        assert TWO_PI ** -0.5 * cov.mode_weight(spec, 0) == pytest.approx(
            2.0 / math.sqrt(TWO_PI))

    def test_unit_mode_2d(self):
        spec = cov.NoiseSpec(d=2, alpha=1.0, rho=0.0)
        assert TWO_PI**-1 * cov.mode_weight(spec, 1) == pytest.approx(1.0 / TWO_PI)
        assert cov.mode_weight(spec, 5.0) == pytest.approx(0.2, rel=1e-15)

    @given(st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=40)
    def test_reflection_symmetry(self, k1, k2):
        spec = cov.NoiseSpec(d=2, alpha=0.7, rho=0.5)
        k = np.array([[k1, k2], [-k1, -k2]])
        w = cov.mode_weight(spec, np.sum(k * k, axis=-1))
        assert w[0] == w[1]
        assert w[0] == pytest.approx(0.5 if k1 == k2 == 0 else (k1 * k1 + k2 * k2) ** -0.7,
                                     rel=1e-15)

    def test_weights_nonnegative(self):
        spec = cov.NoiseSpec(d=2, alpha=0.9, rho=0.3)
        w = cov.mode_weight(spec, cube_norm_sq(2, 6))
        assert w.shape == (13 * 13,) and np.all(w >= 0.0)
        assert w[len(w) // 2] == 0.3


class TestWeightOwner:
    """Every reader of the weights agrees with cov.mode_weight."""

    @pytest.mark.parametrize("d,kmax", [(1, 12), (2, 5)])
    def test_sites_agree_with_owner(self, d, kmax):
        spec = cov.NoiseSpec(d=d, alpha=0.35, rho=0.8)
        dt = 0.01
        cube = cube_points(np.arange(-kmax, kmax + 1), d)
        theta = cov.mode_weight(spec, np.sum(cube * cube, axis=-1))
        # the sampler's half lattice is the cube after its centre
        sampler = nf.IncrementSampler(spec, kmax, 3 * kmax + 1, dt)
        centre = len(cube) // 2
        np.testing.assert_allclose(sampler.amp_half**2,
                                   dt * TWO_PI ** (-d) * theta[centre + 1:], rtol=1e-15)
        assert sampler.amp_zero**2 == pytest.approx(dt * TWO_PI ** (-d) * 0.8, rel=1e-15)
        for i in range(len(cube)):
            unit = np.zeros(len(cube))
            unit[i] = 1.0
            assert nf.functional_variance(spec, unit.reshape((2 * kmax + 1,) * d)) == theta[i]
        x = np.array([0.3, -1.1])[:d]
        direct = TWO_PI ** (-d) * sum(w * math.cos(k @ x) for k, w in zip(cube, theta))
        assert cov.covariance_truncated(spec, x, kmax) == pytest.approx(direct, rel=1e-13)
        # above the reroute floor 38 / kmax^2 of k1
        s = np.array([1.6, 3.0])
        direct = TWO_PI ** (-d / 2.0) * np.array(
            [np.sum(theta * np.exp(-si * np.sum(cube * cube, axis=-1))) for si in s])
        np.testing.assert_allclose(mc.k1(s, spec, kmax), direct, rtol=1e-13)


class TestCutoffRefusals:
    @pytest.mark.parametrize("kmax", [0, -3])
    def test_spectral_split_needs_a_shell(self, kmax):
        spec = cov.NoiseSpec(d=1, alpha=0.3, rho=1.0)
        with pytest.raises(DomainError, match=f"kmax = {kmax} must be >= 1"):
            cov.covariance_eval(spec, [0.3], kmax=kmax, full_output=True)

    @pytest.mark.parametrize("enumerate_", [cube_norm_sq, lattice_r2, lattice_vectors])
    def test_negative_lattice_cutoff(self, enumerate_):
        with pytest.raises(DomainError, match="lattice cutoff kmax = -2 must be >= 0"):
            enumerate_(1, -2)

    def test_zero_cutoff_is_the_rho_mode(self):
        spec = cov.NoiseSpec(d=2, alpha=0.3, rho=1.5)
        assert cov.covariance_truncated(spec, [0.3, 0.1], 0) == 1.5 * TWO_PI**-2

    @pytest.mark.parametrize("x", [[0.3, 0.1], [[0.3, 0.1, 0.2]]])
    def test_truncated_point_dimension(self, x):
        spec = cov.NoiseSpec(d=1, alpha=0.3, rho=1.0)
        with pytest.raises(DomainError, match="point has dimension"):
            cov.covariance_truncated(spec, x, 4)

    @pytest.mark.parametrize("d, xs", [(1, [[0.3, 0.1]]), (2, [[0.3]]),
                                       (2, [[0.3, 0.1, 0.2], [0.1, 0.2, 0.3]])])
    def test_batch_point_dimension(self, d, xs):
        spec = cov.NoiseSpec(d=d, alpha=0.8, rho=1.0)
        with pytest.raises(DomainError, match=f"point has dimension .*, spec has {d}"):
            cov.covariance_eval_batch(spec, xs)


class TestLatticeHistogram:
    """lattice_r2, built one axis at a time, against the whole cube."""

    @pytest.mark.parametrize("d, kmax", [(1, 0), (1, 9), (2, 0), (2, 1),
                                         (2, 11), (3, 1), (3, 2), (3, 7)])
    def test_equals_cube_enumeration(self, d, kmax):
        sq = np.sum(cube_points(np.arange(-kmax, kmax + 1), d) ** 2, axis=-1)
        r2, counts = np.unique(sq[sq > 0], return_counts=True)
        got_r2, got_counts = lattice_r2(d, kmax)
        assert got_r2.dtype == got_counts.dtype == np.float64
        np.testing.assert_array_equal(got_r2, r2)
        np.testing.assert_array_equal(got_counts, counts)

    def test_d3_laplace_cutoff_counts_every_point(self):
        r2, counts = lattice_r2(3, mc._laplace_kmax(3))
        assert counts.sum() == 1025**3 - 1
        assert r2[-1] == 3 * 512**2


class TestZetaLattice:
    """The lattice zeta sum against its closed forms: 2 zeta(e) at d = 1 and
    4 zeta(s) beta(s), s = e/2, at d = 2, with Dirichlet's beta from the
    Hurwitz zeta."""

    @pytest.mark.parametrize("d, exponent, rtol", [
        (1, 2.6, 3e-6), (1, 3.0, 5e-7), (2, 2.6, 1.2e-5), (2, 3.0, 3e-6)])
    def test_closed_forms(self, d, exponent, rtol):
        if d == 1:
            exact = 2.0 * special.zeta(exponent)
        else:
            s = exponent / 2.0
            beta = 4.0**-s * (special.zeta(s, 0.25) - special.zeta(s, 0.75))
            exact = 4.0 * special.zeta(s) * beta
        assert zeta_lattice(d, exponent) == pytest.approx(exact, rel=rtol)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the radial tail and the d = 1 end term of the "
                       "wrong sign leave 2.5e-6 to 2.4e-8; ROADMAP item 17 "
                       "gives the closed form")
    @pytest.mark.parametrize("d, exponent", [(1, 2.6), (1, 3.0), (2, 3.0), (2, 4.0)])
    def test_closed_forms_to_roundoff(self, d, exponent):
        if d == 1:
            exact = 2.0 * special.zeta(exponent)
        else:
            s = exponent / 2.0
            beta = 4.0**-s * (special.zeta(s, 0.25) - special.zeta(s, 0.75))
            exact = 4.0 * special.zeta(s) * beta
        assert zeta_lattice(d, exponent) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("d, exponent", [(1, 1.0), (2, 1.5), (3, 3.0)])
    def test_divergent_exponent_refused(self, d, exponent):
        with pytest.raises(DomainError, match=f"exponent > d, got exponent = "
                           f"{exponent:g} at d = {d}"):
            zeta_lattice(d, exponent)


class TestUpperGammaQ:
    """The Ewald split's regularized upper incomplete gamma against scipy's
    gammaincc, and the cache of the weights it damps."""

    ALPHAS = np.linspace(0.05, 1.49, 49)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ewald_grids(self, d):
        kmax = cov.DEFAULT_KMAX[d]
        norm_sq = cube_norm_sq(d, kmax)
        x = math.log(1e16) / kmax**2 * norm_sq[norm_sq > 0]
        for a in self.ALPHAS:
            np.testing.assert_allclose(cov._upper_gamma_q(a, x),
                                       special.gammaincc(a, x), rtol=1e-13, atol=0)

    def test_around_the_switch(self):
        # series below x = a + 1, continued fraction from it on
        for a in self.ALPHAS:
            x = (a + 1.0) * (1.0 + np.linspace(-0.05, 0.05, 101))
            np.testing.assert_allclose(cov._upper_gamma_q(a, x),
                                       special.gammaincc(a, x), rtol=1e-13, atol=0)

    def test_shape_and_origin(self):
        assert cov._upper_gamma_q(0.3, 0.0) == 1.0
        assert cov._upper_gamma_q(0.3, np.ones((2, 3))).shape == (2, 3)

    def test_nan_raises(self):
        with pytest.raises(NumericsError, match="did not converge"):
            cov._upper_gamma_q(0.3, np.array([1.0, np.nan, 5.0]))

    @pytest.mark.parametrize("x", [0.5, 5.0])
    def test_iteration_cap_raises(self, x, monkeypatch):
        monkeypatch.setattr(cov, "_Q_MAX_ITER", 4)
        with pytest.raises(NumericsError, match="did not converge in 4 iterations"):
            cov._upper_gamma_q(0.3, x)

    def test_ewald_weights_cached_read_only(self):
        first = cov._ewald_weights(cov.NoiseSpec(d=2, alpha=0.8, rho=1.0), 12)
        again = cov._ewald_weights(cov.NoiseSpec(d=2, alpha=0.8, rho=1.0), 12)
        assert first[0] == again[0]
        for arr, same in zip(first[1:], again[1:]):
            assert arr is same
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestDualRoutes:
    @pytest.mark.parametrize("d,alpha,rho", [(1, 0.3, 0.0), (1, 0.45, 1.0)])
    def test_agreement_1d(self, d, alpha, rho, rng):
        spec = cov.NoiseSpec(d=d, alpha=alpha, rho=rho)
        for _ in range(5):
            x = rng.uniform(0.3, PI, size=d) * rng.choice([-1, 1], size=d)
            a = cov.covariance_eval(spec, x)
            b = cov.covariance_eval_integral(spec, x)
            assert a == pytest.approx(b, abs=1e-6)

    def test_agreement_2d(self):
        spec = cov.NoiseSpec(d=2, alpha=0.5, rho=1.0)
        for x in ([1.0, -0.4], [2.2, 2.9], [0.5, 0.0]):
            a = cov.covariance_eval(spec, x)
            b = cov.covariance_eval_integral(spec, x)
            assert a == pytest.approx(b, abs=1e-6)

    def test_rho_shift_exact(self):
        s0 = cov.NoiseSpec(d=1, alpha=0.45, rho=0.0)
        s1 = cov.NoiseSpec(d=1, alpha=0.45, rho=1.0)
        x = [1.3]
        diff = cov.covariance_eval_integral(s1, x) - cov.covariance_eval_integral(s0, x)
        assert diff == pytest.approx(TWO_PI ** -1, abs=1e-12)

    def test_singularity_rejected(self):
        spec = cov.NoiseSpec(d=1, alpha=0.3, rho=0.0)
        with pytest.raises(SingularityError):
            cov.covariance_eval(spec, [0.0])
        with pytest.raises(SingularityError):
            cov.covariance_eval_integral(spec, [0.0])

    def test_tail_bound_reported(self):
        spec = cov.NoiseSpec(d=1, alpha=0.3, rho=0.0)
        val, tail = cov.covariance_eval(spec, [1.0], full_output=True)
        assert tail < 1e-10
        assert abs(val - cov.covariance_eval_integral(spec, [1.0])) <= 1e-6 + tail


class TestNearOrigin:
    """The routes at |x| = 1e-3 against references from a log-time
    quadrature split into unit pieces of log u (d = 2) and from the theta
    split of ROADMAP item 17 (d = 1)."""

    SPEC_2D = cov.NoiseSpec(d=2, alpha=1.2, rho=0.0)
    X_2D, REF_2D = [1e-3, 0.0], 0.4410211054414
    SPEC_1D = cov.NoiseSpec(d=1, alpha=0.3, rho=0.0)
    X_1D, REF_1D = [1e-3], 8.431615984799588

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the Gaussian part's quad misses the peak near "
                       "the origin (+6.4%); ROADMAP item 17")
    def test_eval_2d(self):
        assert cov.covariance_eval(self.SPEC_2D, self.X_2D) == pytest.approx(
            self.REF_2D, rel=1e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the time quadrature misses the peak near the "
                       "origin (+5.5%); ROADMAP item 17")
    def test_integral_2d(self):
        assert cov.covariance_eval_integral(self.SPEC_2D, self.X_2D) == \
            pytest.approx(self.REF_2D, rel=1e-9)

    def test_batch_2d(self):
        got = cov.covariance_eval_batch(self.SPEC_2D, np.array([self.X_2D]))[0]
        assert got == pytest.approx(self.REF_2D, rel=1e-8)

    def test_eval_and_integral_1d(self):
        assert cov.covariance_eval(self.SPEC_1D, self.X_1D) == pytest.approx(
            self.REF_1D, rel=1e-12)
        assert cov.covariance_eval_integral(self.SPEC_1D, self.X_1D) == \
            pytest.approx(self.REF_1D, rel=1e-12)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the 48-node panel rule is off by -5.2e-5 this "
                       "close to the origin; ROADMAP item 17")
    def test_batch_1d(self):
        got = cov.covariance_eval_batch(self.SPEC_1D, np.array([self.X_1D]))[0]
        assert got == pytest.approx(self.REF_1D, rel=1e-9)


class TestShape:
    def test_mean_zero_1d(self):
        spec = cov.NoiseSpec(d=1, alpha=0.3, rho=0.0)
        q = 2.0

        def integrand(y):
            if y < 1e-7:
                return 0.0
            return cov.covariance_eval(spec, [y**q]) * q * y ** (q - 1)

        val, _ = integrate.quad(integrand, 0.0, PI ** (1 / q),
                                epsabs=1e-10, epsrel=1e-10, limit=400)
        assert 2 * val == pytest.approx(0.0, abs=1e-8)

    def test_signs_attained(self):
        spec = cov.NoiseSpec(d=1, alpha=0.3, rho=0.0)
        xs = np.linspace(-PI, PI, 1000, endpoint=False)
        xs = xs[np.abs(xs) > 1e-3][:, None]
        vals = cov.covariance_eval_batch(spec, xs)
        assert np.min(vals) < 0.0 < np.max(vals)

    def test_evenness(self, rng):
        spec = cov.NoiseSpec(d=1, alpha=0.45, rho=0.5)
        for _ in range(6):
            x = rng.uniform(0.05, PI)
            assert cov.covariance_eval(spec, [x]) == pytest.approx(
                cov.covariance_eval(spec, [-x]), rel=1e-10)

    def test_singularity_slope(self):
        spec = cov.NoiseSpec(d=2, alpha=0.5, rho=1.0)
        rs = np.geomspace(1e-3, 1e-1, 9)
        vals = [cov.covariance_eval_integral(spec, [r / math.sqrt(2)] * 2)
                for r in rs]
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)


class TestQuadraticForm:
    def test_inner_product_identity(self):
        # double grid integral of phi f psi against the mode-sum form
        spec = cov.NoiseSpec(d=1, alpha=0.45, rho=0.7)
        n, kmax = 64, 8
        xs = grid_points(n, 1)[:, 0]
        phi = np.cos(xs) + 0.5 * np.sin(2 * xs)
        psi = 1.0 + np.cos(2 * xs) - 0.3 * np.sin(xs)
        fmat = cov.covariance_truncated(
            spec, (xs[:, None] - xs[None, :])[..., None], kmax)
        cell = TWO_PI / n
        quadratic = phi @ fmat @ psi * cell**2

        # the full d = 1 cube from the half the analysis returns
        a, b = (np.concatenate([np.conj(h[:0:-1]), h]) * math.sqrt(TWO_PI)
                for h in (grid_to_modes(f, kmax, n, 1) for f in (phi, psi)))
        ks = np.arange(-kmax, kmax + 1)
        safe = np.where(ks == 0, 1, np.abs(ks)).astype(float)
        weights = np.where(ks == 0, spec.rho, safe ** (-2 * spec.alpha))
        coeff_sum = float(np.real(np.sum(a * np.conj(b) * weights)))
        assert quadratic == pytest.approx(coeff_sum, abs=1e-8)


class TestRhoStar:
    def test_estimate_and_sufficiency(self):
        rep = cov.rho_star(0.3, 1, n_grid=2048)
        assert rep["rho_star_est"] == pytest.approx(1.2478, abs=2e-3)
        assert rep["rho_star_est"] <= rep["rho_sufficient"] + 1e-9
        assert rep["rho_sufficient"] > 0.0

    def test_nonnegative_at_estimate(self):
        rep = cov.rho_star(0.3, 1, n_grid=2048)
        spec = cov.NoiseSpec(d=1, alpha=0.3, rho=rep["rho_star_est"])
        xs = np.linspace(-PI, PI, 2048, endpoint=False)
        xs = xs[xs != 0.0][:, None]
        vals = cov.covariance_eval_batch(spec, xs)
        assert np.min(vals) >= -1e-8

    def test_min_affine_in_rho(self):
        rep0 = cov.rho_star(0.45, 1, n_grid=1024)
        spec1 = cov.NoiseSpec(d=1, alpha=0.45, rho=1.0)
        xs = np.linspace(-PI, PI, 1024, endpoint=False)
        xs = xs[xs != 0.0][:, None]
        min1 = float(np.min(cov.covariance_eval_batch(spec1, xs)))
        assert min1 == pytest.approx(rep0["grid_min"] + TWO_PI ** -1, abs=1e-7)


class TestDomination:
    def test_above_threshold_literal_form(self):
        # for rho >= rho*, |f_rho| <= f_rho identically (f is nonnegative)
        rep = cov.rho_star(0.3, 1, n_grid=1024)
        rho = rep["rho_star_est"] * 1.05
        spec = cov.NoiseSpec(d=1, alpha=0.3, rho=rho)
        xs = np.linspace(0.02, PI, 200)[:, None]
        vals = cov.covariance_eval_batch(spec, xs)
        assert np.all(np.abs(vals) <= vals + 1e-12)

    def test_below_threshold_corrected_level(self):
        # the domination at level rho_hat = max(rho, rho*) fails near
        # the minimizer when rho < rho*; the level 2 rho_hat - rho works
        rep = cov.rho_star(0.3, 1, n_grid=1024)
        rho = 0.7
        rho_hat = max(rho, rep["rho_star_est"])
        xs = np.linspace(0.02, PI, 400)[:, None]
        f_signed = cov.covariance_eval_batch(
            cov.NoiseSpec(d=1, alpha=0.3, rho=rho), xs)
        f_dom = cov.covariance_eval_batch(
            cov.NoiseSpec(d=1, alpha=0.3, rho=2 * rho_hat - rho), xs)
        assert np.all(np.abs(f_signed) <= f_dom + 1e-10)
        f_hat = cov.covariance_eval_batch(
            cov.NoiseSpec(d=1, alpha=0.3, rho=rho_hat), xs)
        assert np.any(np.abs(f_signed) > f_hat + 1e-10)
