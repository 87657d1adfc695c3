import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from torpam import covariance as cov
from torpam.errors import DalangViolation, DomainError, SingularityError
from torpam.heat_kernel import TWO_PI
from torpam.lattice import lattice_vectors
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

    def test_dalang(self):
        assert cov.NoiseSpec(d=3, alpha=0.6).dalang_ok
        assert not cov.NoiseSpec(d=3, alpha=0.5).dalang_ok
        assert cov.NoiseSpec(d=1, alpha=0.3).dalang_ok
        with pytest.raises(DalangViolation):
            cov.NoiseSpec(d=3, alpha=0.5).require_dalang()


class TestFourierWeight:
    def test_zero_mode(self):
        spec = cov.NoiseSpec(d=1, alpha=0.5, rho=2.0)
        assert cov.fourier_weight(spec, [0]) == pytest.approx(2.0 / math.sqrt(TWO_PI))

    def test_unit_mode_2d(self):
        spec = cov.NoiseSpec(d=2, alpha=1.0, rho=0.0)
        assert cov.fourier_weight(spec, [1, 0]) == pytest.approx(1.0 / TWO_PI)

    @given(st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=40)
    def test_reflection_symmetry(self, k1, k2):
        spec = cov.NoiseSpec(d=2, alpha=0.7, rho=0.5)
        assert cov.fourier_weight(spec, [k1, k2]) == cov.fourier_weight(spec, [-k1, -k2])

    def test_weights_nonnegative(self):
        spec = cov.NoiseSpec(d=2, alpha=0.9, rho=0.3)
        assert cov.fourier_weight(spec, [0, 0]) >= 0.0
        assert all(cov.fourier_weight(spec, k) >= 0.0
                   for k in lattice_vectors(2, 6))


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

        a = grid_to_modes(phi, kmax, n, 1) * math.sqrt(TWO_PI)
        b = grid_to_modes(psi, kmax, n, 1) * math.sqrt(TWO_PI)
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
