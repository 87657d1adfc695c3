import math

import numpy as np
import pytest

from torpam import noise_field as nf
from torpam.covariance import NoiseSpec
from torpam.errors import AliasingError, DomainError
from torpam.heat_kernel import TWO_PI

PI = math.pi


class TestModeMaps:
    def test_roundtrip_1d(self, rng):
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        g = nf.modes_to_grid(c, 4, 32, 1)
        assert np.max(np.abs(nf.grid_to_modes(g, 4, 32, 1) - c)) < 1e-13

    def test_roundtrip_2d(self, rng):
        c = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        g = nf.modes_to_grid(c, 3, 16, 2)
        assert np.max(np.abs(nf.grid_to_modes(g, 3, 16, 2) - c)) < 1e-13

    def test_matches_direct_synthesis(self, rng):
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        xs = nf.grid_points(16, 1)[:, 0]
        ks = np.arange(-4, 5)
        direct = (c[None, :] * np.exp(1j * np.outer(xs, ks))).sum(axis=1)
        assert np.max(np.abs(direct - nf.modes_to_grid(c, 4, 16, 1))) < 1e-12

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            nf.modes_to_grid(np.zeros(9, dtype=complex), 4, 8, 1)


class TestSampler:
    def test_determinism(self, spec_d1):
        a = nf.sample_increment(spec_d1, 16, 0.1, 33, seed=42, step=3)
        b = nf.sample_increment(spec_d1, 16, 0.1, 33, seed=42, step=3)
        assert np.array_equal(a.values, b.values)

    def test_steps_differ(self, spec_d1):
        a = nf.sample_increment(spec_d1, 16, 0.1, 33, seed=42, step=3)
        b = nf.sample_increment(spec_d1, 16, 0.1, 33, seed=42, step=4)
        assert not np.array_equal(a.values, b.values)

    def test_realness(self, spec_d1):
        sampler = nf.IncrementSampler(spec_d1, 16, 33, 0.1)
        modes = sampler.sample_modes(nf.step_rng(1, 0))
        field = nf.modes_to_grid(modes, 16, 33, 1)
        assert np.max(np.abs(np.imag(field))) < 1e-12

    def test_grid_guard(self, spec_d1):
        with pytest.raises(AliasingError):
            nf.IncrementSampler(spec_d1, 16, 32, 0.1)

    def test_2d_sampler_realness(self):
        spec = NoiseSpec(d=2, alpha=0.8, rho=1.0)
        sampler = nf.IncrementSampler(spec, 5, 12, 0.1)
        inc = sampler.sample(3, 0)
        assert inc.values.shape == (12, 12)
        assert np.isrealobj(inc.values)

    def test_mean_zero(self, spec_d1):
        sampler = nf.IncrementSampler(spec_d1, 8, 17, 0.1)
        modes = sampler.sample_modes(nf.step_rng(0, 0), n_batch=4000)
        fields = np.real(nf.modes_to_grid(modes, 8, 17, 1))
        mean = fields.mean(axis=0)
        se = fields.std(axis=0) / math.sqrt(4000)
        assert np.all(np.abs(mean) <= 4 * se)


class TestFunctionals:
    def test_zero_function(self, spec_d1):
        incs = [nf.sample_increment(spec_d1, 8, 0.1, 17, seed=0, step=s)
                for s in range(3)]
        assert nf.wiener_functional(incs, np.zeros(17)) == 0.0

    def test_grid_mismatch(self, spec_d1):
        a = nf.sample_increment(spec_d1, 8, 0.1, 17, seed=0, step=0)
        b = nf.sample_increment(spec_d1, 8, 0.2, 17, seed=0, step=1)
        with pytest.raises(DomainError):
            nf.wiener_functional([a, b], np.ones(17))

    def test_constant_functional_variance(self):
        # only the rho mode survives integration over the torus
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0)
        sampler = nf.IncrementSampler(spec, 0, 8, 0.05)
        ones = np.ones(8)
        vals = [nf.grid_inner(sampler.sample(7, s).values, ones, 1)
                for s in range(4000)]
        target = 0.05 * 2.0 * TWO_PI
        assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.1)

    def test_rho_zero_kills_constants(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=0.0)
        sampler = nf.IncrementSampler(spec, 8, 17, 0.05)
        ones = np.ones(17)
        vals = [nf.grid_inner(sampler.sample(3, s).values, ones, 1)
                for s in range(200)]
        assert np.max(np.abs(vals)) < 1e-12

    def test_cosine_functional_variance(self, spec_d1):
        # phi = cos(kx): <phi,phi> = pi |k|^{-2 alpha}
        k = 1
        n, kmax, dt = 33, 8, 0.1
        sampler = nf.IncrementSampler(spec_d1, kmax, n, dt)
        xs = nf.grid_points(n, 1)[:, 0]
        phi = np.cos(k * xs)
        modes = sampler.sample_modes(nf.step_rng(11, 0), n_batch=20000)
        fields = np.real(nf.modes_to_grid(modes, kmax, n, 1))
        vals = nf.grid_inner(fields, phi, 1)
        target = dt * PI * float(k) ** (-2 * spec_d1.alpha)
        se = np.std(vals**2, ddof=1) / math.sqrt(len(vals))
        assert abs(np.var(vals, ddof=1) - target) <= 3 * se

    def test_white_in_time(self, spec_d1):
        sampler = nf.IncrementSampler(spec_d1, 8, 17, 0.1)
        phi = np.cos(nf.grid_points(17, 1)[:, 0])
        n_rep = 2000
        a = np.empty(n_rep)
        b = np.empty(n_rep)
        for r in range(n_rep):
            a[r] = nf.grid_inner(sampler.sample(5, 2 * r).values, phi, 1)
            b[r] = nf.grid_inner(sampler.sample(5, 2 * r + 1).values, phi, 1)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n_rep)

    def test_theoretical_variance_helper(self, spec_d1):
        kmax = 4
        modes = np.zeros(2 * kmax + 1, dtype=complex)
        # phi = cos x + sin 2x in the e^{ikx} basis, scaled to the
        # (2pi)^{-1/2} coefficient convention
        modes[kmax + 1] = 0.5
        modes[kmax - 1] = 0.5
        modes[kmax + 2] = -0.5j
        modes[kmax - 2] = 0.5j
        var = nf.functional_variance(spec_d1, modes * math.sqrt(TWO_PI))
        expected = PI * (1.0 + 2.0 ** (-2 * spec_d1.alpha))
        assert var == pytest.approx(expected, rel=1e-12)


class TestEmpiricalCovariance:
    def test_worst_deviation(self, spec_d1):
        rep = nf.empirical_covariance(spec_d1, dt=0.1, grid_n=33,
                                      n_samples=10_000, seed=5)
        assert rep["worst_se_units"] <= 4.0

    def test_stationarity(self, spec_d1):
        rep = nf.empirical_covariance(spec_d1, dt=0.1, grid_n=17,
                                      n_samples=20_000, seed=6)
        emp = rep["empirical"]
        # entries along a diagonal share the separation x - y
        diag1 = np.diagonal(emp, offset=1)
        spread = np.std(diag1)
        se_scale = np.mean(np.abs(np.diagonal(rep["target"], offset=1))) + 0.01
        assert spread <= 0.5 * se_scale

    def test_sample_size_scaling(self, spec_d1):
        r1 = nf.empirical_covariance(spec_d1, 0.1, 17, 4000, seed=7)
        r2 = nf.empirical_covariance(spec_d1, 0.1, 17, 16000, seed=8)
        assert r2["max_abs_deviation"] <= r1["max_abs_deviation"] * 1.2

    def test_requires_enough_samples(self, spec_d1):
        with pytest.raises(DomainError):
            nf.empirical_covariance(spec_d1, 0.1, 17, 100, seed=0)


class TestExport:
    def test_binary_roundtrip(self, tmp_path, spec_d1):
        inc = nf.sample_increment(spec_d1, 8, 0.1, 17, seed=1)
        path = tmp_path / "field.bin"
        nf.write_field_binary(path, inc.values, inc.dt, 1)
        data, meta = nf.read_field_binary(path)
        assert np.array_equal(data, inc.values)
        assert meta == {"d": 1, "grid_n": 17, "dt": 0.1, "seed": 1}

    def test_binary_magic_guard(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DomainError):
            nf.read_field_binary(path)

    @pytest.mark.parametrize("keep, what", [(10, "header"),
                                            (4 + 24 + 17 * 8 - 1, "payload")])
    def test_binary_truncation_guard(self, tmp_path, spec_d1, keep, what):
        inc = nf.sample_increment(spec_d1, 8, 0.1, 17, seed=1)
        path = tmp_path / "field.bin"
        nf.write_field_binary(path, inc.values, inc.dt, 1)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DomainError, match=what):
            nf.read_field_binary(path)

    def test_csv_export(self, tmp_path, spec_d1):
        inc = nf.sample_increment(spec_d1, 8, 0.1, 17, seed=1)
        path = tmp_path / "field.csv"
        nf.write_field_csv(path, inc.values)
        back = np.loadtxt(path, delimiter=",")
        assert np.allclose(back, inc.values, rtol=0, atol=0)
