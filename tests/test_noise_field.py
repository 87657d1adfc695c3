import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torpam import noise_field as nf
from torpam.covariance import NoiseSpec
from torpam.errors import AliasingError, DomainError
from torpam.heat_kernel import TWO_PI
from torpam.lattice import cube_points, lattice_vectors

PI = math.pi


class TestModeMaps:
    """The mode maps carry the half of a Hermitian cube with last index
    >= 0; each test builds the full cube and hands them its half."""

    def test_roundtrip_1d(self, rng):
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        half = (c + np.conj(c[::-1]))[4:]
        g = nf.modes_to_grid(half, 4, 32, 1)
        assert np.max(np.abs(nf.grid_to_modes(g, 4, 32, 1) - half)) < 1e-13

    def test_roundtrip_2d(self, rng):
        c = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        half = (c + np.conj(c[::-1, ::-1]))[:, 3:]
        g = nf.modes_to_grid(half, 3, 16, 2)
        assert np.max(np.abs(nf.grid_to_modes(g, 3, 16, 2) - half)) < 1e-13

    def test_matches_direct_synthesis(self, rng):
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        c = c + np.conj(c[::-1])
        xs = nf.grid_points(16, 1)[:, 0]
        ks = np.arange(-4, 5)
        direct = (c[None, :] * np.exp(1j * np.outer(xs, ks))).sum(axis=1)
        assert np.max(np.abs(direct - nf.modes_to_grid(c[4:], 4, 16, 1))) < 1e-12

    def test_matches_direct_synthesis_3d(self, rng):
        kmax, n = 2, 8
        shape = (2 * kmax + 1,) * 3
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        c = c + np.conj(c[::-1, ::-1, ::-1])
        ks = cube_points(np.arange(-kmax, kmax + 1), 3)
        waves = np.exp(1j * nf.grid_points(n, 3) @ ks.T)
        direct = np.einsum("pk,k->p", waves, c.ravel())
        field = nf.modes_to_grid(c[..., kmax:], kmax, n, 3)
        assert np.max(np.abs(direct - field.ravel())) < 1e-12

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            nf.modes_to_grid(np.zeros(5, dtype=complex), 4, 8, 1)

    @pytest.mark.parametrize("d, shape, half", [(1, (9,), r"\(5,\)"),
                                                (2, (7, 7), r"\(7, 4\)")])
    def test_synthesis_refuses_other_shapes_by_name(self, d, shape, half):
        kmax = shape[0] // 2
        with pytest.raises(DomainError, match=f"must end with shape {half}"):
            nf.modes_to_grid(np.zeros(shape, dtype=complex), kmax, 16, d)

    def test_analysis_aliasing_guard(self):
        with pytest.raises(AliasingError):
            nf.grid_to_modes(np.zeros(8), 4, 8, 1)

    def test_negative_cutoff_refused_by_name(self):
        with pytest.raises(DomainError, match="mode cutoff kmax = -1 must be >= 0"):
            nf.grid_to_modes(np.zeros(8), -1, 8, 1)
        with pytest.raises(DomainError, match="mode cutoff kmax = -1 must be >= 0"):
            nf.modes_to_grid(np.zeros(1, dtype=complex), -1, 8, 1)


def _hermitian_half(rng, batch, kmax, d):
    """The half with last index >= 0 of a random Hermitian mode cube."""
    shape = batch + (2 * kmax + 1,) * d
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c = c + np.conj(np.flip(c, axis=tuple(range(-d, 0))))
    return c[..., kmax:]


class TestModeMapProperties:
    @staticmethod
    def _case(data):
        d = data.draw(st.sampled_from([1, 2, 3]))
        kmax = data.draw(st.integers(1, 3 if d == 3 else 8))
        grid_n = data.draw(st.integers(2 * kmax + 1, 12 if d == 3 else 40))
        batch = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        return d, kmax, grid_n, batch, rng

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_analysis_inverts_synthesis(self, data):
        d, kmax, grid_n, batch, rng = self._case(data)
        c = _hermitian_half(rng, batch, kmax, d)
        field = nf.modes_to_grid(c, kmax, grid_n, d)
        assert field.dtype == np.float64
        assert field.shape == batch + (grid_n,) * d
        back = nf.grid_to_modes(field, kmax, grid_n, d)
        assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_analysis_matches_the_full_fft(self, data):
        # the complex FFT's coefficients at the half cube's wrapped
        # indices, times (-1)^{|k|_1} for the grid's start at -pi
        d, kmax, grid_n, batch, rng = self._case(data)
        field = rng.normal(size=batch + (grid_n,) * d)
        modes = nf.grid_to_modes(field, kmax, grid_n, d)
        ks = [np.arange(-kmax, kmax + 1)] * (d - 1) + [np.arange(kmax + 1)]
        full = np.fft.fftn(field, axes=tuple(range(-d, 0)), norm="forward")
        picked = full[(...,) + np.ix_(*(k % grid_n for k in ks))]
        l1 = sum(np.abs(k) for k in np.meshgrid(*ks, indexing="ij"))
        expected = picked * (-1.0) ** l1
        assert modes.shape == batch + (2 * kmax + 1,) * (d - 1) + (kmax + 1,)
        assert np.max(np.abs(modes - expected)) <= 1e-12 * np.max(np.abs(expected))


def _scattered_cube(sampler, rng, n_batch):
    """The sampler's mode cube as first built (zero fill, then a scatter of
    the half lattice, its mirror and the zero mode), kept to pin the
    layout of the draws bit for bit."""
    kmax, d = sampler.kmax, sampler.spec.d
    vecs = lattice_vectors(d, kmax)
    half = vecs[[k[np.nonzero(k)[0][0]] > 0 for k in vecs]]
    h = len(half)
    g = rng.standard_normal((n_batch, 2 * h + 1))
    modes = np.zeros((n_batch,) + (2 * kmax + 1,) * d, dtype=complex)
    xi = (g[:, 1:h + 1] + 1j * g[:, h + 1:]) / np.sqrt(2.0)
    every = (slice(None),)
    modes[every + tuple(half.T + kmax)] = sampler.amp_half * xi
    modes[every + tuple(kmax - half.T)] = sampler.amp_half * np.conj(xi)
    modes[every + (kmax,) * d] = sampler.amp_zero * g[:, 0]
    return modes


class TestSampler:
    @pytest.mark.parametrize("d, kmax, grid_n", [(1, 16, 33), (1, 0, 8),
                                                 (2, 5, 12)])
    @pytest.mark.parametrize("n_batch", [None, 7])
    def test_sample_modes_bitwise(self, d, kmax, grid_n, n_batch):
        spec = NoiseSpec(d=d, alpha=0.3 if d == 1 else 0.8, rho=1.0)
        sampler = nf.IncrementSampler(spec, kmax, grid_n, 0.1)
        modes = sampler.sample_modes(nf.step_rng(8, 3, 1), n_batch=n_batch)
        frozen = _scattered_cube(sampler, nf.step_rng(8, 3, 1), n_batch or 1)
        assert modes.tobytes() == (frozen if n_batch else frozen[0]).tobytes()

    @pytest.mark.parametrize("d, kmax, n_batch", [(1, 16, 4000), (2, 8, 300)])
    @pytest.mark.parametrize("seed", range(5))
    def test_sample_modes_bitwise_at_solver_batches(self, d, kmax, n_batch,
                                                    seed):
        spec = NoiseSpec(d=d, alpha=0.3 if d == 1 else 0.8, rho=1.0)
        sampler = nf.IncrementSampler(spec, kmax, 3 * kmax + 1, 1 / 256)
        modes = sampler.sample_modes(nf.step_rng(seed, 0), n_batch=n_batch)
        frozen = _scattered_cube(sampler, nf.step_rng(seed, 0), n_batch)
        assert modes.tobytes() == frozen.tobytes()

    @pytest.mark.parametrize("d, kmax, grid_n", [(1, 16, 33), (2, 5, 12)])
    @pytest.mark.parametrize("n_batch", [None, 5])
    def test_draw_synthesizes_the_half_of_sample_modes(self, d, kmax, grid_n,
                                                       n_batch):
        spec = NoiseSpec(d=d, alpha=0.3 if d == 1 else 0.8, rho=1.0)
        sampler = nf.IncrementSampler(spec, kmax, grid_n, 0.1)
        modes = sampler.sample_modes(nf.step_rng(4, 2, 1), n_batch=n_batch)
        field = nf.modes_to_grid(modes[..., kmax:], kmax, grid_n, d)
        drawn = sampler.draw(4, 2, 1, n_batch=n_batch)
        assert drawn.shape == field.shape
        assert drawn.tobytes() == field.tobytes()

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_refuses_a_step_that_is_not_positive_and_finite(self, spec_d1, dt):
        with pytest.raises(DomainError, match="must be positive and finite"):
            nf.IncrementSampler(spec_d1, 8, 17, dt)

    def test_determinism(self, spec_d1):
        a = nf.IncrementSampler(spec_d1, 16, 33, 0.1).draw(42, 3)
        b = nf.IncrementSampler(spec_d1, 16, 33, 0.1).draw(42, 3)
        assert np.array_equal(a, b)

    def test_steps_differ(self, spec_d1):
        sampler = nf.IncrementSampler(spec_d1, 16, 33, 0.1)
        assert not np.array_equal(sampler.draw(42, 3), sampler.draw(42, 4))

    def test_realness(self, spec_d1):
        sampler = nf.IncrementSampler(spec_d1, 16, 33, 0.1)
        modes = sampler.sample_modes(nf.step_rng(1, 0))
        field = nf.modes_to_grid(modes[16:], 16, 33, 1)
        assert np.max(np.abs(np.imag(field))) < 1e-12

    def test_grid_guard(self, spec_d1):
        with pytest.raises(AliasingError):
            nf.IncrementSampler(spec_d1, 16, 32, 0.1)

    def test_2d_sampler_realness(self):
        spec = NoiseSpec(d=2, alpha=0.8, rho=1.0)
        sampler = nf.IncrementSampler(spec, 5, 12, 0.1)
        field = sampler.draw(3, 0)
        assert field.shape == (12, 12)
        assert np.isrealobj(field)

    def test_mean_zero(self, spec_d1):
        sampler = nf.IncrementSampler(spec_d1, 8, 17, 0.1)
        modes = sampler.sample_modes(nf.step_rng(0, 0), n_batch=4000)
        fields = nf.modes_to_grid(modes[..., 8:], 8, 17, 1)
        mean = fields.mean(axis=0)
        se = fields.std(axis=0) / math.sqrt(4000)
        assert np.all(np.abs(mean) <= 4 * se)


class TestFunctionals:
    def test_constant_functional_variance(self):
        # only the rho mode survives integration over the torus
        spec = NoiseSpec(d=1, alpha=0.3, rho=2.0)
        sampler = nf.IncrementSampler(spec, 0, 8, 0.05)
        ones = np.ones(8)
        vals = [nf.grid_inner(sampler.draw(7, s), ones, 1)
                for s in range(4000)]
        target = 0.05 * 2.0 * TWO_PI
        assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.1)

    def test_rho_zero_kills_constants(self):
        spec = NoiseSpec(d=1, alpha=0.3, rho=0.0)
        sampler = nf.IncrementSampler(spec, 8, 17, 0.05)
        ones = np.ones(17)
        vals = [nf.grid_inner(sampler.draw(3, s), ones, 1)
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
        fields = nf.modes_to_grid(modes[..., kmax:], kmax, n, 1)
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
            a[r] = nf.grid_inner(sampler.draw(5, 2 * r), phi, 1)
            b[r] = nf.grid_inner(sampler.draw(5, 2 * r + 1), phi, 1)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n_rep)

    @pytest.mark.parametrize("d,shape", [(2, (9,)), (1, (9, 9)), (1, (8,)),
                                         (2, (9, 7)), (2, (8, 8))])
    def test_functional_variance_needs_a_d_cube_of_odd_side(self, d, shape):
        spec = NoiseSpec(d=d, alpha=0.3, rho=1.0)
        with pytest.raises(DomainError, match="is not a d = .* cube of odd side"):
            nf.functional_variance(spec, np.ones(shape))

    def test_sampler_refuses_negative_cutoff(self, spec_d1):
        with pytest.raises(DomainError, match="kmax = -1 must be >= 0"):
            nf.IncrementSampler(spec_d1, -1, 16, 0.01)

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

    def test_standard_error_matches_the_outer_product_formula(self, spec_d1):
        # the standard error comes from the squared fields' Gram matrix;
        # at a small size, compare with the n x N x N outer product of
        # the sampled fields themselves
        grid_n, n, dt, seed = 9, 1000, 0.1, 11
        rep = nf.empirical_covariance(spec_d1, dt, grid_n, n, seed)
        sampler = nf.IncrementSampler(spec_d1, 4, grid_n, dt)
        modes = sampler.sample_modes(nf.step_rng(seed, 0), n_batch=n)
        fields = nf.modes_to_grid(modes[..., 4:], 4, grid_n, 1)
        emp = fields.T @ fields / n
        prods_sq = (fields[:, :, None] * fields[:, None, :]) ** 2
        se = np.sqrt((prods_sq.mean(axis=0) - emp**2) / n)
        assert np.array_equal(rep["empirical"], emp)
        dev = np.abs(emp - rep["target"]) / se
        assert rep["worst_se_units"] == pytest.approx(np.max(dev), rel=1e-13)

    def test_requires_enough_samples(self, spec_d1):
        with pytest.raises(DomainError):
            nf.empirical_covariance(spec_d1, 0.1, 17, 100, seed=0)

